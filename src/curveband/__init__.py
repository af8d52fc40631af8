"""curveband: band-limited level-set curves, their recovery from point
samples, kernel low-rank point-cloud denoising, and structured low-rank
image segmentation."""

from .curve_model import (FrequencySupport, PointSet, TrigPolynomial,
                          extract_zero_level_set, random_curve, sample_curve)
from .denoise import point_cloud_snr
from .lifting import dirichlet_gram, feature_matrix

__version__ = "0.1.0"
