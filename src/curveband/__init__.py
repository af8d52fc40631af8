"""curveband: band-limited level-set curves, their recovery from point
samples, kernel low-rank point-cloud denoising, and structured low-rank
image segmentation."""

from .curve_model import (FrequencySupport, PointSet, Polyline,
                          TrigPolynomial, evaluate_on_grid,
                          extract_zero_level_set, multiply, random_curve,
                          sample_curve)
from .denoise import (DenoiseTrace, IrlsConfig, graph_laplacian, irls_weights,
                      klr_denoise, point_cloud_mse, point_cloud_snr,
                      solve_quadratic)
from .errors import ContractViolation, DataError, NumericalFailure
from .lifting import (FeatureMatrix, KernelMatrix, dirichlet_gram,
                      feature_matrix, gaussian_kernel_matrix)
from .recovery import (NullspaceBasis, SumOfSquares, chamfer_distance,
                       estimate_coefficients, nullspace_basis, rank_bound,
                       recover_curve)
from .segmentation import (GrayImage, SegmentResult, ToeplitzLift, build_lift,
                           segment)

__version__ = "0.1.0"
