"""curveband: band-limited level-set curves, their recovery from point
samples, kernel low-rank point-cloud denoising, and structured low-rank
image segmentation."""

from .curve_model import (FrequencySupport, PointSet, Polyline,
                          TrigPolynomial, evaluate, evaluate_on_grid,
                          extract_zero_level_set, multiply,
                          project_to_zero_set, random_curve, sample_curve)
from .denoise import (DenoiseTrace, IrlsConfig, graph_laplacian, irls_weights,
                      klr_denoise, point_cloud_mse, point_cloud_snr,
                      solve_quadratic)
from .errors import (AmbiguousSupport, ContractViolation, DataError,
                     NoSamplesAvailable, NumericalFailure)
from .lifting import (FeatureMatrix, KernelMatrix, dirichlet_gram,
                      effective_bandwidth, feature_matrix,
                      gaussian_kernel_matrix)
from .recovery import (NullspaceBasis, SumOfSquares, chamfer_distance,
                       estimate_coefficients, hermitian_align,
                       nullspace_basis, rank_bound, rasterized_rank_tol,
                       recover_curve, shift_set)
from .segmentation import (GrayImage, SegmentResult, ToeplitzLift, build_lift,
                           gradient_spectrum, segment)

__version__ = "0.1.0"
