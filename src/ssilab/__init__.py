"""Numerical laboratory for singularity-skipping inversion of diffusion flows."""

__version__ = "0.12.0"

from .errors import (ConfigError, IntegrationDivergedError, InvalidArgumentError,
                     UndefinedCorrelationError)
from .schedules import (Family, NoiseSchedule, TimeGrid, VE_KARRAS,
                        VP_LINEAR_BETA, karras_grid)
from .oracles import (PerturbedScoreOracle, PointCloudScore, ScoreOracle,
                      SubspaceGaussianScore, circle_point_cloud,
                      gaussian_on_axis, random_subspace, toy_image_subspace)
from .flow import (Method, Trajectory, denoise_to_mean, gaussian_exact,
                   integrate, sample)
from .inversion import (InversionConfig, InversionResult, ddim_coefficients,
                        ddim_invert_baseline, ddim_sample,
                        pf_ode_sigma_euler_step, reconstruct, ssi_invert_ve,
                        ssi_invert_vp)
from .interp import interpolate_and_decode, slerp
from .diagnostics import (chi_square_bound, correlation_metrics, mse,
                          projection_concentration, singularity_trace, ssim,
                          trace_rms)
from .config import (COMMANDS, build_grid, build_method, build_oracle,
                     build_schedule, config_hash, resolve_config)
from .experiments import replay, run_command
