"""Toolkit for polarization-entangled photon pairs from a quantum-dot
biexciton-exciton cascade: Monte Carlo timestamp simulation, coincidence
analysis, and per-time-bin maximum-likelihood state tomography."""

from .version import __version__
from .constants import H_UEV_PS, HBAR_UEV_PS
from .errors import (CascadeError, ComputationError, FitError, ParseError,
                     ValidationError)
from .quantum import (PHI_MINUS, PHI_PLUS, concurrence, density_of, fidelity,
                      oscillation_period, project_physical, rho_to_dict, time_evolved_state)
from .polarization import BASIS_LABELS, Correction, projector_for, tomography_bases
from .tomography import (BootstrapResult, ProjectionRecord, ReconstructionResult,
                         TomographyInput, bootstrap_metrics, mle_reconstruct,
                         neg_log_likelihood, rho_from_t, time_binned_tomography)
from .simulate import (EmitterConfig, simulate_autocorrelation_run,
                       simulate_projection_run)
from .streams import TimestampStream, export_stream, import_stream
from .correlations import G2Result, Histogram, cross_correlate, g2_zero
from .fitting import (FirstLensRate, FitResult, RecaptureModel, first_lens_rate,
                      fit_model, fss_from_peak_positions, fss_from_period,
                      poisson_weights)
from .config import RunConfig, load_config

__all__ = [
    "__version__",
    "H_UEV_PS", "HBAR_UEV_PS",
    "CascadeError", "ComputationError", "FitError", "ParseError", "ValidationError",
    "PHI_MINUS", "PHI_PLUS", "concurrence", "density_of", "fidelity",
    "oscillation_period", "project_physical", "rho_to_dict", "time_evolved_state",
    "BASIS_LABELS", "Correction", "projector_for", "tomography_bases",
    "BootstrapResult", "ProjectionRecord", "ReconstructionResult", "TomographyInput",
    "bootstrap_metrics", "mle_reconstruct", "neg_log_likelihood", "rho_from_t",
    "time_binned_tomography",
    "EmitterConfig", "simulate_autocorrelation_run", "simulate_projection_run",
    "TimestampStream", "export_stream", "import_stream",
    "G2Result", "Histogram", "cross_correlate", "g2_zero",
    "FirstLensRate", "FitResult", "RecaptureModel", "first_lens_rate",
    "fit_model", "fss_from_peak_positions", "fss_from_period", "poisson_weights",
    "RunConfig", "load_config",
]
