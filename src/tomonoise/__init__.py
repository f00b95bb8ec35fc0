"""Homodyne-tomography noise toolkit for single-mode optical states."""

from .direct import heterodyne_phase_variance, simulate_heterodyne, simulate_photocount
from .errors import CapabilityError, NumericRangeError, TomonoiseError, ValidationError
from .estimators import (
    ComplexEstimate,
    Estimate,
    PhaseHistogram,
    empirical_kernel_variance,
    estimate_complex,
    estimate_mean,
    phase_kernel_distribution,
)
from .homodyne import (
    Dataset,
    load_dataset_csv,
    load_dataset_json,
    sample_fixed_phase,
    sample_homodyne,
    save_dataset_csv,
    save_dataset_json,
)
from .kernels import (
    ComplexAmplitude,
    Intensity,
    Monomial,
    Observable,
    Phase,
    Polynomial,
    RealField,
    hermite,
    kernel_monomial,
    kernel_observable,
    kernel_polynomial,
    observable_from_json,
    observable_to_json,
    square_kernel_monomial,
)
from .noise import (
    NoiseComparison,
    added_noise_analytic,
    amplitude_noise_direct,
    analytic_comparison,
    empirical_comparison,
    intensity_variance_direct,
    noise_ratio_coherent,
    quadrature_variance_direct,
    sweep,
    write_sweep_csv,
)
from .states import (
    Coherent,
    Fock,
    Mixed,
    StateSpec,
    mean_photon,
    normal_moment,
    photon_distribution,
    quadrature_pdf,
    state_from_json,
    state_to_json,
)

__version__ = "0.1.0"
