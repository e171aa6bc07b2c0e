"""Spectral simulator for a stochastic Ginzburg-Landau equation with
degenerate high-mode noise, together with an exact finite-state
minorization/coupling toolkit and ensemble mixing diagnostics.

The package splits into six layers:

- field: periodic spectral fields, norms, semigroup, drift polynomials,
  dealiased transforms;
- noise: admissible diagonal noise spectra and exact Ornstein-Uhlenbeck
  (stochastic convolution) sampling with counter-based streams;
- integrator: exponential Euler stepping, trajectories and batched
  ensembles, pathwise dissipativity diagnostics, a scalar comparison ODE;
- doeblin: exact small-set certificates, coupling contraction, geometric
  convergence, and drift conditions on finite kernels;
- mixing: uniform moment tables, histogram law-distance proxies, and
  exponential rate fitting;
- config/cli: reproducible runs driven by flat key = value files.
"""

from .field import (
    DriftPolynomial,
    GridField,
    SpectralField,
    apply_semigroup,
    basis_field,
    coeffs_to_values,
    dealias_points,
    eigenvalues,
    eval_polynomial,
    mode_numbers,
    norm_gamma,
    scaled_random_field,
    smoothing_norm_check,
    sup_norm,
    values_to_coeffs,
    zero_field,
)
from .noise import (
    ConvolutionStepSampler,
    NoiseSpectrum,
    SpectrumViolation,
    convolution_step,
    sup_gaussian_check,
    trajectory_generator,
    validate,
)
from .integrator import (
    EnsembleResult,
    OdeComparison,
    SimulationParams,
    Trajectory,
    TrajectoryBlowup,
    dini_check,
    fit_dini_constants,
    ode_comparison,
    psi_step_residual,
    run_ensemble,
    simulate,
    write_trajectory_csv,
)
from .doeblin import (
    FiniteKernel,
    SmallSetCertificate,
    WeightedMeasure,
    ball_partition,
    certificate_text,
    condition_b,
    contraction_check,
    drift_condition_check,
    geometric_bound_check,
    invariant_measure,
    minorization,
    parse_certificate,
    read_kernel,
    small_set_search,
    two_small_compose,
    variation_norm,
    write_kernel,
)
from .mixing import (
    EnsembleSpec,
    MixingReport,
    MomentTable,
    RateFit,
    fit_rate,
    law_distance,
    mixing_report,
    moment_bound,
    observables,
    report_csv,
    report_summary,
    sliced_mean_difference,
    sup_window_bound,
)
from .config import ConfigError, RunConfig, load_config, resolve_config

__version__ = "0.1.0"
