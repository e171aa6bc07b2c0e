"""Spectral simulator for a stochastic Ginzburg-Landau equation with
degenerate high-mode noise, together with an exact finite-state
minorization/coupling toolkit and ensemble mixing diagnostics.

The package splits into six layers:

- field: periodic spectral fields, eigenvalues, norms, drift polynomials,
  dealiased transforms;
- noise: admissible diagonal noise spectra and exact Ornstein-Uhlenbeck
  (stochastic convolution) sampling with per-trajectory streams;
- integrator: exponential Euler stepping of batched ensembles, a scalar
  comparison ODE, and the trajectory CSV writer;
- doeblin: exact small-set certificates, coupling contraction, geometric
  convergence, and drift conditions on finite kernels;
- mixing: uniform moment tables, histogram law-distance proxies, and
  exponential rate fitting;
- config/cli: reproducible runs driven by flat key = value files.

The package re-exports nothing: import from the submodules, for example
``from glmix.integrator import run_ensemble``.
"""

__version__ = "0.1.0"
