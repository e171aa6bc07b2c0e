"""Degenerate diagonal noise: admissible spectra and per-trajectory streams.

The driving noise is Q dW with Q diagonal in the same H-orthonormal basis as
L: mode k (both cos and sin slots) carries the amplitude q_k.  The admissible
spectra have a free head and a polynomially pinched tail: for constants
c1, c2 > 0, alpha >= 2 and beta in (alpha - 1/8, alpha],

    c1 * k^(-2 alpha) <= q_k <= c2 * k^(-2 beta)     for k > k_star,

while q_k for k <= k_star (including the constant mode q_0) is only required
to be nonnegative and may vanish.  The default configuration forces no mode
below k = 4, so the low modes feel the noise only through the nonlinearity.

The stochastic convolution W_L(t) = int_0^t e^{-L(t-s)} Q dW(s) is an
independent Ornstein-Uhlenbeck process per coefficient slot, so a time step h
can be sampled exactly:

    W_L(t+h) = e^{-Lh} W_L(t) + xi,    xi_k ~ N(0, s_k(h)^2),
    s_k(h) = q_k * sqrt((1 - e^{-2 l_k h}) / (2 l_k)).

NoiseSpectrum.step_std gives s_k(h) per slot; the integrator's stepper
applies the recursion (W_L is the drift-free model run from zero).

Each trajectory owns an SFC64 stream seeded by the child of
SeedSequence(seed) with spawn key (trajectory id,), and every step consumes
exactly one standard normal per coefficient slot, in slot order.  The
increment at (seed, trajectory, step) is therefore reproducible bitwise,
independent of chunking or thread schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.random

from .field import eigenvalues, mode_numbers

__all__ = [
    "NoiseSpectrum",
    "SpectrumViolation",
    "validate",
    "sup_gaussian_check",
    "trajectory_generator",
]


@dataclass(frozen=True)
class SpectrumViolation:
    """First violated admissibility bound, as structured data."""

    rule: str
    bound: str
    k: int | None = None
    value: float | None = None

    def lines(self) -> list[str]:
        out = [f"violation = {self.rule}", f"bound = {self.bound}"]
        if self.k is not None:
            out.append(f"k = {self.k}")
        if self.value is not None:
            out.append(f"value = {self.value!r}")
        return out

    def __str__(self):
        return "\n".join(self.lines())


@dataclass(frozen=True)
class NoiseSpectrum:
    """Diagonal noise amplitudes q_0..q_N with tail-pinching constants."""

    q: np.ndarray
    alpha: float = 2.0
    beta: float = 2.0
    c1: float = 1.0
    c2: float = 1.0
    k_star: int = 3

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.ndim != 1 or q.size < 1:
            raise ValueError("q must be a 1-d array of amplitudes q_0..q_N")
        object.__setattr__(self, "q", q)

    @property
    def n_modes(self) -> int:
        return self.q.size - 1

    @classmethod
    def default(
        cls,
        n_modes: int = 32,
        alpha: float = 2.0,
        beta: float = 2.0,
        c1: float = 1.0,
        c2: float = 1.0,
        k_star: int = 3,
    ) -> "NoiseSpectrum":
        """q_k = c2 * k^(-2 beta) for k > k_star, zero on k <= k_star.

        With the default constants this is q_k = k^-4 for k > 3.
        """
        k = np.arange(n_modes + 1, dtype=float)
        q = np.zeros(n_modes + 1)
        tail = k > max(k_star, 0)  # validate rejects k_star < 0; 0^(-2 beta) is never taken
        q[tail] = c2 * k[tail] ** (-2.0 * beta)
        return cls(q=q, alpha=alpha, beta=beta, c1=c1, c2=c2, k_star=k_star)

    def per_slot(self) -> np.ndarray:
        """Amplitudes expanded to the flat coefficient layout (2N+1,)."""
        return self.q[mode_numbers(self.n_modes)]

    def step_std(self, h: float) -> np.ndarray:
        """s_k(h) per coefficient slot; monotone in h with limit q_k/sqrt(2 l_k)."""
        if not (h > 0 and np.isfinite(h)):
            raise ValueError("step size must be positive and finite")
        ell = eigenvalues(self.n_modes)
        return self.per_slot() * np.sqrt(-np.expm1(-2.0 * ell * h) / (2.0 * ell))


def validate(spectrum: NoiseSpectrum) -> SpectrumViolation | None:
    """Return the first violated bound, or None if the spectrum is admissible.

    Checked in order: constant positivity, alpha floor, the beta window
    (strict lower end, closed upper end), nonnegativity everywhere, and the
    two-sided tail bounds for k > k_star.
    """
    s = spectrum
    if not np.isfinite(s.c1) or s.c1 <= 0:
        return SpectrumViolation("c1_positive", "c1 must be positive", value=float(s.c1))
    if not np.isfinite(s.c2) or s.c2 <= 0:
        return SpectrumViolation("c2_positive", "c2 must be positive", value=float(s.c2))
    if not np.isfinite(s.alpha) or s.alpha < 2.0:
        return SpectrumViolation("alpha_floor", "alpha must be at least 2", value=float(s.alpha))
    if not np.isfinite(s.beta) or not (s.alpha - 0.125 < s.beta <= s.alpha):
        return SpectrumViolation(
            "beta_window",
            "beta must lie in (alpha - 1/8, alpha]",
            value=float(s.beta),
        )
    if s.k_star < 0:
        return SpectrumViolation("k_star_sign", "k_star must be nonnegative", value=int(s.k_star))
    if not np.all(np.isfinite(s.q)):
        k = int(np.flatnonzero(~np.isfinite(s.q))[0])
        return SpectrumViolation("q_finite", "q_k must be finite", k=k, value=float(s.q[k]))
    neg = np.flatnonzero(s.q < 0)
    if neg.size:
        k = int(neg[0])
        return SpectrumViolation("q_nonnegative", "q_k must be nonnegative", k=k, value=float(s.q[k]))
    for k in range(s.k_star + 1, s.n_modes + 1):
        lo = s.c1 * float(k) ** (-2.0 * s.alpha)
        hi = s.c2 * float(k) ** (-2.0 * s.beta)
        if s.q[k] < lo * (1.0 - 1e-12):
            return SpectrumViolation(
                "tail_lower",
                "q_k must be at least c1 * k^(-2 alpha) for k > k_star",
                k=k,
                value=float(s.q[k]),
            )
        if s.q[k] > hi * (1.0 + 1e-12):
            return SpectrumViolation(
                "tail_upper",
                "q_k must be at most c2 * k^(-2 beta) for k > k_star",
                k=k,
                value=float(s.q[k]),
            )
    return None


def trajectory_generator(seed: int, trajectory_id: int) -> np.random.Generator:
    """SFC64 stream for one trajectory: child (trajectory_id,) of SeedSequence(seed).

    The id goes in spawn_key, not in the entropy: an entropy list [seed, id]
    is split into 32-bit words, so (1, 1 + 2^32) and (1 + 2^32, 1) would
    give one stream.
    """
    ss = np.random.SeedSequence(seed, spawn_key=(trajectory_id,))
    return np.random.Generator(np.random.SFC64(ss))


def sup_gaussian_check(
    spectrum: NoiseSpectrum,
    t: float,
    p: float = 1.0,
    h: float = 1.0 / 256.0,
    n_samples: int = 1000,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo estimate of E sup_{s <= t} ||W_L(s)||_inf^p.

    Runs the drift-free model from zero as an ensemble of trajectories
    0..n_samples-1 and takes integrator.window_sup over (0, t], the grid sup
    norm at every step (8 points per mode, at least 64 points).  The
    arguments must form valid SimulationParams: t >= 1, 1/h an integer, t a
    multiple of h and an admissible spectrum.  Returns (estimate, standard
    error).
    """
    from .integrator import SimulationParams, window_sup

    params = SimulationParams(
        n_modes=spectrum.n_modes, dt=h, t_final=t, poly=None, spectrum=spectrum, seed=seed
    )
    vals = window_sup(np.zeros(2 * spectrum.n_modes + 1), params, range(n_samples), 0.0, t) ** p
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_samples))
