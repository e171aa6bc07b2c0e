"""Degenerate diagonal noise: admissible spectra and per-trajectory streams.

The driving noise is Q dW with Q diagonal in the same H-orthonormal basis as
L: mode k (both cos and sin slots) carries the amplitude q_k.  The admissible
spectra have a free head and a polynomially pinched tail: for constants
c1, c2 > 0, alpha >= 2 and beta in (alpha - 1/8, alpha],

    c1 * k^(-2 alpha) <= q_k <= c2 * k^(-2 beta)     for k > k_star,

while q_k for k <= k_star (including the constant mode q_0) is only required
to be nonnegative and may vanish.  The default configuration forces no mode
below k = 4, so the low modes feel the noise only through the nonlinearity.
A NoiseSpectrum is admissible by construction: building any other raises
SettingError naming the first violated bound and the keys that set it.

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

from .field import SettingError, eigenvalues, mode_numbers

__all__ = ["NoiseSpectrum", "trajectory_generator"]


@dataclass(frozen=True)
class NoiseSpectrum:
    """Diagonal noise amplitudes q_0..q_N with tail-pinching constants,
    admissible by construction.  Every constant is the caller's: the run's
    defaults live in RunConfig.

    Building one checks, in order: n_modes >= 1, constant positivity, alpha
    floor, the beta window (strict lower end, closed upper end), k_star sign,
    finiteness and nonnegativity everywhere, and the two-sided tail bounds for
    k > k_star.  The first violated bound raises SettingError.
    """

    q: np.ndarray
    alpha: float
    beta: float
    c1: float
    c2: float
    k_star: int

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.ndim != 1:
            raise ValueError("q must be a 1-d array of amplitudes q_0..q_N")
        if q.size < 2:
            raise SettingError("n_modes", "n_modes must be at least 1")
        object.__setattr__(self, "q", q)
        if not np.isfinite(self.c1) or self.c1 <= 0:
            raise _inadmissible("c1", "c1_positive", "c1 must be positive", float(self.c1))
        if not np.isfinite(self.c2) or self.c2 <= 0:
            raise _inadmissible("c2", "c2_positive", "c2 must be positive", float(self.c2))
        if not np.isfinite(self.alpha) or self.alpha < 2.0:
            raise _inadmissible("alpha", "alpha_floor", "alpha must be at least 2",
                                float(self.alpha))
        if not np.isfinite(self.beta) or not (self.alpha - 0.125 < self.beta <= self.alpha):
            raise _inadmissible(("beta", "alpha"), "beta_window",
                                "beta must lie in (alpha - 1/8, alpha]", float(self.beta))
        if self.k_star < 0:
            raise _inadmissible("k_star", "k_star_sign", "k_star must be nonnegative",
                                int(self.k_star))
        if not np.all(np.isfinite(q)):
            k = int(np.flatnonzero(~np.isfinite(q))[0])
            raise _inadmissible((), "q_finite", "q_k must be finite", float(q[k]), k)
        neg = np.flatnonzero(q < 0)
        if neg.size:
            k = int(neg[0])
            raise _inadmissible((), "q_nonnegative", "q_k must be nonnegative", float(q[k]), k)
        for k in range(self.k_star + 1, q.size):  # c2 k^(-2 beta) is q_k unless overridden
            if q[k] < self.c1 * float(k) ** (-2.0 * self.alpha) * (1.0 - 1e-12):
                raise _inadmissible(("c1", "alpha", "c2", "beta"), "tail_lower",
                                    "q_k must be at least c1 * k^(-2 alpha) for k > k_star",
                                    float(q[k]), k)
            if q[k] > self.c2 * float(k) ** (-2.0 * self.beta) * (1.0 + 1e-12):
                raise _inadmissible(("c2", "beta"), "tail_upper",
                                    "q_k must be at most c2 * k^(-2 beta) for k > k_star",
                                    float(q[k]), k)

    @property
    def n_modes(self) -> int:
        return self.q.size - 1

    @classmethod
    def default(
        cls, n_modes: int, alpha: float, beta: float, c1: float, c2: float, k_star: int,
        overrides: dict,
    ) -> "NoiseSpectrum":
        """q_k = c2 * k^(-2 beta) for k > k_star, zero on k <= k_star, then
        q_k = overrides[k] for each k that overrides names.

        RunConfig.spectrum, the one caller, passes the run's constants; with
        its defaults this is q_k = k^-4 for k > 3.
        """
        try:
            k = np.arange(n_modes + 1, dtype=float)
            q = np.zeros(max(n_modes + 1, 0))  # empty below n_modes = 0, refused as such
        except (MemoryError, ValueError):  # ValueError: past numpy's index range
            raise SettingError("n_modes", f"n_modes = {n_modes} has more modes than memory "
                               "holds") from None
        tail = k > max(k_star, 0)  # __post_init__ refuses k_star < 0; 0^(-2 beta) is never taken
        # a beta that overflows the power lies below its window, which __post_init__ refuses
        with np.errstate(over="ignore", invalid="ignore"):
            q[tail] = c2 * k[tail] ** (-2.0 * beta)
        for kk, val in overrides.items():
            q[kk] = val
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


def _inadmissible(keys, rule: str, bound: str, value, k: int | None = None) -> SettingError:
    """The error naming a violated bound, one 'name = value' line each; its
    keys are those that set the bound, after q<k> for a bound on mode k."""
    lines = [f"violation = {rule}", f"bound = {bound}"]
    if k is not None:
        lines.append(f"k = {k}")
    lines.append(f"value = {value!r}")
    keys = keys if k is None else (f"q{k}", *keys)
    return SettingError(keys, "inadmissible noise spectrum:\n" + "\n".join(lines))


def trajectory_generator(seed: int, trajectory_id: int) -> np.random.Generator:
    """SFC64 stream for one trajectory: child (trajectory_id,) of SeedSequence(seed).

    The id goes in spawn_key, not in the entropy: an entropy list [seed, id]
    is split into 32-bit words, so (1, 1 + 2^32) and (1 + 2^32, 1) would
    give one stream.
    """
    ss = np.random.SeedSequence(seed, spawn_key=(trajectory_id,))
    return np.random.Generator(np.random.SFC64(ss))
