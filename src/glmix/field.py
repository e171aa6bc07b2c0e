"""Spectral fields on the periodic unit interval.

State space is the periodic Sobolev space H = W^{1,2}_per([0,1]) with the
inner product <u,v> = int_0^1 (u v + u' v') dxi.  The reference operator is
L = 1 - d^2/dxi^2, whose eigenfunctions are the trigonometric modes.  In the
H-orthonormal basis

    e_0(xi) = 1,
    e_k^cos(xi) = sqrt(2/l_k) cos(2 pi k xi),
    e_k^sin(xi) = sqrt(2/l_k) sin(2 pi k xi),      l_k = 1 + 4 pi^2 k^2,

L is diagonal with eigenvalue l_k on both members of the mode-k pair.  A field
is a plain float array of its coefficients

    [c_0, a_1, b_1, a_2, b_2, ..., a_N, b_N]        (length 2N + 1)

so that ||u||^2 = c_0^2 + sum_k (a_k^2 + b_k^2) and the fractional norms are
||u||_gamma = ||L^gamma u|| = sqrt(sum l_k^{2 gamma} coeff^2).  The functions
that take a single field read N from its length; the grid transforms act on
the last axis of a stack of fields and are given N.

Grid synthesis and analysis go through numpy's real FFTs and take optional
output and work arrays, so a caller stepping many times can reuse its
buffers.  Polynomial nonlinearities are evaluated pseudospectrally on a
padded grid of at least (q+1)N+1 points, rounded up to the next 5-smooth
length (dealias_points): a degree-q product has bandwidth qN, and on M
points mode k' aliases onto k' - M, which for k' <= qN lands below -N
whenever M > (q+1)N.  Truncation back to N modes therefore equals the exact
coefficient convolution (Orszag's rule for products of degree q), although
the aliased modes above N are wrong.

The module also holds the one rule for writing a value, fmt_value: a truth
value as 0 or 1, an integer in digits, a float as the shortest text that
reads back as the same float (fmt_float), a string as itself, a sequence
space-separated.  csv_text and block_text render every CSV table and
key = value block a run writes or prints with it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "DriftPolynomial",
    "eigenvalues",
    "norm_gamma",
    "scaled_random_field",
]


class SettingError(ValueError):
    """A refused value, set by config key `key` or by the first key of a tuple a file sets."""

    def __init__(self, key, message: str):
        super().__init__(message)
        self.key = key


@lru_cache(maxsize=None)
def mode_numbers(n_modes: int) -> np.ndarray:
    """Mode number k of each coefficient slot: [0, 1, 1, 2, 2, ...]."""
    k = np.zeros(2 * n_modes + 1, dtype=np.int64)
    k[1::2] = np.arange(1, n_modes + 1)
    k[2::2] = np.arange(1, n_modes + 1)
    k.setflags(write=False)
    return k


@lru_cache(maxsize=None)
def eigenvalues(n_modes: int) -> np.ndarray:
    """Per-slot eigenvalues l_k = 1 + 4 pi^2 k^2 of L = 1 - d^2/dxi^2."""
    ell = 1.0 + 4.0 * np.pi**2 * mode_numbers(n_modes).astype(float) ** 2
    ell.setflags(write=False)
    return ell


class DriftPolynomial:
    """Odd-degree polynomial P with positive leading coefficient.

    Coefficients are given lowest order first, p_0 .. p_q.  The damping term
    of the model enters as -P(u); oddness and p_q > 0 make it dissipative for
    large amplitudes.
    """

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        if c.ndim != 1 or c.size < 4:
            raise SettingError("poly", "need coefficients p_0..p_q with degree q >= 3")
        if not np.all(np.isfinite(c)):
            raise SettingError("poly", "coefficients must be finite")
        if c[-1] <= 0.0:
            raise SettingError("poly", "leading coefficient must be positive")
        degree = c.size - 1
        if degree % 2 == 0:
            raise SettingError("poly", f"degree must be odd, got {degree}")
        self.coeffs = c
        self.degree = degree
        self._reaction = -c  # coefficients of y - P(y)
        self._reaction[1] += 1.0

    def nonlinearity(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """N(y) = y - P(y) pointwise, by Horner in place on out (not y).

        Zero coefficients of y - P(y) cost no pass: the cubic [0, -1, 0, 1]
        takes four, ((-y) y + 2) y.  out is allocated when None.
        """
        r = self._reaction
        out = np.multiply(y, r[-1], out=out)
        for c in r[-2:0:-1]:
            if c != 0.0:
                out += c
            out *= y
        if r[0] != 0.0:
            out += r[0]
        return out

    def __repr__(self):
        return f"DriftPolynomial({list(self.coeffs)})"


# Fixed generator key so presets are stable across runs and user seeds.
_PRESET_KEY = np.array([0x5CA1ED0000000001, 0], dtype=np.uint64)


def scaled_random_field(n_modes: int, target_norm: float, gamma: float = 1.0) -> np.ndarray:
    """Deterministic standard-normal coefficient draw scaled to ||x||_gamma.

    The draw uses a fixed internal key, so the preset is a function of
    (n_modes, target_norm, gamma) only.  target_norm = 0 returns the zero
    field.  Every coefficient is at most target_norm in size, since
    |c_i| <= ||c||_gamma, so a finite target gives a finite field.
    """
    if target_norm < 0:
        raise ValueError("target_norm must be nonnegative")
    if target_norm == 0.0:
        return np.zeros(2 * n_modes + 1)
    gen = np.random.Generator(np.random.Philox(key=_PRESET_KEY))
    raw = gen.standard_normal(2 * n_modes + 1)
    return raw * (target_norm / norm_gamma(raw, gamma))


def norm_gamma(u: np.ndarray, gamma: float) -> float:
    """||u||_gamma = ||L^gamma u|| = sqrt(sum l_k^{2 gamma} coeff^2).

    u holds the 2N + 1 coefficients of a field; N is read from its length.
    """
    u = np.asarray(u, dtype=float)
    ell = eigenvalues(u.size // 2)
    return float(np.sqrt(np.sum(ell ** (2.0 * gamma) * u**2)))


def row_norms(states: np.ndarray, gamma: float) -> np.ndarray:
    """||u||_gamma of each coefficient row on the last axis of states.

    A row with a NaN has norm NaN.  A row whose sum of squares overflows is
    summed again scaled by its largest |c|, so its norm is inf only when the
    norm itself is beyond float max.
    """
    w = eigenvalues((states.shape[-1] - 1) // 2) ** (2.0 * gamma)
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.sum(w * states * states, axis=-1))
        over = np.isinf(norms)
        if over.any():
            scale = np.abs(states[over]).max(axis=-1)
            rows = states[over] / scale[:, None]
            norms[over] = scale * np.sqrt(np.sum(w * rows * rows, axis=-1))
    return norms


# ---------------------------------------------------------------------------
# grid transforms
#
# Both directions act on raw coefficient arrays along the last axis, so the
# integrator can push whole ensembles through one FFT call.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _bin_scales(n_modes: int, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Slot factors from [a_1, b_1, a_2, ...] to the (re, im) pairs of rfft
    bins 1..n_modes on n_points points, and back.

    Bin k is (n_points / 2) sqrt(2 / l_k) (a_k - i b_k), sqrt(2 / l_k) the
    physical amplitude of the basis vectors e_k^cos and e_k^sin.
    """
    sign = np.tile([1.0, -1.0], n_modes)
    synthesis = 0.5 * n_points * np.sqrt(2.0 / eigenvalues(n_modes)[1:]) * sign
    analysis = 1.0 / synthesis
    synthesis.setflags(write=False)
    analysis.setflags(write=False)
    return synthesis, analysis


def _check_grid(n_points: int, n_modes: int) -> None:
    if n_points < 2 * n_modes + 1:
        raise ValueError(
            f"grid of {n_points} points is too small for {n_modes} modes "
            f"(need at least {2 * n_modes + 1})"
        )


def coeffs_to_values(
    coeffs: np.ndarray,
    n_modes: int,
    n_points: int,
    out: np.ndarray | None = None,
    spectrum: np.ndarray | None = None,
) -> np.ndarray:
    """Synthesize point values on the uniform n_points grid (exact).

    coeffs has shape (..., 2*n_modes+1); requires n_points >= 2*n_modes+1 so
    no mode is lost or aliased.  The values go to out (shape (..., n_points))
    and the half spectrum is built in spectrum (complex, shape
    (..., n_points // 2 + 1)); each is allocated when None.
    """
    _check_grid(n_points, n_modes)
    coeffs = np.asarray(coeffs, dtype=float)
    if spectrum is None:
        spectrum = np.empty(coeffs.shape[:-1] + (n_points // 2 + 1,), dtype=complex)
    synthesis, _ = _bin_scales(n_modes, n_points)
    spectrum[..., 0] = coeffs[..., 0] * n_points
    np.multiply(coeffs[..., 1:], synthesis, out=spectrum[..., 1 : n_modes + 1].view(float))
    spectrum[..., n_modes + 1 :] = 0.0
    return np.fft.irfft(spectrum, n=n_points, axis=-1, out=out)


def values_to_coeffs(
    values: np.ndarray,
    n_modes: int,
    out: np.ndarray | None = None,
    spectrum: np.ndarray | None = None,
) -> np.ndarray:
    """Analyze grid values back to coefficients, truncating to n_modes.

    Exact for trigonometric polynomials of bandwidth <= (n_points - 1) / 2.
    The coefficients go to out (shape (..., 2*n_modes+1)) and the half
    spectrum to spectrum (complex, shape (..., n_points // 2 + 1)); each is
    allocated when None.
    """
    values = np.asarray(values, dtype=float)
    n_points = values.shape[-1]
    _check_grid(n_points, n_modes)
    spectrum = np.fft.rfft(values, axis=-1, out=spectrum)
    if out is None:
        out = np.empty(values.shape[:-1] + (2 * n_modes + 1,))
    _, analysis = _bin_scales(n_modes, n_points)
    np.divide(spectrum.real[..., 0], n_points, out=out[..., 0])
    np.multiply(spectrum[..., 1 : n_modes + 1].view(float), analysis, out=out[..., 1:])
    return out


@lru_cache(maxsize=None)
def dealias_points(n_modes: int, degree: int) -> int:
    """Grid size on which modes 0..N of a degree-q product come out exact.

    The product has bandwidth q*N.  Only modes up to N are kept, and on M
    points a product mode k' aliases onto k' - M (or k' + M), which misses
    [-N, N] for every |k'| <= q*N once M >= (q+1)*N + 1.  Rounded up to the
    next 5-smooth length (prime factors 2, 3 and 5 only), which the FFTs
    handle fastest.
    """
    m = max((degree + 1) * n_modes + 1, 4)
    while True:
        r = m
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


SUP_POINTS_PER_MODE = 8  # sup-norm grid density; the grid has at least 64 points


def sup_points(n_modes: int) -> int:
    """Size of the sup-norm grid: max(8 N, 64) points."""
    return max(SUP_POINTS_PER_MODE * n_modes, 64)


def sup_norm_values(coeffs: np.ndarray, n_modes: int) -> np.ndarray:
    """Grid sup norm over the last axis of a coefficient array.

    The grid has sup_points(N) = max(8 N, 64) points (SUP_POINTS_PER_MODE =
    8).  A grid maximum is a lower bound on the true sup norm; at 8 points
    per shortest wavelength it is within a fraction of a percent for generic
    fields and exact for pure unshifted cosine modes.
    """
    vals = coeffs_to_values(coeffs, n_modes, sup_points(n_modes))
    return np.max(np.abs(vals), axis=-1)


def fmt_float(x: float) -> str:
    """Shortest text that reads back as the same float."""
    return repr(float(x))


def fmt_value(v) -> str:
    """The one rule for a written value: a truth value as 0 or 1, an integer
    in digits, a float by fmt_float, a string as itself, and any other
    sequence as its values space-separated.  numpy scalars count as theirs."""
    if isinstance(v, (bool, np.bool_)):  # before int: a bool is an int
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return fmt_float(v)
    if isinstance(v, str):
        return v
    return " ".join(map(fmt_value, v))


def csv_text(names, rows) -> str:
    """CSV text: the names line, then one line of fmt_value cells per row."""
    return "".join(",".join(map(fmt_value, row)) + "\n" for row in (names, *rows))


def block_text(values: dict, sep: str = "\n") -> str:
    """'key = value' text of a dict, each value by fmt_value, joined by sep
    and ended by a newline."""
    return sep.join(f"{k} = {fmt_value(v)}" for k, v in values.items()) + "\n"
