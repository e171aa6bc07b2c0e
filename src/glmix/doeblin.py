"""Exact minorization, coupling contraction, and drift certificates on finite state spaces.

Everything here manipulates finite row-stochastic kernels as plain matrices
and measures on their states as plain weight vectors, so every inequality a
certificate claims can be checked entry by entry.  The pieces fit together
as follows: a small-set certificate (K, m, delta, nu) asserts
P^m(x, .) >= delta nu for all x in K; when K is reached from everywhere in
one step with probability at least delta_prime, the two-step coupling
contracts total variation by 1 - delta delta_prime, which iterates into a
geometric convergence bound toward the invariant measure.  validate()
checks a certificate's claims entry by entry; the contraction factor and the
geometric gap are measurements whose bounds follow from them.  A constructive
search builds two-step certificates from the density threshold
sets S_x = {y : p(x, y) > 1/2}.  Total variation is normalized as the total
mass of the absolute value, so distinct Dirac measures sit at distance 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import SettingError, block_text, fmt_float, fmt_value

__all__ = [
    "FiniteKernel",
    "SmallSetCertificate",
    "minorization",
    "condition_b",
    "contraction_check",
    "geometric_bound_check",
    "invariant_measure",
    "search_weights",
    "small_set_search",
    "drift_condition_check",
    "read_kernel",
    "write_kernel",
    "certificate_text",
    "parse_certificate",
]

_TOL = 1e-12
# Steps k = 0.._GEOMETRIC_HORIZON over which geometric_bound_check measures.
_GEOMETRIC_HORIZON = 50


def _bad_row(rows: np.ndarray) -> tuple[int, str] | None:
    """(index, message) of the first row with a non-finite entry, else with a
    negative entry, else with a sum off 1 by more than 1e-12; None if none."""
    for bad, what in ((~np.isfinite(rows), "kernel entries must be finite"),
                      (rows < 0.0, "kernel entries must be nonnegative")):
        rows_hit = np.flatnonzero(bad.any(axis=1))
        if rows_hit.size:
            return int(rows_hit[0]), f"row {rows_hit[0]}: {what}"
    with np.errstate(over="ignore"):  # a row of huge entries sums to inf
        sums = rows.sum(axis=1)
    rows_hit = np.flatnonzero(np.abs(sums - 1.0) > _TOL)
    if rows_hit.size:
        i = int(rows_hit[0])
        return i, f"row {i} sums to {fmt_float(sums[i])}, not 1 within 1e-12"
    return None


class FiniteKernel:
    """Row-stochastic transition matrix on states 0..n-1, read-only."""

    def __init__(self, rows):
        rows = np.array(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] != rows.shape[1]:
            raise ValueError("kernel must be a square matrix")
        bad = _bad_row(rows)
        if bad is not None:
            raise ValueError(bad[1])
        rows.setflags(write=False)
        self.rows = rows
        self.n = rows.shape[0]
        self._powers: dict[int, np.ndarray] = {}

    def power(self, m: int) -> np.ndarray:
        """P^m by np.linalg.matrix_power, computed on first use for each m
        and kept read-only."""
        pm = self._powers.get(m)
        if pm is None:
            pm = np.linalg.matrix_power(self.rows, m)
            pm.setflags(write=False)
            self._powers[m] = pm
        return pm

    def __repr__(self):
        return f"FiniteKernel(n={self.n})"


def _as_state_tuple(k, n: int) -> tuple[int, ...]:
    states = tuple(sorted({int(x) for x in k}))
    if not states:
        raise SettingError("K", "state subset must be nonempty")
    if states[0] < 0 or states[-1] >= n:
        bad = states[0] if states[0] < 0 else states[-1]
        raise SettingError("K", f"state {bad} out of range 0..{n - 1}")
    return states


@dataclass(frozen=True)
class SmallSetCertificate:
    """Claim that P^m(x, .) >= delta nu(.) for every x in K.

    nu is a probability vector on the states, stored as a read-only float
    array.  delta_prime, when present, additionally claims
    min_x P(x, K) >= delta_prime.  Both claims are checked entry by entry by
    validate().
    """

    K: tuple[int, ...]
    m: int
    delta: float
    nu: np.ndarray
    delta_prime: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "K", tuple(int(x) for x in self.K))
        if len(set(self.K)) != len(self.K) or list(self.K) != sorted(self.K):
            raise ValueError("K must be sorted distinct state indices")
        if self.m < 1:
            raise ValueError("m must be a positive integer")
        if not (0.0 < self.delta <= 1.0 + 1e-9):
            raise ValueError("delta must lie in (0, 1]")
        nu = np.array(self.nu, dtype=float)
        if nu.ndim != 1:
            raise ValueError("nu must be a vector")
        if not np.all(nu >= 0.0):  # NaN included
            raise ValueError("nu must be nonnegative")
        with np.errstate(over="ignore"):  # huge weights sum to inf
            if not abs(nu.sum() - 1.0) <= 1e-9:
                raise ValueError("nu must be a probability measure")
        nu.setflags(write=False)
        object.__setattr__(self, "nu", nu)
        if self.delta_prime is not None and not (0.0 < self.delta_prime <= 1.0 + 1e-9):
            raise ValueError("delta_prime must lie in (0, 1]")

    def validate(self, kernel: FiniteKernel) -> None:
        """Check every claimed inequality against the kernel; raise on failure."""
        k = _as_state_tuple(self.K, kernel.n)
        if self.nu.size != kernel.n:
            raise ValueError("nu length does not match the kernel")
        pm = kernel.power(self.m)
        floor = self.delta * self.nu
        gap = pm[list(k), :] - floor[None, :]
        if gap.min() < -_TOL:
            i, j = np.unravel_index(np.argmin(gap), gap.shape)
            raise ValueError(
                f"minorization fails at x = {k[i]}, y = {j}: "
                f"P^{self.m}(x,y) = {fmt_float(pm[k[i], j])} < delta nu(y) = {fmt_float(floor[j])}"
            )
        if self.delta_prime is not None:
            hit = kernel.rows[:, list(k)].sum(axis=1)
            if hit.min() < self.delta_prime - _TOL:
                x = int(np.argmin(hit))
                raise ValueError(
                    f"return probability fails at x = {x}: "
                    f"P(x,K) = {fmt_float(hit[x])} < delta_prime = {fmt_float(self.delta_prime)}"
                )


def minorization(kernel: FiniteKernel, k, m: int) -> SmallSetCertificate | None:
    """Maximal minorization of P^m on K via column minima.

    Returns the certificate with delta = min(sum_y min_{x in K} P^m(x,y), 1)
    and nu the normalized column-minimum measure, or None when the sum is 0.
    The sum passes 1 only through P^m's rounding, within _bad_row's 1e-12;
    P^m >= delta nu still holds entry by entry.  No valid pair for this
    (K, m) can have a larger delta.  SettingError naming m if m < 1 or if
    P^m, whose row sums drift off 1 as m grows, fails _bad_row.
    """
    states = _as_state_tuple(k, kernel.n)
    if m < 1:
        raise SettingError("m", "m must be at least 1")
    with np.errstate(over="ignore", invalid="ignore"):
        pm = kernel.power(m)
    bad = _bad_row(pm)
    if bad is not None:
        raise SettingError("m", f"P^m in float64 is not a kernel: {bad[1]}")
    colmin = pm[list(states), :].min(axis=0)
    total = float(colmin.sum())
    if total <= 0.0:
        return None
    cert = SmallSetCertificate(K=states, m=m, delta=min(total, 1.0), nu=colmin / total)
    cert.validate(kernel)
    return cert


def condition_b(kernel: FiniteKernel, k) -> float:
    """Worst-case one-step probability of hitting K from any state."""
    states = _as_state_tuple(k, kernel.n)
    return float(kernel.rows[:, list(states)].sum(axis=1).min())


def contraction_check(kernel: FiniteKernel, cert: SmallSetCertificate) -> float:
    """Worst two-step total-variation ratio over Dirac pairs, a measurement.

    Requires a one-step certificate with delta_prime, and validates it.
    Dirac pairs are extremal for ||P^2 mu - P^2 nu|| / ||mu - nu||
    (Dobrushin's inequality).  The ratio is at most 1 - delta delta_prime:
    the validated P(z, .) >= delta nu on K and P(x, K) >= delta_prime give
    P^2(x, .) >= sum_{z in K} P(x, z) delta nu >= delta delta_prime nu for
    every x, so any two rows of P^2 share that much mass (the coupling
    inequality).
    """
    if cert.m != 1:
        raise ValueError("contraction check requires a one-step certificate")
    if cert.delta_prime is None:
        raise ValueError("contraction check requires delta_prime")
    cert.validate(kernel)
    p2 = kernel.power(2)
    worst = 0.0
    for x in range(kernel.n):
        diffs = p2[x + 1 :, :] - p2[x, :]
        if diffs.size:
            worst = max(worst, float(np.abs(diffs).sum(axis=1).max()) / 2.0)
    return worst


def invariant_measure(kernel: FiniteKernel) -> np.ndarray:
    """Exact stationary distribution of the kernel, as a weight vector.

    One SVD of P^T - I gives both the uniqueness check (exactly one
    singular value at zero; a kernel with more than one stationary
    distribution, such as the identity or a disconnected chain, is
    rejected) and the solution of mu P = mu: the right singular vector of
    that zero singular value, scaled to mass 1.
    """
    n = kernel.n
    _, svals, vt = np.linalg.svd(kernel.rows.T - np.eye(n))
    tol = max(n * np.finfo(float).eps * (svals[0] if svals.size else 1.0), 1e-12)
    if np.sum(svals <= tol) != 1:
        raise ValueError("stationary distribution is not unique")
    mu = vt[-1] / vt[-1].sum()
    mu = np.where(np.abs(mu) < 1e-15, 0.0, mu)
    mu = mu / mu.sum()
    residual = float(np.max(np.abs(mu @ kernel.rows - mu)))
    if residual > _TOL or np.any(mu < 0.0):
        raise RuntimeError(f"stationary solve residual {fmt_float(residual)} too large")
    return mu


def geometric_bound_check(kernel: FiniteKernel, cert: SmallSetCertificate) -> float | None:
    """Worst gap ||P^k(x, .) - mu_*|| - 2 (1 - delta delta_prime)^floor(k/2).

    Measured over every Dirac start x and every k <= 50 against the invariant
    measure mu_*, after validating the one-step certificate.  Iterating
    contraction_check's coupling against mu_* keeps the gap <= 0 up to
    rounding.  A 1 - delta delta_prime outside (0, 1) raises: it is 1 when
    the product is too small to change it, and the bound is then the trivial
    2.  None when float64 cannot resolve mu_*, which the certificate proves
    unique: invariant_measure rejects nearly closed classes.
    """
    if cert.m != 1 or cert.delta_prime is None:
        raise ValueError("geometric bound requires a one-step certificate with delta_prime")
    cert.validate(kernel)
    eps = cert.delta * cert.delta_prime
    if not (0.0 < 1.0 - eps < 1.0):
        raise ValueError("1 - delta delta_prime must lie in (0, 1)")
    try:
        mu_star = invariant_measure(kernel)
    except (ValueError, RuntimeError):
        return None
    q = np.eye(kernel.n)
    worst = -np.inf
    for k in range(_GEOMETRIC_HORIZON + 1):
        if k:
            q = q @ kernel.rows
        dists = np.abs(q - mu_star[None, :]).sum(axis=1)
        bound = 2.0 * (1.0 - eps) ** (k // 2)
        worst = max(worst, float(dists.max() - bound))
    return worst


def search_weights(kernel: FiniteKernel, mu0) -> np.ndarray:
    """mu0 as a float array if small_set_search takes it as its reference
    measure: one weight for each state of kernel, each positive and at most
    1, summing to 1 within 1e-9.  SettingError otherwise."""
    mu = np.asarray(mu0, dtype=float)
    if mu.shape != (kernel.n,):
        raise SettingError("mu0", f"mu0 has {mu.size} weights for a kernel on {kernel.n} states")
    if not np.all(mu > 0.0):  # NaN included
        raise SettingError("mu0", "mu0 must be strictly positive on all states")
    # a weight above 1 is rejected before the sum, which then cannot overflow
    if np.any(mu > 1.0) or not abs(mu.sum() - 1.0) <= 1e-9:
        raise SettingError("mu0", "mu0 must be a probability measure")
    return mu


def small_set_search(kernel: FiniteKernel, mu0) -> SmallSetCertificate | None:
    """Constructive two-step small set from the density threshold 1/2.

    With densities p(x,y) = P(x,y)/mu0(y) and S = {p > 1/2}, the search
    takes the S-path a -> b -> c with the largest delta = mu0(b) mu0(c) / 8
    and certifies K = {a}, m = 2, nu the Dirac mass at c: P^2(a, c) >=
    P(a, b) P(b, c) > mu0(b) mu0(c) / 4.  Ties go to the smallest a (the
    first state with an S-edge into b), then b, then c.  Every row has an
    S-edge, since a row with P <= mu0/2 everywhere would sum to at most 1/2,
    so a path always exists; None only when every delta underflows to 0.
    validate() checks the certificate entry by entry.  The middle state is
    not recorded: mu0(c) is the weight of nu's support, and the S-paths
    a -> b -> c with mu0(b) mu0(c) / 8 = delta are the ones that certify.
    """
    mu = search_weights(kernel, mu0)
    with np.errstate(over="ignore"):  # a subnormal weight gives inf, still > 1/2
        s = kernel.rows / mu[None, :] > 0.5
    # delta[b, c] when some a has an S-edge into b and S holds on (b, c), else 0
    delta = np.where(s.any(axis=0)[:, None] & s, mu[:, None] * mu[None, :] / 8.0, 0.0)
    best = delta.max()
    if best <= 0.0:
        return None
    b_top, c_top = np.nonzero(delta == best)  # ordered by b, then c
    a_top = s.argmax(axis=0)[b_top]
    i = int(np.argmin(a_top))
    a, c = int(a_top[i]), int(c_top[i])
    nu = np.zeros(kernel.n)
    nu[c] = 1.0
    cert = SmallSetCertificate(K=(a,), m=2, delta=float(best), nu=nu)
    cert.validate(kernel)
    return cert


def drift_condition_check(kernel: FiniteKernel, v, k, c: float, lam: float) -> list[int]:
    """Check (PV)(x) <= c V(x) off K and (PV)(x) <= Lambda on K.

    Returns the (sorted) list of violating states; an empty list means the
    drift condition holds exactly as stated.
    """
    if not (0.0 < c < 1.0):
        raise ValueError("c must lie in (0, 1)")
    if lam <= 0.0:
        raise ValueError("Lambda must be positive")
    v = np.asarray(v, dtype=float)
    if v.shape != (kernel.n,) or np.any(v < 1.0 - _TOL):
        raise ValueError("V must be >= 1 on every state")
    states = set(_as_state_tuple(k, kernel.n))
    pv = kernel.rows @ v
    bad = [
        x
        for x in range(kernel.n)
        if (pv[x] > lam + _TOL if x in states else pv[x] > c * v[x] + _TOL)
    ]
    return bad


# ---------------------------------------------------------------------------
# plain-text formats
# ---------------------------------------------------------------------------


def write_kernel(path, kernel: FiniteKernel) -> None:
    """Write a kernel as plain text: first line n, then n rows of n decimals."""
    with open(path, "w") as fh:
        fh.write("".join(fmt_value(v) + "\n" for v in (kernel.n, *kernel.rows)))


def read_kernel(path) -> FiniteKernel:
    """Read a kernel written by write_kernel.

    Blank lines are skipped.  A malformed state count, row count, row length
    or entry, and a row that is not a probability vector, raise ValueError
    naming the line in the file and what was expected there.
    """
    with open(path) as fh:
        lines = [(no, line) for no, line in enumerate(fh.read().split("\n"), start=1)
                 if line.strip()]
    if not lines:
        raise ValueError("empty kernel file")
    no, head = lines[0]
    try:
        n = int(head)
    except ValueError:
        raise ValueError(f"line {no}: expected the state count, got {head.strip()!r}") from None
    if n < 1:
        raise ValueError(f"line {no}: state count {n}, expected at least 1")
    if len(lines) > n + 1:
        raise ValueError(f"line {lines[n + 1][0]}: one row too many, expected {n} rows")
    if len(lines) < n + 1:
        raise ValueError(
            f"line {lines[-1][0] + 1}: file ends after {len(lines) - 1} rows, expected {n} rows"
        )
    rows = []
    for no, line in lines[1:]:
        tokens = line.split()
        if len(tokens) != n:
            raise ValueError(f"line {no}: row length {len(tokens)}, expected {n} entries")
        try:
            rows.append(np.array(tokens, dtype=float))
        except ValueError:
            raise ValueError(f"line {no}: expected {n} numbers, got {line.strip()!r}") from None
    rows = np.array(rows)
    bad = _bad_row(rows)
    if bad is not None:
        raise ValueError(f"line {lines[bad[0] + 1][0]}: {bad[1]}")
    return FiniteKernel(rows)


def certificate_text(cert: SmallSetCertificate) -> str:
    """Render a certificate as a key = value text block."""
    values = {"K": cert.K, "m": cert.m, "delta": cert.delta, "nu": cert.nu}
    if cert.delta_prime is not None:
        values["delta_prime"] = cert.delta_prime
    return block_text(values)


def parse_certificate(text: str) -> SmallSetCertificate:
    """Parse the key = value block written by certificate_text."""
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    missing = {"K", "m", "delta", "nu"} - fields.keys()
    if missing:
        raise ValueError(f"certificate block is missing {sorted(missing)}")
    return SmallSetCertificate(
        K=tuple(int(x) for x in fields["K"].split()),
        m=int(fields["m"]),
        delta=float(fields["delta"]),
        nu=[float(x) for x in fields["nu"].split()],
        delta_prime=float(fields["delta_prime"]) if "delta_prime" in fields else None,
    )
