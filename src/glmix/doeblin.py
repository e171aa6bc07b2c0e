"""Exact minorization, coupling contraction, and drift certificates on finite state spaces.

Everything here manipulates finite row-stochastic kernels as plain matrices,
so every inequality a certificate claims can be checked entry by entry.  The
pieces fit together as follows: a small-set certificate (K, m, delta, nu)
asserts P^m(x, .) >= delta nu for all x in K; when K is reached from
everywhere in one step with probability at least delta_prime, the two-step
coupling contracts total variation by 1 - delta delta_prime, which iterates
into a geometric convergence bound toward the invariant measure.  A
constructive search builds two-step certificates from the density threshold
sets S_x = {y : p(x, y) > 1/2}, optionally through a coarse partition, and a
composition rule extends a certificate on an accessible set A to any set C
that reaches A.  Total variation is normalized as the total mass of the
absolute value, so distinct Dirac measures sit at distance 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.random

__all__ = [
    "FiniteKernel",
    "WeightedMeasure",
    "SmallSetCertificate",
    "minorization",
    "condition_b",
    "contraction_check",
    "geometric_bound_check",
    "invariant_measure",
    "search_weights",
    "small_set_search",
    "two_small_compose",
    "drift_condition_check",
    "ball_partition",
    "read_kernel",
    "write_kernel",
    "certificate_text",
    "parse_certificate",
]

_TOL = 1e-12
_EPS = np.finfo(float).eps


def _bad_row(rows: np.ndarray) -> tuple[int, str] | None:
    """(index, message) of the first row with a non-finite entry, else with a
    negative entry, else with a sum off 1 by more than 1e-12; None if none."""
    for bad, what in ((~np.isfinite(rows), "kernel entries must be finite"),
                      (rows < 0.0, "kernel entries must be nonnegative")):
        rows_hit = np.flatnonzero(bad.any(axis=1))
        if rows_hit.size:
            return int(rows_hit[0]), f"row {rows_hit[0]}: {what}"
    sums = rows.sum(axis=1)
    rows_hit = np.flatnonzero(np.abs(sums - 1.0) > _TOL)
    if rows_hit.size:
        i = int(rows_hit[0])
        return i, f"row {i} sums to {float(sums[i])!r}, not 1 within 1e-12"
    return None


class FiniteKernel:
    """Row-stochastic transition matrix on states 0..n-1."""

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

    def power(self, m: int) -> np.ndarray:
        if m < 0:
            raise ValueError("power must be nonnegative")
        return np.linalg.matrix_power(self.rows, m)

    def __repr__(self):
        return f"FiniteKernel(n={self.n})"


@dataclass(frozen=True)
class WeightedMeasure:
    """Nonnegative measure on 0..n-1."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1:
            raise ValueError("weights must be a vector")
        if not np.all(np.isfinite(w)) or np.any(w < 0.0):
            raise ValueError("weights must be finite and nonnegative")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.size

    @property
    def mass(self) -> float:
        return float(self.weights.sum())

    @property
    def is_probability(self) -> bool:
        return abs(self.mass - 1.0) <= 1e-9


def _as_state_tuple(k, n: int) -> tuple[int, ...]:
    states = tuple(sorted({int(x) for x in k}))
    if not states:
        raise ValueError("state subset must be nonempty")
    if states[0] < 0 or states[-1] >= n:
        raise ValueError("state subset out of range")
    return states


@dataclass(frozen=True)
class SmallSetCertificate:
    """Claim that P^m(x, .) >= delta nu(.) for every x in K.

    delta_prime, when present, additionally claims min_x P(x, K) >= delta_prime.
    Both claims are checked entry by entry by validate().  v_cell_mass and
    e_mass are provenance from the constructive search (the mu0 masses of the
    middle cell and of the support of nu); they are informational only and do
    not appear in the emitted text block.
    """

    K: tuple[int, ...]
    m: int
    delta: float
    nu: WeightedMeasure
    delta_prime: float | None = None
    v_cell_mass: float | None = None
    e_mass: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "K", tuple(int(x) for x in self.K))
        if len(set(self.K)) != len(self.K) or list(self.K) != sorted(self.K):
            raise ValueError("K must be sorted distinct state indices")
        if self.m < 1:
            raise ValueError("m must be a positive integer")
        if not (0.0 < self.delta <= 1.0 + 1e-9):
            raise ValueError("delta must lie in (0, 1]")
        if not self.nu.is_probability:
            raise ValueError("nu must be a probability measure")
        if self.delta_prime is not None and not (0.0 < self.delta_prime <= 1.0 + 1e-9):
            raise ValueError("delta_prime must lie in (0, 1]")

    def validate(self, kernel: FiniteKernel, tol: float = _TOL) -> None:
        """Check every claimed inequality against the kernel; raise on failure."""
        k = _as_state_tuple(self.K, kernel.n)
        if self.nu.n != kernel.n:
            raise ValueError("nu length does not match the kernel")
        pm = kernel.power(self.m)
        floor = self.delta * self.nu.weights
        gap = pm[list(k), :] - floor[None, :]
        if gap.min() < -tol:
            i, j = np.unravel_index(np.argmin(gap), gap.shape)
            raise ValueError(
                f"minorization fails at x = {k[i]}, y = {j}: "
                f"P^{self.m}(x,y) = {pm[k[i], j]!r} < delta nu(y) = {floor[j]!r}"
            )
        if self.delta_prime is not None:
            hit = kernel.rows[:, list(k)].sum(axis=1)
            if hit.min() < self.delta_prime - tol:
                x = int(np.argmin(hit))
                raise ValueError(
                    f"return probability fails at x = {x}: "
                    f"P(x,K) = {hit[x]!r} < delta_prime = {self.delta_prime!r}"
                )


def minorization(kernel: FiniteKernel, k, m: int) -> SmallSetCertificate | None:
    """Maximal minorization of P^m on K via column minima.

    Returns the certificate with delta = sum_y min_{x in K} P^m(x,y) and nu
    the normalized column-minimum measure, or None when delta = 0.  No valid
    pair for this (K, m) can have a larger delta.
    """
    states = _as_state_tuple(k, kernel.n)
    if m < 1:
        raise ValueError("m must be a positive integer")
    pm = kernel.power(m)
    colmin = pm[list(states), :].min(axis=0)
    delta = float(colmin.sum())
    if delta <= 0.0:
        return None
    cert = SmallSetCertificate(
        K=states, m=m, delta=delta, nu=WeightedMeasure(colmin / delta)
    )
    cert.validate(kernel)
    return cert


def condition_b(kernel: FiniteKernel, k) -> float:
    """Worst-case one-step probability of hitting K from any state."""
    states = _as_state_tuple(k, kernel.n)
    return float(kernel.rows[:, list(states)].sum(axis=1).min())


def contraction_check(
    kernel: FiniteKernel,
    cert: SmallSetCertificate,
    n_random: int = 1000,
    seed: int = 0,
) -> float:
    """Verify the two-step total-variation contraction implied by (delta, delta_prime).

    Requires a one-step certificate carrying delta_prime.  Checks that
    (P^2 mu)(y) >= delta delta_prime nu(y) for every state y and Dirac mu,
    then that the worst ratio ||P^2 mu - P^2 nu|| / ||mu - nu|| over all
    Dirac pairs is at most 1 - delta delta_prime, and that no random measure
    pair beats the Dirac pairs (they are extremal for this coefficient).  The
    n_random pairs are drawn as one (n_random, 2, n) array and pushed through
    P^2 in one product; the error names the first offending pair in draw
    order.  Returns the worst observed ratio.
    """
    if cert.m != 1:
        raise ValueError("contraction check requires a one-step certificate")
    if cert.delta_prime is None:
        raise ValueError("contraction check requires delta_prime")
    cert.validate(kernel)
    eps = cert.delta * cert.delta_prime
    p2 = kernel.rows @ kernel.rows

    floor = eps * cert.nu.weights
    gap = p2 - floor[None, :]
    if gap.min() < -_TOL:
        x, y = np.unravel_index(np.argmin(gap), gap.shape)
        raise ValueError(
            f"two-step floor fails at x = {x}, y = {y}: "
            f"P^2(x,y) = {p2[x, y]!r} < {floor[y]!r}"
        )

    worst = 0.0
    for x in range(kernel.n):
        diffs = p2[x + 1 :, :] - p2[x, :]
        if diffs.size:
            worst = max(worst, float(np.abs(diffs).sum(axis=1).max()) / 2.0)

    pairs = np.random.default_rng(seed).random((n_random, 2, kernel.n))
    pairs /= pairs.sum(axis=2, keepdims=True)
    diffs = pairs[:, 0] - pairs[:, 1]
    base = np.abs(diffs).sum(axis=1)
    kept = base >= 1e-12
    ratios = np.abs(diffs[kept] @ p2).sum(axis=1) / base[kept]
    beats = np.flatnonzero(ratios > worst + _TOL)
    if beats.size:
        raise ValueError(
            f"random pair beats Dirac pairs: ratio {float(ratios[beats[0]])!r} > {worst!r}"
        )

    if worst > 1.0 - eps + _TOL:
        raise ValueError(
            f"contraction factor {worst!r} exceeds 1 - delta delta_prime = {1.0 - eps!r}"
        )
    return worst


def invariant_measure(kernel: FiniteKernel) -> WeightedMeasure:
    """Exact stationary distribution of the kernel.

    Solves mu P = mu with the mass constraint and checks uniqueness through
    the singular values of P^T - I; a kernel with more than one stationary
    distribution (identity, disconnected chains) is rejected.
    """
    n = kernel.n
    a = kernel.rows.T - np.eye(n)
    svals = np.linalg.svd(a, compute_uv=False)
    tol = max(n * np.finfo(float).eps * (svals[0] if svals.size else 1.0), 1e-12)
    if np.sum(svals <= tol) != 1:
        raise ValueError("stationary distribution is not unique")
    system = np.vstack([a, np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    mu, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    mu = np.where(np.abs(mu) < 1e-15, 0.0, mu)
    mu = mu / mu.sum()
    residual = float(np.max(np.abs(mu @ kernel.rows - mu)))
    if residual > _TOL or np.any(mu < 0.0):
        raise RuntimeError(f"stationary solve residual {residual!r} too large")
    return WeightedMeasure(mu)


def geometric_bound_check(
    kernel: FiniteKernel, cert: SmallSetCertificate, n: int
) -> float:
    """Check ||P^k mu - mu_*|| <= 2 (1 - delta delta_prime)^floor(k/2).

    Verifies the bound for every Dirac start and every horizon k <= n against
    the exact invariant measure.  Returns the worst gap (distance minus
    bound), which must be <= 1e-9; positive beyond that raises.
    """
    if cert.m != 1 or cert.delta_prime is None:
        raise ValueError("geometric bound requires a one-step certificate with delta_prime")
    cert.validate(kernel)
    eps = cert.delta * cert.delta_prime
    if not (0.0 < eps < 1.0):
        raise ValueError("delta delta_prime must lie in (0, 1)")
    mu_star = invariant_measure(kernel).weights
    q = np.eye(kernel.n)
    worst = -np.inf
    for k in range(n + 1):
        if k:
            q = q @ kernel.rows
        dists = np.abs(q - mu_star[None, :]).sum(axis=1)
        bound = 2.0 * (1.0 - eps) ** (k // 2)
        worst = max(worst, float(dists.max() - bound))
    if worst > 1e-9:
        raise ValueError(f"geometric bound violated by {worst!r}")
    return worst


def _check_partition(partition, n: int) -> list[np.ndarray]:
    cells = [np.asarray(sorted(int(x) for x in cell), dtype=int) for cell in partition]
    seen = np.concatenate(cells) if cells else np.array([], dtype=int)
    if sorted(seen.tolist()) != list(range(n)):
        raise ValueError("cells must partition the state space")
    if any(cell.size == 0 for cell in cells):
        raise ValueError("cells must be nonempty")
    return cells


def search_weights(kernel: FiniteKernel, mu0) -> np.ndarray:
    """The weights of mu0 (a WeightedMeasure or an array) if small_set_search
    takes them: one for each state of kernel, each positive, summing to 1
    within 1e-9.  ValueError otherwise."""
    mu = mu0.weights if isinstance(mu0, WeightedMeasure) else np.asarray(mu0, dtype=float)
    if mu.shape != (kernel.n,):
        raise ValueError(f"mu0 has {mu.size} weights for a kernel on {kernel.n} states")
    if not np.all(mu > 0.0):  # NaN included
        raise ValueError("mu0 must be strictly positive on all states")
    if not abs(mu.sum() - 1.0) <= 1e-9:
        raise ValueError("mu0 must be a probability measure")
    return mu


def small_set_search(
    kernel: FiniteKernel, mu0, partition=None
) -> SmallSetCertificate | None:
    """Constructive two-step small set from the density threshold 1/2.

    With densities p(x,y) = P(x,y)/mu0(y), the set S^2 = {p > 1/2} is scanned
    for a cell triple (U, V, W) of the partition (singletons by default) such
    that S^2 covers at least 7/8 of U x V and of V x W in mu0 x mu0 mass.
    The certificate is then K = D = {x in U : mu0(S_x cap V) >= 3/4 mu0(V)},
    m = 2, nu = mu0 restricted to E = {z in W : mu0(S_z* cap V) >= 3/4 mu0(V)}
    and normalized, delta = mu0(V) mu0(E) / 8.  None when no triple passes
    the covering thresholds at this refinement.

    D depends only on (U, V) and E, delta only on (V, W), so the scan is a
    few products of the cell-indicator matrix with S^2 and mu0: a (V, W)
    matrix of delta, and for each V the first U that covers it and has a
    nonempty D.  The winner has the largest delta; ties go to the smallest
    U index, then V, then W.  Its D, E and delta are then recounted state
    by state.
    """
    mu = search_weights(kernel, mu0)
    cells = (
        [np.array([i]) for i in range(kernel.n)]
        if partition is None
        else _check_partition(partition, kernel.n)
    )
    s2 = kernel.rows / mu[None, :] > 0.5

    cell_mass = np.array([mu[c].sum() for c in cells])
    cell_of = np.empty(kernel.n, dtype=int)
    for j, cell in enumerate(cells):
        cell_of[cell] = j
    ind = np.eye(len(cells))[cell_of]  # ind[x, j] = 1 when x lies in cell j
    sizes = np.bincount(cell_of)

    # The products sum each mu0 mass in another order than a scan over one
    # cell pair would.  A sum of k nonnegative terms moves by at most about
    # k eps relative between two orders, so only entries that close to their
    # threshold are summed again the scan's way, where a partition can put
    # them exactly on it.
    def near(fast, floor, terms):
        return np.abs(fast - floor) <= 4.0 * terms * _EPS * np.maximum(fast, floor)

    def sx_in_v(b):  # mu0(S_x cap V) for every state x, V the cell b
        return (s2[:, cells[b]] * mu[cells[b]][None, :]).sum(axis=1)

    def sz_in_v(b, c):  # mu0(S*_z cap V) for z in the cell c
        return (s2[np.ix_(cells[b], cells[c])] * mu[cells[b]][:, None]).sum(axis=0)

    w = s2 * mu[None, :]  # w[x, y] = mu0(y) on S^2, else 0
    cover = ind.T @ (mu[:, None] * w) @ ind
    pair_floor = 0.875 * cell_mass[:, None] * cell_mass[None, :]
    good = cover >= pair_floor
    for a, b in np.argwhere(near(cover, pair_floor, sizes[:, None] * sizes[None, :])):
        block = s2[np.ix_(cells[a], cells[b])]
        scan = (mu[cells[a]][:, None] * mu[cells[b]][None, :] * block).sum()
        good[a, b] = scan >= pair_floor[a, b]
    three_q = 0.75 * cell_mass
    d_sum = w @ ind  # [x, b]
    in_d = d_sum >= three_q[None, :]
    for b in np.flatnonzero(near(d_sum, three_q[None, :], sizes[None, :]).any(axis=0)):
        in_d[:, b] = sx_in_v(b) >= three_q[b]
    e_sum = ind.T @ (mu[:, None] * s2)  # [b, z]
    in_e = e_sum >= three_q[:, None]
    for b, c in {(b, cell_of[z]) for b, z in
                 np.argwhere(near(e_sum, three_q[:, None], sizes[:, None]))}:
        in_e[b, cells[c]] = sz_in_v(b, c) >= three_q[b]

    ab = good & (ind.T @ in_d > 0.0)  # U covers V and has a nonempty D
    bc = ab.any(axis=0)[:, None] & good
    e_mass = (in_e * mu[None, :]) @ ind  # [b, c]; exact when the cell c is one state
    delta_bc = np.where(bc & (e_mass > 0.0), cell_mass[:, None] * e_mass / 8.0, -np.inf)
    if not np.isfinite(delta_bc).any():
        return None
    top = delta_bc.max() * (1.0 - 8.0 * sizes.max() * _EPS)
    for b, c in np.argwhere((delta_bc >= top) & (sizes > 1)[None, :]):
        delta_bc[b, c] = cell_mass[b] * float(mu[cells[c][in_e[b, cells[c]]]].sum()) / 8.0
    b_top, c_top = np.nonzero(delta_bc == delta_bc.max())  # ordered by b, then c
    a_top = ab.argmax(axis=0)[b_top]
    i = int(np.argmin(a_top))
    a, b, c = int(a_top[i]), int(b_top[i]), int(c_top[i])

    v_mass = cell_mass[b]
    d_states = cells[a][sx_in_v(b)[cells[a]] >= 0.75 * v_mass]
    e_states = cells[c][sz_in_v(b, c) >= 0.75 * v_mass]
    e_mass = float(mu[e_states].sum())
    delta = v_mass * e_mass / 8.0
    # the density-level two-step bound behind the certificate must hold with
    # the advertised constant before the measure-level claim is even formed
    p2 = (kernel.rows @ kernel.rows) / mu[None, :]
    dens_min = float(p2[np.ix_(d_states, e_states)].min())
    if dens_min < v_mass / 8.0 - _TOL:
        raise AssertionError(
            f"two-step density minimum {dens_min!r} under the provable bound"
        )
    nu_w = np.zeros(kernel.n)
    nu_w[e_states] = mu[e_states] / e_mass
    cert = SmallSetCertificate(
        K=tuple(int(x) for x in d_states), m=2, delta=float(delta),
        nu=WeightedMeasure(nu_w), v_cell_mass=float(v_mass), e_mass=e_mass,
    )
    cert.validate(kernel)
    return cert


def two_small_compose(
    kernel: FiniteKernel, cert_a: SmallSetCertificate, c
) -> SmallSetCertificate | None:
    """Extend a certificate on an accessible set A to a set C reaching A.

    P^{m+1}(x, .) >= P(x, A) delta nu for x in C, so C gets an (m+1)-step
    certificate with delta scaled by min_{x in C} P(x, A); None when some
    state of C cannot reach A in one step.
    """
    cert_a.validate(kernel)
    c_states = _as_state_tuple(c, kernel.n)
    reach = float(kernel.rows[np.ix_(c_states, cert_a.K)].sum(axis=1).min())
    if reach <= 0.0:
        return None
    cert = SmallSetCertificate(
        K=c_states, m=cert_a.m + 1, delta=cert_a.delta * reach, nu=cert_a.nu
    )
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


def ball_partition(dist, centers, radius: float) -> list[list[int]]:
    """Partition generated by the metric balls B(center, radius).

    Two states share a cell exactly when they belong to the same set of
    balls; cells are ordered by their smallest member.  This is the finite
    realization of refining a space by balls around chosen centers.
    """
    dist = np.asarray(dist, dtype=float)
    n = dist.shape[0]
    if dist.shape != (n, n):
        raise ValueError("dist must be a square matrix")
    signatures = {}
    for x in range(n):
        sig = tuple(bool(dist[int(c), x] <= radius) for c in centers)
        signatures.setdefault(sig, []).append(x)
    return sorted(signatures.values(), key=lambda cell: cell[0])


# ---------------------------------------------------------------------------
# plain-text formats
# ---------------------------------------------------------------------------


def write_kernel(path, kernel: FiniteKernel) -> None:
    """Write a kernel as plain text: first line n, then n rows of n decimals."""
    lines = [str(kernel.n)]
    for row in kernel.rows:
        lines.append(" ".join(repr(float(x)) for x in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


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
    lines = [
        "K = " + " ".join(str(x) for x in cert.K),
        f"m = {cert.m}",
        f"delta = {cert.delta!r}",
        "nu = " + " ".join(repr(float(w)) for w in cert.nu.weights),
    ]
    if cert.delta_prime is not None:
        lines.append(f"delta_prime = {cert.delta_prime!r}")
    return "\n".join(lines) + "\n"


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
        nu=WeightedMeasure(np.array([float(x) for x in fields["nu"].split()])),
        delta_prime=float(fields["delta_prime"]) if "delta_prime" in fields else None,
    )
