"""Ensemble statistics: uniform moments, law-distance proxies, and rate fitting.

The distance between laws of the field at a fixed time cannot be estimated
in the full state space, so every state is first projected to the observable
vector O(u) = (||u||_gamma, c0, a1, b1, a2, b2), once per report time, by
the ensemble block that steps it (run_ensemble's observe); a moment table's
blocks record one norm power per trajectory.
Distances are histogram total-variation estimates between these observable
rows, always weighted by V_{gamma,p}(u) = ||u||_gamma^p + 1 evaluated at
bin centers of the norm axis, as the paper's weighted variation norm is;
the binning (32 equal-width bins per axis over the pooled sample range) is
deterministic given the samples, and the bootstrap resamples observable
rows.  The fitted decay rate is a proxy: it witnesses that exponential
decay happens, it does not reproduce any particular constant.  A moment
table holds the Monte Carlo estimate at t_final, its standard error and
the aborted count as arrays with one entry per initial condition, together
with an explicit uniformity verdict (pairwise ratio threshold plus
confidence-interval overlap) instead of assuming uniformity silently.
The report times of a mixing run are the caller's: the CLI passes the
resolved times of its config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .field import SettingError, block_text, csv_text, eigenvalues, fmt_float, row_norms
from .integrator import SimulationParams, run_ensemble

__all__ = [
    "EnsembleSpec",
    "MomentTable",
    "RateFit",
    "MixingReport",
    "observables",
    "law_distance",
    "moment_bound",
    "fit_rate",
    "mixing_report",
    "report_csv",
    "report_summary",
]

_N_BINS = 32
# Uniformity verdict: estimates agree when every pairwise ratio is at most
# _RATIO_THRESHOLD and every pair of +-_Z stderr intervals overlaps.
_RATIO_THRESHOLD = 2.0
_Z = 1.96
# Rate fit window: points at or above _FIT_WINDOW times the floor, at least
# _FIT_MIN_POINTS of them.
_FIT_WINDOW = 4.0
_FIT_MIN_POINTS = 4


def check_weighting(gamma: float, p: float, params: SimulationParams) -> None:
    """SettingError unless gamma <= alpha, p >= 1 and gamma is below the bound
    under which row_norms sums 2N + 1 squares weighted at most l_N^(2 gamma)
    (rescaled to at most 1) with no overflow; l_N = 1 + 4 pi^2 N^2."""
    n, alpha = params.n_modes, params.spectrum.alpha
    log_l = 2.0 * math.log(n) + math.log(4.0 * math.pi**2 + 1 / n**2)
    if math.log(2 * n + 1) + 2.0 * gamma * log_l >= math.log(np.finfo(float).max):
        raise SettingError("gamma", f"gamma = {fmt_float(gamma)} makes the norm weight "
                           f"l_N^(2 gamma) of n_modes = {n} overflow")
    if not gamma <= alpha:  # NaN included
        raise SettingError("gamma", f"gamma = {fmt_float(gamma)} exceeds the noise decay "
                           f"exponent alpha = {fmt_float(alpha)}")
    if not p >= 1.0:  # NaN included
        raise SettingError("p", "p must be at least 1")


@dataclass
class EnsembleSpec:
    """Initial conditions, ensemble size, and the (gamma, p) weighting, all
    given by the caller (RunConfig holds the defaults).

    n_traj must be at least 2, and check_weighting vets gamma and p;
    resolve_config runs it too, so every subcommand refuses them.
    Trajectory ids are allocated deterministically: initial condition i owns
    the contiguous block [i n_traj, (i+1) n_traj); SettingError naming
    n_traj if a block is more than memory holds.
    """

    initial_conditions: list
    n_traj: int
    params: SimulationParams
    gamma: float
    p: float

    def __post_init__(self):
        if not self.initial_conditions:
            raise ValueError("at least one initial condition is required")
        if self.n_traj < 2:
            raise SettingError("n_traj", "n_traj must be at least 2")
        check_weighting(self.gamma, self.p, self.params)

    def traj_ids(self, ic_index: int) -> np.ndarray:
        lo = ic_index * self.n_traj
        try:
            ids = np.arange(lo, lo + self.n_traj, dtype=np.int64)
            if ids.size == self.n_traj:  # numpy makes none of 2^63 - 1
                return ids
        except (MemoryError, ValueError):  # ValueError: past numpy's index range
            pass
        raise SettingError("n_traj",
                           f"n_traj = {self.n_traj} has more trajectories than memory holds")


def observables(states: np.ndarray, gamma: float) -> np.ndarray:
    """Project (n, slots) coefficient rows to (n, k) observable rows.

    The first column is ||u||_gamma; the rest are the first coefficients
    c0, a1, b1, a2, b2 (fewer if the field has fewer slots).
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    n_coeff = min(5, states.shape[1])
    return np.column_stack([row_norms(states, gamma), states[:, :n_coeff]])


def law_distance(obs_a: np.ndarray, obs_b: np.ndarray, p: float) -> float:
    """Weighted histogram total-variation proxy between two observable clouds.

    Both inputs are (n, k) observable rows (see observables) of states drawn
    at the same time.  Every axis is cut into 32 equal-width bins over the
    pooled range (one bin when the axis is constant).  The proxy is the sum
    over occupied cells of V(center) |p_A - p_B| with V = (norm-axis bin
    center)^p + 1; it is symmetric, vanishes on identical samples, and is
    bounded by twice the largest V over the occupied range.  ValueError
    naming p if it overflows.
    """
    a = np.atleast_2d(np.asarray(obs_a, dtype=float))
    b = np.atleast_2d(np.asarray(obs_b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("ensembles must be nonempty")
    if a.shape[1] != b.shape[1]:
        raise ValueError("observable rows come from different mode counts")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("ensembles contain non-finite rows; drop aborted rows first")
    # one contiguous row per axis: column reductions of (n, k) rows are slow
    pooled = np.concatenate([a, b]).T.copy()
    lo = pooled.min(axis=1)
    width = (pooled.max(axis=1) - lo) / _N_BINS
    # a constant axis divides zeros by 1: every sample lands in its bin 0
    scale = np.where(width > 0.0, width, 1.0)
    bins = np.floor((pooled - lo[:, None]) / scale[:, None]).astype(np.int64)
    bins = np.clip(bins, 0, _N_BINS - 1)
    # cell key: the bins are the base-32 digits of an integer, axis 0 first
    keys = _N_BINS ** np.arange(a.shape[1] - 1, -1, -1) @ bins
    cells, inverse = np.unique(keys, return_inverse=True)
    pa = np.bincount(inverse[: a.shape[0]], minlength=cells.size) / a.shape[0]
    pb = np.bincount(inverse[a.shape[0] :], minlength=cells.size) / b.shape[0]
    norm_bin = cells // _N_BINS ** (a.shape[1] - 1)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf V times 0 is NaN
        v = (lo[0] + (norm_bin + 0.5) * width[0]) ** p + 1.0
        d = float(np.sum(v * np.abs(pa - pb)))
    if not math.isfinite(d):
        raise ValueError(f"p = {fmt_float(p)}: the distance weighted by V = norm^p + 1 overflows")
    return d


# ---------------------------------------------------------------------------
# moment tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentTable:
    """Per-start moment estimates at time t, one array entry per start in
    start order, and the verdict on their uniformity across starts."""

    t: float
    n_traj: int
    estimate: np.ndarray
    stderr: np.ndarray
    n_aborted: np.ndarray
    max_ratio: float
    ratio_ok: bool
    ci_overlap_ok: bool

    @property
    def uniform(self) -> bool:
        return self.ratio_ok and self.ci_overlap_ok


def _norm_power(states: np.ndarray, gamma: float, p: float) -> np.ndarray:
    """||x||_gamma^p of each coefficient row, NaN for an aborted (NaN) one.
    ValueError naming p when the p-th power of a finite row overflows, or
    that of a nonzero norm underflows to 0."""
    w = eigenvalues((states.shape[-1] - 1) // 2) ** (2.0 * gamma)
    with np.errstate(over="ignore"):
        sq = np.sum(w * states * states, axis=-1)
        vals = sq ** (p / 2.0)
        over = np.isinf(sq)  # the norm of such a row may still be finite
        vals[over] = row_norms(states[over], gamma) ** p
    lost = ("overflows" if np.isinf(vals).any() else
            "underflows to 0" if ((vals == 0.0) & (sq > 0.0)).any() else None)
    if lost:
        raise ValueError(f"p = {fmt_float(p)}: the p-th power of a trajectory norm {lost}")
    return vals


def moment_bound(spec: EnsembleSpec, threads: int = 1) -> MomentTable:
    """Monte Carlo table of E ||Phi_t(x)||_gamma^p per initial condition, at
    t = t_final of spec.params.

    Runs one ensemble per initial condition, whose blocks record the p-th
    power of each trajectory's norm, estimates the moment with its
    standard error (aborted trajectories are excluded and counted), and
    reports whether the estimates are uniform across initial conditions:
    pairwise ratios at most 2 and the 1.96-stderr confidence intervals
    pairwise overlapping.
    """
    t = spec.params.t_final
    n = len(spec.initial_conditions)
    est, se, n_aborted = np.empty(n), np.empty(n), np.empty(n, dtype=np.int64)
    for i, ic in enumerate(spec.initial_conditions):
        # a block's overflowing power raises its ValueError through the pool
        vals = run_ensemble(
            ic, spec.params, spec.traj_ids(i), record_times=[t], threads=threads,
            observe=lambda u: _norm_power(u, spec.gamma, spec.p)[:, None],
        ).states[:, 0, 0]
        kept = vals[~np.isnan(vals)]  # run_ensemble records an abort as NaN
        n_aborted[i] = spec.n_traj - kept.size
        if kept.size == 0:
            raise ValueError(f"all trajectories aborted for initial condition {i}")
        with np.errstate(over="ignore"):
            est[i] = kept.mean()
            se[i] = kept.std(ddof=1) / math.sqrt(kept.size) if kept.size > 1 else 0.0
            if not math.isfinite(est[i] + se[i]):
                raise ValueError(f"the p-th moment of initial condition {i} overflows "
                                 "in its mean or stderr")
    # Estimates are >= 0, so the largest pairwise ratio is the largest
    # estimate over the smallest, and intervals on a line overlap pairwise
    # exactly when they share a point: the largest lower end is at most the
    # smallest upper.
    big, small = float(est.max()), float(est.min())
    max_ratio = 1.0 if big <= 0.0 else math.inf if small <= 0.0 else big / small
    return MomentTable(
        t=float(t), n_traj=spec.n_traj, estimate=est, stderr=se, n_aborted=n_aborted,
        max_ratio=max_ratio, ratio_ok=max_ratio <= _RATIO_THRESHOLD,
        ci_overlap_ok=bool((est - _Z * se).max() <= (est + _Z * se).min()),
    )


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateFit:
    """Exponential fit d_t ~ C e^{-lambda t} over the above-floor window."""

    lam: float
    intercept: float
    ci_low: float
    ci_high: float
    n_used: int
    floor: float
    identifiable: bool
    method: str = "ols"


def fit_rate(times, distances, floor: float) -> RateFit:
    """Least-squares exponential rate on the points clearly above the floor.

    Only points with distance >= 4 * floor enter the log-linear fit.  Fewer
    than 4 usable points (for example when the distances sit at the floor)
    yields an unidentifiable result rather than a rate; fewer than 4 points
    in all is an error.  The confidence interval is the OLS two-sided 95%
    interval from the fit residuals; pipeline callers replace it by a
    bootstrap interval.
    """
    t = np.asarray(times, dtype=float)
    d = np.asarray(distances, dtype=float)
    if t.shape != d.shape or t.size < _FIT_MIN_POINTS:
        raise ValueError(f"need at least {_FIT_MIN_POINTS} (time, distance) pairs")
    if np.any(~np.isfinite(d)) or np.any(d < 0.0):
        raise ValueError("distances must be finite and nonnegative")
    floor = float(floor)
    mask = d >= _FIT_WINDOW * max(floor, 0.0)
    mask &= d > 0.0
    if np.count_nonzero(mask) < _FIT_MIN_POINTS:
        return RateFit(
            lam=math.nan, intercept=math.nan, ci_low=math.nan, ci_high=math.nan,
            n_used=int(np.count_nonzero(mask)), floor=floor, identifiable=False,
        )
    tt = t[mask]
    y = np.log(d[mask])
    a = np.column_stack([np.ones_like(tt), -tt])
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    log_c, lam = float(coef[0]), float(coef[1])
    resid = y - a @ coef
    dof = max(tt.size - 2, 1)
    s2 = float(resid @ resid) / dof
    se = math.sqrt(s2 / float(np.sum((tt - tt.mean()) ** 2)))
    return RateFit(
        lam=lam, intercept=math.exp(log_c),
        ci_low=lam - 1.96 * se, ci_high=lam + 1.96 * se,
        n_used=int(tt.size), floor=floor, identifiable=True,
    )


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


@dataclass
class MixingReport:
    """Distances between two evolving ensembles and their decay fit."""

    times: np.ndarray
    distances: np.ndarray
    distance_stderr: np.ndarray
    fit: RateFit


def mixing_report(spec: EnsembleSpec, times, n_boot: int, threads: int = 1) -> MixingReport:
    """Distance decay between the first two initial conditions of spec.

    Runs one ensemble for each of the first two initial conditions (later
    ones are not simulated), whose blocks record observable rows; each time
    keeps those whose norm is not NaN.  A live row is finite, an aborted one
    all NaN, and row_norms is NaN exactly when its row holds a NaN, so a
    finite row whose norm overflows is kept for law_distance to refuse.
    From those rows it computes the weighted histogram distance at each
    time, estimates the statistical floor by half-splitting each ensemble
    (distance between same-law halves), fits the exponential rate above
    that floor, and attaches a trajectory bootstrap (n_boot resamples of
    row indices) confidence interval for the rate and a standard error for
    each distance; ValueError naming p if a square in that error overflows,
    and SettingError before any step if n_boot is negative or past memory.
    """
    if len(spec.initial_conditions) < 2:
        raise SettingError(("ic1", "ic2"), "mixing needs two initial conditions, ic1 and ic2")
    params = spec.params
    times = np.asarray(times, dtype=float)
    if times.size < 4:
        raise SettingError(("times", "t_final"), "need at least 4 report times")
    if n_boot < 0:
        raise SettingError("n_boot", "n_boot must be at least 0")
    try:  # before any step
        boot_d = np.empty((n_boot, times.size))
    except (MemoryError, ValueError):  # ValueError: past numpy's index range
        raise SettingError("n_boot", f"n_boot = {n_boot} makes a bootstrap table larger "
                           "than memory holds") from None

    def kept(records):  # per time, the records whose norm is not NaN
        return [records[~np.isnan(records[:, j, 0]), j] for j in range(times.size)]

    # each start's records die with its kept call; observables is looked up
    # at each call, so a patched one is called
    obs_a, obs_b = (
        kept(run_ensemble(ic, params, spec.traj_ids(i), record_times=times, threads=threads,
                          observe=lambda u: observables(u, spec.gamma)).states)
        for i, ic in enumerate(spec.initial_conditions[:2])
    )
    for j, t in enumerate(times):
        if obs_a[j].shape[0] < 2 or obs_b[j].shape[0] < 2:
            raise ValueError(f"too many aborted trajectories at t = {t}")

    distances = np.array(
        [law_distance(obs_a[j], obs_b[j], spec.p) for j in range(times.size)]
    )

    # statistical floor: same-law half-split distances, median over times.
    # Two per time make an even count; the middle pair's mean equals
    # np.median bitwise, which would import numpy.ma on every call.
    floors = []
    for j in range(times.size):
        for side in (obs_a[j], obs_b[j]):
            half = side.shape[0] // 2
            floors.append(law_distance(side[:half], side[half:], spec.p))
    floors = np.sort(floors)
    k = floors.size // 2
    floor = float(0.5 * (floors[k - 1] + floors[k]))

    fit = fit_rate(times, distances, floor=floor)

    # trajectory bootstrap: resample observable rows, ia then ib per (b, j)
    rng = np.random.default_rng([params.seed, 0xB007])
    boot_lams = []
    for b in range(n_boot):
        for j in range(times.size):
            ia = rng.integers(0, obs_a[j].shape[0], obs_a[j].shape[0])
            ib = rng.integers(0, obs_b[j].shape[0], obs_b[j].shape[0])
            boot_d[b, j] = law_distance(obs_a[j][ia], obs_b[j][ib], spec.p)
        bfit = fit_rate(times, boot_d[b], floor=floor)
        if bfit.identifiable:
            boot_lams.append(bfit.lam)
    with np.errstate(over="ignore"):
        distance_stderr = boot_d.std(axis=0, ddof=1) if n_boot > 1 else np.zeros(times.size)
    if np.isinf(distance_stderr).any():
        raise ValueError(f"p = {fmt_float(spec.p)}: the square in a distance's bootstrap "
                         "stderr overflows")

    if fit.identifiable and len(boot_lams) >= max(10, n_boot // 2):
        lo, hi = np.percentile(boot_lams, [2.5, 97.5])
        fit = replace(fit, ci_low=float(lo), ci_high=float(hi), method="bootstrap")

    return MixingReport(
        times=times,
        distances=distances,
        distance_stderr=distance_stderr,
        fit=fit,
    )


def report_csv(report: MixingReport) -> str:
    """CSV body of the distance track: t, distance, stderr."""
    return csv_text(["t", "distance", "stderr"],
                    zip(report.times, report.distances, report.distance_stderr))


def report_summary(report: MixingReport) -> str:
    """Key = value summary block of the fitted decay."""
    fit = report.fit
    return block_text({
        "lambda": fit.lam, "lambda_ci_low": fit.ci_low, "lambda_ci_high": fit.ci_high,
        "C": fit.intercept, "floor": fit.floor, "n_used": fit.n_used,
        "identifiable": fit.identifiable, "ci_method": fit.method,
    })
