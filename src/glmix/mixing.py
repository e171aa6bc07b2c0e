"""Ensemble statistics: uniform moments, law-distance proxies, and rate fitting.

The distance between laws of the field at a fixed time cannot be estimated
in the full state space, so every state is first projected to the observable
vector O(u) = (||u||_gamma, c0, a1, b1, a2, b2), once per report time.
Distances are histogram total-variation estimates between these observable
rows, weighted by V_{gamma,p}(u) = ||u||_gamma^p + 1 evaluated at bin
centers of the norm axis; the binning (32 equal-width bins per axis over
the pooled sample range) is deterministic given the samples, and the
bootstrap resamples observable rows.  The fitted decay rate is a
proxy: it witnesses that exponential decay happens, it does not reproduce
any particular constant.  Moment tables report per-initial-condition Monte
Carlo estimates together with an explicit uniformity verdict (pairwise
ratio threshold plus confidence-interval overlap) instead of assuming
uniformity silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import numpy.random

from .field import eigenvalues, fmt_float
from .integrator import SimulationParams, integer_times, run_ensemble

__all__ = [
    "EnsembleSpec",
    "MomentEntry",
    "UniformityVerdict",
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
# Records projected to observables at once by mixing_report.
_OBS_ROWS = 128


@dataclass
class EnsembleSpec:
    """Initial conditions, ensemble size, and the (gamma, p) weighting.

    gamma may not exceed the spectral decay exponent alpha of the noise, and
    p must be at least 1.  Trajectory ids are allocated deterministically:
    initial condition i owns the contiguous block [i n_traj, (i+1) n_traj).
    """

    initial_conditions: list
    n_traj: int
    params: SimulationParams
    gamma: float = 1.0
    p: float = 2.0

    def __post_init__(self):
        if not self.initial_conditions:
            raise ValueError("at least one initial condition is required")
        if self.n_traj < 2:
            raise ValueError("n_traj must be at least 2")
        if not self.gamma <= self.params.spectrum.alpha:  # NaN included
            raise ValueError("gamma must not exceed the noise decay exponent alpha")
        if not self.p >= 1.0:  # NaN included
            raise ValueError("p must be at least 1")

    def traj_ids(self, ic_index: int) -> np.ndarray:
        lo = ic_index * self.n_traj
        return np.arange(lo, lo + self.n_traj, dtype=np.int64)


def observables(states: np.ndarray, gamma: float) -> np.ndarray:
    """Project (n, slots) coefficient rows to (n, k) observable rows.

    The first column is ||u||_gamma; the rest are the first coefficients
    c0, a1, b1, a2, b2 (fewer if the field has fewer slots).
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    n_modes = (states.shape[1] - 1) // 2
    w = eigenvalues(n_modes) ** (2.0 * gamma)
    norms = np.sqrt(np.sum(w * states * states, axis=1))
    n_coeff = min(5, states.shape[1])
    return np.column_stack([norms, states[:, :n_coeff]])


def law_distance(
    obs_a: np.ndarray, obs_b: np.ndarray, p: float, weighted: bool = True
) -> float:
    """Weighted histogram total-variation proxy between two observable clouds.

    Both inputs are (n, k) observable rows (see observables) of states drawn
    at the same time.  Every axis is cut into 32 equal-width bins over the
    pooled range (one bin when the axis is constant).  The proxy is the sum
    over occupied cells of V(center) |p_A - p_B| with V = (norm-axis bin
    center)^p + 1, or V = 1 when weighted is False; it is symmetric,
    vanishes on identical samples, and is bounded by twice the largest V
    over the occupied range.
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
    v = 1.0
    if weighted:
        norm_bin = cells // _N_BINS ** (a.shape[1] - 1)
        v = (lo[0] + (norm_bin + 0.5) * width[0]) ** p + 1.0
    return float(np.sum(v * np.abs(pa - pb)))


# ---------------------------------------------------------------------------
# moment tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentEntry:
    ic_index: int
    t: float
    estimate: float
    stderr: float
    n_traj: int
    n_aborted: int


@dataclass(frozen=True)
class UniformityVerdict:
    """Uniformity of estimates across initial conditions, made explicit."""

    max_ratio: float
    ratio_ok: bool
    ci_overlap_ok: bool

    @property
    def uniform(self) -> bool:
        return self.ratio_ok and self.ci_overlap_ok


@dataclass(frozen=True)
class MomentTable:
    entries: tuple
    uniformity: UniformityVerdict


def _uniformity(estimates, stderrs) -> UniformityVerdict:
    """Largest pairwise ratio and pairwise interval overlap, in closed form.

    Estimates are >= 0, so the largest ratio is the largest estimate over
    the smallest, and intervals on a line overlap pairwise exactly when
    they share a point: the largest lower end is at most the smallest upper.
    """
    est = np.asarray(estimates, dtype=float)
    se = np.asarray(stderrs, dtype=float)
    big, small = float(est.max()), float(est.min())
    max_ratio = 1.0 if big <= 0.0 else math.inf if small <= 0.0 else big / small
    ci_ok = bool((est - _Z * se).max() <= (est + _Z * se).min())
    return UniformityVerdict(
        max_ratio=max_ratio, ratio_ok=max_ratio <= _RATIO_THRESHOLD, ci_overlap_ok=ci_ok
    )


def _mean_entry(ic_index, t, values: np.ndarray, n_traj: int) -> MomentEntry:
    kept = values[~np.isnan(values)]  # run_ensemble records an abort as NaN
    n_aborted = n_traj - kept.size
    if kept.size == 0:
        raise ValueError(f"all trajectories aborted for initial condition {ic_index}")
    with np.errstate(over="ignore"):
        est = float(kept.mean())
        se = float(kept.std(ddof=1) / math.sqrt(kept.size)) if kept.size > 1 else 0.0
    if not math.isfinite(est + se):
        raise ValueError(f"the p-th moment of initial condition {ic_index} overflows "
                         "in its mean or stderr")
    return MomentEntry(
        ic_index=ic_index, t=float(t), estimate=est, stderr=se,
        n_traj=n_traj, n_aborted=n_aborted,
    )


def _norm_power(states: np.ndarray, gamma: float, p: float) -> np.ndarray:
    """||x||_gamma^p of each record, NaN for an aborted one.  ValueError
    naming p when the p-th power of a finite record overflows, or that of a
    nonzero norm underflows to 0."""
    n_modes = (states.shape[-1] - 1) // 2
    w = eigenvalues(n_modes) ** (2.0 * gamma)
    with np.errstate(over="ignore"):
        sq = np.sum(w * states * states, axis=-1)
        vals = sq ** (p / 2.0)
    lost = ("overflows" if np.isinf(vals).any() else
            "underflows to 0" if ((vals == 0.0) & (sq > 0.0)).any() else None)
    if lost:
        raise ValueError(f"p = {fmt_float(p)}: the p-th power of a trajectory norm {lost}")
    return vals


def moment_bound(spec: EnsembleSpec, t: float, threads: int = 1) -> MomentTable:
    """Monte Carlo table of E ||Phi_t(x)||_gamma^p per initial condition.

    Runs one ensemble per initial condition, estimates the moment with its
    standard error (aborted trajectories are excluded and counted), and
    reports whether the estimates are uniform across initial conditions:
    pairwise ratios at most 2 and the 1.96-stderr confidence intervals
    pairwise overlapping.
    """
    if t <= 0.0 or t > spec.params.t_final + 1e-9:
        raise ValueError("t must lie in (0, t_final]")
    entries = []
    for i, ic in enumerate(spec.initial_conditions):
        ens = run_ensemble(
            ic, spec.params, spec.traj_ids(i), record_times=[t], threads=threads
        )
        vals = _norm_power(ens.states_at(t), spec.gamma, spec.p)
        entries.append(_mean_entry(i, t, vals, spec.n_traj))
    verdict = _uniformity([e.estimate for e in entries], [e.stderr for e in entries])
    return MomentTable(entries=tuple(entries), uniformity=verdict)


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
    floor: float


def _observable_rows(states: np.ndarray, gamma: float) -> list[np.ndarray]:
    """Observable rows of the finite (n_traj, n_times, slots) records, one
    array per time; none of them is a view of states.  Each time's rows are
    projected _OBS_ROWS at a time, which observables does row by row, so the
    temporaries stay small beside the records."""
    keep = np.all(np.isfinite(states), axis=-1)
    out = []
    for j in range(states.shape[1]):
        rows = np.flatnonzero(keep[:, j])
        out.append(np.concatenate([
            observables(states[rows[lo : lo + _OBS_ROWS], j], gamma)
            for lo in range(0, max(1, rows.size), _OBS_ROWS)
        ]))
    return out


def mixing_report(
    spec: EnsembleSpec,
    times=None,
    n_boot: int = 200,
    threads: int = 1,
) -> MixingReport:
    """Distance decay between the first two initial conditions of spec.

    Runs one ensemble for each of the first two initial conditions (later
    ones are not simulated).  Each ensemble's finite rows are projected to
    observables once per requested integer time as soon as it is stepped,
    so the first start's states are freed before the second steps.  From
    those rows it computes the weighted histogram distance at each time,
    estimates the statistical floor by half-splitting each ensemble
    (distance between same-law halves), fits the exponential rate above
    that floor, and attaches a trajectory bootstrap (n_boot resamples of
    row indices) confidence interval for the rate and a standard error for
    each distance.
    times = None means 1, 2, ..., floor(t_final).
    """
    if len(spec.initial_conditions) < 2:
        raise ValueError("mixing_report needs two initial conditions")
    params = spec.params
    if times is None:
        times = integer_times(params.t_final)[1:]
    times = np.asarray(times, dtype=float)
    if times.size < 4:
        raise ValueError("need at least 4 report times")

    # each start's states die with the _observable_rows call that projects them
    obs_a, obs_b = (
        _observable_rows(run_ensemble(
            ic, params, spec.traj_ids(i), record_times=times, threads=threads
        ).states, spec.gamma)
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
    boot_d = np.empty((n_boot, times.size))
    for b in range(n_boot):
        da = np.empty(times.size)
        for j in range(times.size):
            ia = rng.integers(0, obs_a[j].shape[0], obs_a[j].shape[0])
            ib = rng.integers(0, obs_b[j].shape[0], obs_b[j].shape[0])
            da[j] = law_distance(obs_a[j][ia], obs_b[j][ib], spec.p)
        boot_d[b] = da
        bfit = fit_rate(times, da, floor=floor)
        if bfit.identifiable:
            boot_lams.append(bfit.lam)
    distance_stderr = boot_d.std(axis=0, ddof=1) if n_boot > 1 else np.zeros(times.size)

    if fit.identifiable and len(boot_lams) >= max(10, n_boot // 2):
        lo, hi = np.percentile(boot_lams, [2.5, 97.5])
        fit = replace(fit, ci_low=float(lo), ci_high=float(hi), method="bootstrap")

    return MixingReport(
        times=times,
        distances=distances,
        distance_stderr=distance_stderr,
        fit=fit,
        floor=floor,
    )


def report_csv(report: MixingReport) -> str:
    """CSV body of the distance track: t, distance, stderr."""
    lines = ["t,distance,stderr"]
    for j in range(report.times.size):
        lines.append(
            f"{fmt_float(report.times[j])},{fmt_float(report.distances[j])},"
            f"{fmt_float(report.distance_stderr[j])}"
        )
    return "\n".join(lines) + "\n"


def report_summary(report: MixingReport) -> str:
    """Key = value summary block of the fitted decay."""
    fit = report.fit
    lines = [
        f"lambda = {fmt_float(fit.lam)}",
        f"lambda_ci_low = {fmt_float(fit.ci_low)}",
        f"lambda_ci_high = {fmt_float(fit.ci_high)}",
        f"C = {fmt_float(fit.intercept)}",
        f"floor = {fmt_float(report.floor)}",
        f"n_used = {fit.n_used}",
        f"identifiable = {int(fit.identifiable)}",
        f"ci_method = {fit.method}",
    ]
    return "\n".join(lines) + "\n"
