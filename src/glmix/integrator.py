"""Exponential Euler integration of the stochastic Ginzburg-Landau dynamics.

The model, written against the reference operator L = 1 - d^2/dxi^2, is

    du = (-L u + N(u)) dt + Q dW,      N(u) = u - P(u),

which is exactly du = (d^2 u/dxi^2 - P(u)) dt + Q dW.  One step of size h of
the scheme applies the linear flow and the noise exactly and the nonlinearity
to first order:

    u' = e^{-Lh} u + phi(h) N(u) + xi,      phi(h) = (1 - e^{-l_k h}) / l_k,

with xi the exact stochastic-convolution increment, of standard deviation
NoiseSpectrum.step_std(h) per slot.  With N == 0 the scheme is exact in
distribution, and it is the recursion of the convolution path W_L.

ExponentialEulerStepper is the stepper of one block of rows: the per-slot
factors of one step and, with a polynomial, the grid arrays its N(u) is
computed in.  One block loop, a closure inside run_ensemble that takes only
its slice of the rows, makes a stepper for its block and advances it through
batched FFTs; it only steps, guards and records.  W_L is the drift-free run
from zero on the same trajectory id, replace(params, poly=None,
blowup_guard=inf): it is driven by the same draws as the model, so the
remainder Psi = Phi - W_L satisfies Psi' = e^{-Lh} Psi + phi(h) N(Psi + W_L)
to rounding error, step by step.
Each block allocates its stepper and a slab of normal draws once, fills the
slab in place, scales each step's spent draws in place and updates its state
in place, so a step allocates no block-sized array.  It records only
run_ensemble's observe of its rows: the coefficients for simulate, the
observables for mixing, a norm power for moments.  Like its stepper, a
block's slab is sized from the block alone: at most _SLAB_BYTES (8 MB), which
the block fills with the fewest slabs of one length, whatever the worker
count.  Each trajectory consumes its own stream (noise.trajectory_generator),
so results do not depend on block sizes, slab lengths, worker counts or
thread schedules.  A row aborts at the first step
after which its squared norm, one einsum pass, is NaN or above guard *
guard.  A square that overflows passes that test only when guard * guard
overflows too (a guard above sqrt(float max), or inf for none); then the
row's norm decides, and a NaN, inf or above-guard norm aborts.  An aborted
row is set to NaN and stays NaN, and a block stops stepping once all its
rows have.  EnsembleResult.abort_times is the one abort record: each block
writes the abort times of its rows into its slice of it, and a row lives
while its entry is NaN; EnsembleResult.aborted is read off it.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from .field import (
    DriftPolynomial,
    SettingError,
    coeffs_to_values,
    dealias_points,
    eigenvalues,
    fmt_float,
    row_norms,
    sup_norm_values,
    sup_points,
    values_to_coeffs,
)
from .noise import NoiseSpectrum, trajectory_generator

__all__ = [
    "SimulationParams",
    "EnsembleResult",
    "ExponentialEulerStepper",
    "run_ensemble",
    "ensemble_workers",
    "BLOCK_ROWS",
    "integer_times",
    "OdeComparison",
    "ode_comparison",
    "write_trajectory_csv",
]


# the smallest guard whose square does not underflow
_GUARD_MIN = math.sqrt(np.finfo(float).tiny)


def _grid_step(t: float, dt: float) -> int | None:
    """The step of the dt grid within 1e-9 of time t, or None if none is."""
    steps = t / dt
    if not math.isfinite(steps):
        return None
    n = round(steps)
    return n if abs(n * dt - t) <= 1e-9 else None


@dataclass
class SimulationParams:
    """Resolved model and discretization parameters, every one given by the
    caller (RunConfig.params holds the defaults); n_modes is the spectrum's.

    dt must divide 1 exactly in the rational sense (so integer times fall
    on the step grid), t_final must be finite, at least 1 and on the grid,
    its step n_steps = t_final / dt must fit in int64, seed must lie in
    [0, 2^64) (it seeds the per-trajectory streams) and blowup_guard must be
    at least sqrt(smallest normal float) ~ 1.49e-154, so that its square
    does not underflow; inf means no guard.  Each refusal is a SettingError.
    poly = None selects the pure Ornstein-Uhlenbeck dynamics N == 0.
    """

    spectrum: NoiseSpectrum
    dt: float
    t_final: float
    poly: DriftPolynomial | None
    seed: int
    blowup_guard: float
    n_steps: int = dataclass_field(init=False)  # t_final / dt

    @property
    def n_modes(self) -> int:
        return self.spectrum.n_modes

    def __post_init__(self):
        if not math.isfinite(self.t_final):
            raise SettingError("t_final", "t_final must be finite")
        if self.t_final < 1.0:
            raise SettingError("t_final", "t_final must be at least 1")
        if not (0.0 < self.dt <= 1.0):
            raise SettingError("dt", "dt must lie in (0, 1]")
        if self.t_final / self.dt >= 2**63:
            raise SettingError(("dt", "t_final"),
                               f"dt = {fmt_float(self.dt)} makes more steps than int64 holds")
        if _grid_step(1.0, self.dt) is None:
            raise SettingError("dt", "dt must divide 1 exactly (1/dt integer)")
        self.n_steps = _grid_step(self.t_final, self.dt)
        if self.n_steps is None:
            raise SettingError(("t_final", "dt"), "t_final must be a multiple of dt")
        if not self.blowup_guard > 0:  # NaN included
            raise SettingError("blowup_guard", "blowup_guard must be positive")
        if self.blowup_guard < _GUARD_MIN:
            raise SettingError("blowup_guard", f"blowup_guard = {fmt_float(self.blowup_guard)} "
                               f"is below {fmt_float(_GUARD_MIN)} = sqrt(smallest normal "
                               "float), so its square underflows")
        if not 0 <= self.seed < 2**64:
            raise SettingError("seed", "seed must lie in [0, 2^64)")


class ExponentialEulerStepper:
    """The stepper of one block of coefficient rows, of shape lead + (slots,):
    the per-slot factors of one step and, with a polynomial, the block's work
    arrays for N(u).  Each block makes its own, so no two threads share one."""

    def __init__(self, params: SimulationParams, lead: tuple[int, ...] = ()):
        self.params = params
        self.n_modes = params.n_modes
        ell = eigenvalues(self.n_modes)
        self.phi = -np.expm1(-ell * params.dt) / ell
        self.decay = np.exp(-ell * params.dt)
        self.std = params.spectrum.step_std(params.dt)
        self.poly = params.poly
        guard = float(params.blowup_guard)  # a Python float squares to inf with no warning
        self.guard_sq = guard * guard  # inf above sqrt(float max)
        if self.poly is not None:
            self.grid_points = dealias_points(self.n_modes, self.poly.degree)
            grid = (*lead, self.grid_points)
            self.values = np.empty(grid)  # grid values of u
            self.reaction = np.empty(grid)  # grid values of N(u)
            # coefficients of N(u): the flat head of reaction, dead after its rfft
            slots = math.prod(lead) * (2 * self.n_modes + 1)
            self.nonlin = self.reaction.reshape(-1)[:slots].reshape(*lead, -1)
            self.half_spectrum = np.empty((*lead, self.grid_points // 2 + 1), dtype=complex)

    def nonlinearity(self, u: np.ndarray) -> np.ndarray:
        """Coefficients of N(u) = u - P(u), dealiased, for a u of the stepper's
        shape, written to self.nonlin."""
        vals = coeffs_to_values(
            u, self.n_modes, self.grid_points, out=self.values, spectrum=self.half_spectrum
        )
        self.poly.nonlinearity(vals, out=self.reaction)
        return values_to_coeffs(
            self.reaction, self.n_modes, out=self.nonlin, spectrum=self.half_spectrum
        )

    def step_block(self, u: np.ndarray, g: np.ndarray) -> None:
        """Advance the block u in place with unit normals g, scaled in place:
        u <- decay u + phi N(u) + std g, summed in that order."""
        if self.poly is None:
            u *= self.decay
        else:
            nonlin = self.nonlinearity(u)
            nonlin *= self.phi
            u *= self.decay
            u += nonlin
        g *= self.std
        u += g

    def blown_up(self, u: np.ndarray) -> np.ndarray:
        """Guard mask of the rows whose squared norm, np.einsum("ij,ij->i",
        u, u), is NaN or above guard_sq; where that square overflows (only
        possible when guard_sq is inf), of the rows whose norm is NaN, inf or
        above the guard."""
        sq = np.einsum("ij,ij->i", u, u)
        blown = ~(sq <= self.guard_sq)
        if self.guard_sq == math.inf:  # an overflowing square may be within the guard
            over = sq == math.inf
            if over.any():
                with np.errstate(invalid="ignore"):  # an inf entry divides inf by inf
                    norm = row_norms(u[over], 0.0)
                blown[over] = ~(norm <= self.params.blowup_guard) | (norm == math.inf)
        return blown


@dataclass
class EnsembleResult:
    """Integer-time records for a batch of trajectories from one start point.

    A record is run_ensemble's observe of a coefficient row (the row itself
    by default).  abort_times is the only abort record; aborted is computed
    from it.
    """

    params: SimulationParams
    traj_ids: np.ndarray
    times: np.ndarray
    states: np.ndarray  # (n_traj, n_times, k) records, NaN at and after abort
    abort_times: np.ndarray  # (n_traj,) time the guard tripped, NaN for a row that never aborted

    @property
    def n_traj(self) -> int:
        return self.states.shape[0]

    @property
    def aborted(self) -> np.ndarray:
        """(n_traj,) bool, a new array: the rows with an abort time."""
        return ~np.isnan(self.abort_times)


def integer_times(t_final: float) -> np.ndarray:
    """The integer times 0, 1, ..., floor(t_final) as floats; t_final is
    finite, as SimulationParams requires."""
    n = int(math.floor(t_final + 1e-9)) + 1
    try:
        times = np.arange(n, dtype=float)
        if times.size == n:  # numpy makes none of 2^63 + 1
            return times
    except (MemoryError, ValueError):  # ValueError: past numpy's index range
        pass
    raise SettingError("t_final",
                       f"t_final = {fmt_float(t_final)} has more integer times than memory holds")


def record_steps(times, params: SimulationParams) -> dict[int, int]:
    """Step of the grid -> index in times of each record time.  SettingError
    naming times unless each falls on its own step in 0..n_steps."""
    steps: dict[int, int] = {}
    for i, t in enumerate(times):
        n = _grid_step(float(t), params.dt)
        if n is None or not 0 <= n <= params.n_steps:
            where = (f"which is not on the grid of dt = {fmt_float(params.dt)}" if n is None
                     else f"outside 0..t_final = {fmt_float(params.t_final)}")
            raise SettingError("times", f"times lists {fmt_float(t)}, {where}")
        if n in steps:
            raise SettingError("times", f"times lists {fmt_float(times[steps[n]])} and "
                               f"{fmt_float(t)}, both on step {n} of the grid")
        steps[n] = i
    return steps


def ensemble_workers(threads: int) -> int:
    """Thread-pool size of run_ensemble: max(1, min(threads, cores)), cores
    being those this process may use."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:  # no affinity query on this platform
        cores = os.cpu_count() or 1
    return max(1, min(threads, cores))


# run_ensemble's rows per block
BLOCK_ROWS = 512

# Each block draws its normals in slabs of at most 256 steps and 8 MB (at
# least one step), and splits its steps into the fewest such slabs, all of one
# length, so a run holds one slab per worker.  A 512 x 65 block draws its 256
# steps in 9 slabs of 29 (7.7 MB) on any worker count; at 16 MB it would draw
# 5 of 52 (13.8 MB) for under 2% less time.  Smaller slabs cost more time,
# since each slab takes one standard_normal call per row and each call
# releases and retakes the GIL: 4 MB per block raised the mixing-cubic
# benchmark's wall time by about 12%.
_SLAB_BYTES = 8 << 20

# write_trajectory_csv's transient arrays for one group of trajectories
_GROUP_BYTES = 1 << 20


def run_ensemble(
    x: np.ndarray,
    params: SimulationParams,
    traj_ids,
    record_times=None,
    threads: int = 1,
    observe=None,
) -> EnsembleResult:
    """Integrate an ensemble from one initial condition.

    x holds the 2 n_modes + 1 coefficients of the start.  traj_ids are the
    per-trajectory stream ids (distinct ids give independent noise under the
    same seed).  Each record time must fall on its own step (record_steps);
    no step is taken after the last, so only the guard tripping by then
    aborts a row.  observe maps a block's (n, 2 n_modes + 1) coefficient
    rows to its (n, k) records, row by row and a NaN row to a NaN row, at
    each record step, so states is (n_traj, n_times, k); None records the
    rows themselves.  k is read from observe of a NaN row, so the start is
    observed only where time 0 is recorded.  Rows run in slices of
    BLOCK_ROWS, read at call time, and one closure steps a slice with a
    stepper of its own: it writes the slice's records into states and its
    abort times into abort_times, its live rows being those still NaN there.
    Results are bitwise independent of the block size and threads because
    every trajectory owns its stream and rows are written by index.
    The blocks run on a pool of min(ensemble_workers(threads), blocks)
    workers, and each block draws its normals in equal slabs of at most
    _SLAB_BYTES, so the slabs alive at once fit in workers * _SLAB_BYTES.
    """
    coeffs = np.asarray(x, dtype=float)
    n_slots = 2 * params.n_modes + 1
    if coeffs.shape != (n_slots,):
        raise ValueError("initial condition length does not match n_modes")
    ids = np.asarray(traj_ids, dtype=np.int64)
    if record_times is None:
        record_times = integer_times(params.t_final)
    else:
        record_times = np.asarray(record_times, dtype=float)
    rec_steps = record_steps(record_times, params)
    if observe is None:
        observe = lambda u: u  # the coefficient rows themselves
    n_cols = observe(np.full((1, n_slots), np.nan)).shape[-1]

    shape = (ids.size, record_times.size, n_cols)
    try:
        states = np.full(shape, np.nan)
    except MemoryError:
        raise SettingError(("n_traj", "t_final", "times"), f"records of {shape[0]} trajectories "
                           f"at {shape[1]} times up to t_final = {fmt_float(params.t_final)} "
                           "do not fit in memory") from None
    abort_times = np.full(ids.size, np.nan)
    n_steps = max(rec_steps, default=0)  # no step after the last record
    blocks = [slice(lo, lo + BLOCK_ROWS) for lo in range(0, ids.size, BLOCK_ROWS)]
    workers = min(ensemble_workers(threads), max(1, len(blocks)))

    def run_block(rows: slice) -> None:
        gens = [trajectory_generator(params.seed, int(j)) for j in ids[rows]]
        n = len(gens)
        u = np.tile(coeffs, (n, 1))
        abort_t = abort_times[rows]  # a view; NaN while the row lives
        stepper = ExponentialEulerStepper(params, (n,))
        # the fewest refills the longest slab allows, all of one length
        longest = max(1, min(256, n_steps, _SLAB_BYTES // (8 * n * n_slots)))
        slab_len = -(-n_steps // max(1, -(-n_steps // longest)))
        noise = np.empty((n, slab_len, n_slots))  # per row: the next slab_len steps
        if 0 in rec_steps:
            states[rows, rec_steps[0]] = observe(u)
        # a row that diverges within a step is left to the guard, not warned of;
        # errstate is thread-local, so it is set in the worker
        with np.errstate(over="ignore", invalid="ignore"):
            for step_no in range(1, n_steps + 1):
                s = (step_no - 1) % slab_len
                if s == 0:
                    m = min(slab_len, n_steps - step_no + 1)
                    for gen, slab in zip(gens, noise):
                        gen.standard_normal(out=slab[:m])
                stepper.step_block(u, noise[:, s, :])
                blown = stepper.blown_up(u) & np.isnan(abort_t)
                if blown.any():
                    abort_t[blown] = step_no * params.dt
                    u[blown] = np.nan
                    if not np.isnan(abort_t).any():
                        break  # this and the later records stay NaN, as states was made
                if step_no in rec_steps:
                    states[rows, rec_steps[step_no]] = observe(u)

    from concurrent.futures import ThreadPoolExecutor  # not loaded by doeblin or odecheck
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run_block, blocks))
    return EnsembleResult(
        params=params,
        traj_ids=ids,
        times=record_times,
        states=states,
        abort_times=abort_times,
    )


# ---------------------------------------------------------------------------
# scalar comparison ODE
# ---------------------------------------------------------------------------


_ODE_TOL = 1e-8
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class OdeComparison:
    """Exact solution of y' = -c y^q against both decay bounds."""

    y_final: float
    corrected_bound: float
    literal_bound: float
    corrected_holds: bool
    literal_holds: bool


def ode_comparison(q: int, c: float, y0: float, t: float) -> OdeComparison:
    """Solve y' = -c y^q on [0, t] exactly and compare both decay bounds.

    y(t) = (y0^-(q-1) + (q-1) c t)^(-1/(q-1)) is evaluated in logs so that no
    power overflows.  The corrected bound ((q-1) c t)^(-1/(q-1)) is the
    comparison constant valid for every y0 (equality as y0 -> infinity); the
    literal variant (q c t)^(-1/(q-1)) is reported as well and can fail.
    Either is taken in logs where its c t term is not a normal float (it
    overflows or underflows, or its rounding would fail a bound that holds),
    and is inf only beyond float max.  A bound holds when y(t) exceeds it by
    at most _ODE_TOL = 1e-8 times the bound: y(t) is accurate to about 1e-13
    relative, whatever its size.  q - 1 must convert to a float; a refusal
    is a SettingError naming the [odecheck] key: qs, cs, y0s or ts.
    """
    if not (isinstance(q, (int, np.integer)) and q >= 3 and q % 2 == 1):
        raise SettingError("qs", "qs must be odd integers >= 3")
    try:
        k = float(q - 1)
    except OverflowError:
        raise SettingError("qs", "qs lists a q whose q - 1 is too large for a float") from None
    for key, v in (("cs", c), ("y0s", y0), ("ts", t)):
        if not 0 < v < math.inf:  # NaN included
            what = "positive" if math.isfinite(v) else "finite"  # -inf and NaN are not
            raise SettingError(key, f"{key} must be {what}")

    log_age = math.log(k) + math.log(c) + math.log(t) + k * math.log(y0)
    y = math.exp(math.log(y0) - float(np.logaddexp(0.0, log_age)) / k)

    def bound(m):  # (m c t)^(-1/(q-1))
        base = m * c * t
        if sys.float_info.min <= base < math.inf:
            return base ** (-1.0 / k)
        log_bound = -(math.log(m) + math.log(c) + math.log(t)) / k
        return math.exp(log_bound) if log_bound < _LOG_FLOAT_MAX else math.inf

    corrected = bound(q - 1)
    literal = bound(q)
    return OdeComparison(
        y_final=y,
        corrected_bound=corrected,
        literal_bound=literal,
        corrected_holds=bool(y <= corrected + _ODE_TOL * corrected),
        literal_holds=bool(y <= literal + _ODE_TOL * literal),
    )


# ---------------------------------------------------------------------------
# trajectory export
# ---------------------------------------------------------------------------


def write_trajectory_csv(
    path,
    results,
    gamma: float,
    header_lines: list[str],
) -> None:
    """Write integer-time records as CSV with a '#'-prefixed header block.

    results is any iterable of EnsembleResult objects, consumed lazily:
    the file and its directory are made once the first ensemble exists, each
    ensemble's rows are written before the next is taken, and the writer
    keeps no reference to an ensemble it has written.  Rows carry a
    trajectory column.  Each result is written in groups of whole
    trajectories (at least one), each a view of its records in file order,
    and a group's rows go to the file before the next group is formed.  Its
    transient arrays fit in _GROUP_BYTES (1 MB): the three norms of every
    record, aborted ones too, and the sup-norm grid, half spectrum and
    |grid|.  So the writer holds one group besides the ensemble it is
    writing, and the text does not depend on how the trajectories are split
    into ensembles or groups.  norm_sup is the field.sup_norm_values grid
    maximum (8 points per mode, at least 64 points).  Every cell is what
    field.fmt_value writes, by a %d/%r format string (the hot loop's own
    copy of the rule).  Aborted (non-finite) records appear as rows with
    aborted = 1 and empty numeric fields.  If results fails after the file
    is opened, the partial file is removed.  Returns None.
    """
    ensembles = iter(results)
    ens = next(ensembles, None)
    if ens is None:
        raise ValueError("no ensembles to write")
    n_modes = ens.params.n_modes
    n_coeff_cols = min(6, 2 * n_modes + 1)
    coeff_names = ["c0", "a1", "b1", "a2", "b2", "a3"][:n_coeff_cols]
    finite_row = "%d,%s,%r,%r,%r,0" + ",%r" * n_coeff_cols + "\n"
    aborted_row = "%d,%s,,,,1" + "," * n_coeff_cols + "\n"
    # a record: its coefficients and three norms, and 24 bytes a sup-norm point
    row_bytes = 8 * (2 * n_modes + 4) + 24 * sup_points(n_modes)

    def write(fh, ens):  # its views of ens's records die when it returns
        times = [fmt_float(t) for t in ens.times]
        group = max(1, _GROUP_BYTES // (row_bytes * len(times)))  # simulate records t = 0, 1, ..
        for lo in range(0, ens.n_traj, group):
            states = ens.states[lo : lo + group]
            u = states.reshape(-1, states.shape[-1])  # a view, trajectory-major like the file
            with np.errstate(over="ignore"):  # a grid value beyond float max is inf
                norm_sup = sup_norm_values(u, n_modes)
            records = zip(
                np.repeat(ens.traj_ids[lo : lo + group], len(times)).tolist(),
                times * len(states), row_norms(u, 0.0).tolist(),
                row_norms(u, gamma).tolist(), norm_sup.tolist(), *u[:, :n_coeff_cols].T.tolist(),
            )
            fh.write("".join([
                finite_row % rec if ok else aborted_row % rec[:2]
                for ok, rec in zip(np.all(np.isfinite(u), axis=-1).tolist(), records)
            ]))

    Path(path).parent.mkdir(parents=True, exist_ok=True)
    fh = open(path, "w")
    try:
        with fh:
            fh.writelines(f"# {h}\n" for h in header_lines)
            fh.write("trajectory,t,norm_0,norm_gamma,norm_sup,aborted," + ",".join(coeff_names) + "\n")
            while ens is not None:
                write(fh, ens)
                del ens  # so the next ensemble is made with this one freed
                ens = next(ensembles, None)
    except BaseException:
        os.remove(path)
        raise
