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

ExponentialEulerStepper holds the per-slot factors of one step, and one
block loop advances (trajectories x slots) blocks of it through batched
FFTs; it only steps, guards and records.  run_ensemble runs that loop and
is the only way into it.  W_L is the drift-free run from zero on the same
trajectory id, replace(params, poly=None, blowup_guard=inf): it is driven by
the same draws as the model, so the remainder Psi = Phi - W_L satisfies
Psi' = e^{-Lh} Psi + phi(h) N(Psi + W_L) to rounding error, step by step.
Each block allocates its work arrays once (a StepBuffers set and a slab of
normal draws filled in place) and updates its state in place, so a step
allocates no block-sized array.  The slabs of the blocks that run at once
share one budget, _SLAB_BYTES (16 MB) a call, so more workers draw shorter
slabs; a block splits its steps into the fewest slabs its share allows, all
of one length.  Each trajectory consumes its own stream
(noise.trajectory_generator), so results do not depend on block sizes, slab
lengths, worker counts or thread schedules.  A row aborts at the first step
after which its squared norm is NaN, infinite or above the guard's square, so
a row that overflows within a step aborts under any guard, inf included.  It
is set to NaN and stays NaN, and a block stops stepping once all its rows
have.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .field import (
    DriftPolynomial,
    coeffs_to_values,
    dealias_points,
    eigenvalues,
    fmt_float,
    sup_norm_values,
    sup_points,
    values_to_coeffs,
)
from .noise import NoiseSpectrum, trajectory_generator, validate

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


# the smallest guard whose square does not underflow, and the largest whose
# square does not overflow
_GUARD_MIN = math.sqrt(np.finfo(float).tiny)
_GUARD_MAX = math.sqrt(np.finfo(float).max)


@dataclass
class SimulationParams:
    """Resolved model and discretization parameters.

    dt must divide 1 exactly in the rational sense (so integer times fall on
    the step grid), t_final must be finite and at least 1, the step count
    t_final / dt must fit in int64, seed must lie in [0, 2^64) (it seeds the
    per-trajectory streams) and blowup_guard must lie between
    sqrt(smallest normal float) ~ 1.49e-154 and sqrt(float max) ~ 1.34e154,
    so that its square is a normal float, or be inf.
    poly = None selects the pure Ornstein-Uhlenbeck dynamics N == 0.
    """

    n_modes: int = 32
    dt: float = 1.0 / 256.0
    t_final: float = 1.0
    poly: DriftPolynomial | None = dataclass_field(
        default_factory=lambda: DriftPolynomial([0.0, -1.0, 0.0, 1.0])
    )
    spectrum: NoiseSpectrum | None = None
    seed: int = 1234
    blowup_guard: float = 1e12

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("n_modes must be at least 1")
        if not math.isfinite(self.t_final):
            raise ValueError("t_final must be finite")
        if self.t_final < 1.0:
            raise ValueError("t_final must be at least 1")
        if not (0.0 < self.dt <= 1.0):
            raise ValueError("dt must lie in (0, 1]")
        if self.t_final / self.dt >= 2**63:
            raise ValueError(f"dt = {fmt_float(self.dt)} makes more steps than int64 holds")
        per_unit = round(1.0 / self.dt)
        if abs(per_unit * self.dt - 1.0) > 1e-9:
            raise ValueError("dt must divide 1 exactly (1/dt integer)")
        if self.spectrum is None:
            self.spectrum = NoiseSpectrum.default(self.n_modes)
        if self.spectrum.n_modes != self.n_modes:
            raise ValueError("spectrum length does not match n_modes")
        bad = validate(self.spectrum)
        if bad is not None:
            raise ValueError("inadmissible noise spectrum:\n" + str(bad))
        if not self.blowup_guard > 0:  # NaN included
            raise ValueError("blowup_guard must be positive")
        if self.blowup_guard < _GUARD_MIN:
            raise ValueError(f"blowup_guard = {fmt_float(self.blowup_guard)} is below "
                             f"{fmt_float(_GUARD_MIN)} = sqrt(smallest normal float), "
                             "so its square underflows")
        if _GUARD_MAX < self.blowup_guard < math.inf:
            raise ValueError(f"blowup_guard = {fmt_float(self.blowup_guard)} exceeds "
                             f"{fmt_float(_GUARD_MAX)} = sqrt(float max); inf means no guard")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must lie in [0, 2^64)")

    @property
    def n_steps(self) -> int:
        n = round(self.t_final / self.dt)
        if abs(n * self.dt - self.t_final) > 1e-9:
            raise ValueError("t_final must be a multiple of dt")
        return n


@dataclass
class StepBuffers:
    """Work arrays for stepping one block of rows in place.

    One set per block, made by ExponentialEulerStepper.buffers and never
    shared between threads.  The grid arrays are None without a polynomial.
    """

    slots: np.ndarray  # (rows, slots) step temporary
    nonlin: np.ndarray | None = None  # (rows, slots) coefficients of N(u)
    values: np.ndarray | None = None  # (rows, grid) values of u
    reaction: np.ndarray | None = None  # (rows, grid) values of N(u)
    spectrum: np.ndarray | None = None  # (rows, grid // 2 + 1) complex half spectrum


class ExponentialEulerStepper:
    """Precomputed per-slot factors for one step of the scheme."""

    def __init__(self, params: SimulationParams):
        self.params = params
        self.n_modes = params.n_modes
        ell = eigenvalues(self.n_modes)
        self.phi = -np.expm1(-ell * params.dt) / ell
        self.decay = np.exp(-ell * params.dt)
        self.std = params.spectrum.step_std(params.dt)
        self.poly = params.poly
        self.guard_sq = params.blowup_guard**2
        # the largest squared norm a row keeps: no infinite one, even with no guard
        self.keep_sq = min(self.guard_sq, np.finfo(float).max)
        # two orders of summing n nonnegative squares differ by about 2 n eps at
        # most (130 eps at 65 slots); guard_sq * (1 + band) may overflow to inf
        band = max(1e-12, 4 * (2 * self.n_modes + 1) * np.finfo(float).eps)
        self.near_guard = (self.guard_sq * (1 - band), self.guard_sq * (1 + band))
        if self.poly is not None:
            self.grid_points = dealias_points(self.n_modes, self.poly.degree)

    def buffers(self, lead: tuple[int, ...]) -> StepBuffers:
        """Work arrays for coefficient blocks of shape lead + (slots,)."""
        slots = (*lead, 2 * self.n_modes + 1)
        if self.poly is None:
            return StepBuffers(np.empty(slots))
        grid = (*lead, self.grid_points)
        return StepBuffers(
            slots=np.empty(slots),
            nonlin=np.empty(slots),
            values=np.empty(grid),
            reaction=np.empty(grid),
            spectrum=np.empty((*lead, self.grid_points // 2 + 1), dtype=complex),
        )

    def nonlinearity(self, u: np.ndarray, buf: StepBuffers | None = None) -> np.ndarray:
        """Coefficients of N(u) = u - P(u), dealiased, written to buf.nonlin
        (to fresh arrays when buf is None)."""
        if buf is None:
            buf = self.buffers(u.shape[:-1])
        vals = coeffs_to_values(
            u, self.n_modes, self.grid_points, out=buf.values, spectrum=buf.spectrum
        )
        self.poly.nonlinearity(vals, out=buf.reaction)
        return values_to_coeffs(
            buf.reaction, self.n_modes, out=buf.nonlin, spectrum=buf.spectrum
        )

    def step_block(self, u: np.ndarray, g: np.ndarray, buf: StepBuffers) -> None:
        """Advance a (rows, slots) block in place with unit normals g:
        u <- decay u + phi N(u) + std g, summed in that order."""
        if self.poly is None:
            u *= self.decay
        else:
            nonlin = self.nonlinearity(u, buf)
            nonlin *= self.phi
            u *= self.decay
            u += nonlin
        np.multiply(g, self.std, out=buf.slots)
        u += buf.slots

    def blown_up(self, u: np.ndarray) -> np.ndarray:
        """Guard mask of the rows whose np.sum(u * u, axis=-1) is NaN,
        infinite or above guard_sq, bit for bit.

        The squared norms come from one einsum pass; only the rows near
        guard_sq, where its order of summation could tip the comparison, are
        summed again as np.sum(u * u).
        """
        sq = np.einsum("ij,ij->i", u, u)
        lo, hi = self.near_guard
        with np.errstate(invalid="ignore", over="ignore"):  # inf norms compare as inf
            blown = ~(sq <= self.keep_sq)
            near = (sq > lo) & (sq <= hi)
            if near.any():
                w = u[near]
                blown[near] = ~(np.sum(w * w, axis=-1) <= self.keep_sq)
        return blown


def _grid_step(t: float, dt: float) -> int | None:
    """The step of the dt grid within 1e-9 of time t, or None if none is."""
    steps = t / dt
    if not math.isfinite(steps):
        return None
    n = round(steps)
    return n if abs(n * dt - t) <= 1e-9 else None


@dataclass
class EnsembleResult:
    """Integer-time records for a batch of trajectories from one start point."""

    params: SimulationParams
    traj_ids: np.ndarray
    times: np.ndarray
    states: np.ndarray  # (n_traj, n_times, slots), NaN at and after abort
    aborted: np.ndarray  # (n_traj,) bool
    abort_times: np.ndarray

    @property
    def n_traj(self) -> int:
        return self.states.shape[0]

    def states_at(self, t: float) -> np.ndarray:
        """The (n_traj, slots) records at time t, matched on its step of the
        grid as run_ensemble places record times."""
        n = _grid_step(t, self.params.dt)
        steps = [_grid_step(float(s), self.params.dt) for s in self.times]
        if n is None or n not in steps:
            raise ValueError(f"no record at t = {fmt_float(t)}")
        return self.states[:, steps.index(n), :]


def integer_times(t_final: float) -> np.ndarray:
    """The integer times 0, 1, ..., floor(t_final) as floats."""
    if not math.isfinite(t_final):
        raise ValueError("t_final must be finite")
    try:
        return np.arange(int(math.floor(t_final + 1e-9)) + 1, dtype=float)
    except MemoryError:
        raise ValueError(
            f"t_final = {fmt_float(t_final)} has more integer times than memory holds"
        ) from None


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

# One run_ensemble call holds at most 16 MB of normal draws: each of its w
# workers' blocks draws in slabs of at most 256 steps and 16 MB / w (at least
# one step), and splits its steps into the fewest such slabs, all of one
# length.  So one worker draws the 256 steps of a 512 x 65 block in 5 slabs of
# 52 steps, and two workers in 9 slabs of 29.  Smaller slabs cost time, since
# each slab takes one standard_normal call per row and each call releases and
# retakes the GIL: 4 MB per block raised the mixing-cubic benchmark's wall
# time by about 12%.  write_trajectory_csv forms its groups in 1 MB.
_SLAB_BYTES = 16 << 20


def _run_block(
    stepper: ExponentialEulerStepper,
    x: np.ndarray,
    seed: int,
    ids: np.ndarray,
    rec_steps: dict[int, int],
    out: EnsembleResult,
    rows: slice,
    slab_bytes: int,
):
    params = stepper.params
    n = ids.size
    n_slots = x.size
    u = np.tile(x, (n, 1))
    alive = np.ones(n, dtype=bool)
    abort_t = np.full(n, np.nan)
    gens = [trajectory_generator(seed, int(j)) for j in ids]
    buf = stepper.buffers((n,))
    n_steps = params.n_steps
    # the fewest refills the longest slab allows, all of one length
    longest = max(1, min(256, n_steps, slab_bytes // (8 * n * n_slots)))
    slab_len = -(-n_steps // -(-n_steps // longest))
    noise = np.empty((n, slab_len, n_slots))  # per row: the next slab_len steps

    if 0 in rec_steps:
        out.states[rows, rec_steps[0], :] = u

    # a row that diverges within a step is left to the guard, not warned of;
    # errstate is thread-local, so it is set in the worker
    with np.errstate(over="ignore", invalid="ignore"):
        for step_no in range(1, n_steps + 1):
            s = (step_no - 1) % slab_len
            if s == 0:
                m = min(slab_len, n_steps - step_no + 1)
                for gen, slab in zip(gens, noise):
                    gen.standard_normal(out=slab[:m])
            stepper.step_block(u, noise[:, s, :], buf)
            blown = stepper.blown_up(u) & alive
            if blown.any():
                abort_t[blown] = step_no * params.dt
                u[blown] = np.nan
                alive &= ~blown
            if step_no in rec_steps:
                out.states[rows, rec_steps[step_no], :] = u
            if not alive.any():
                break  # the later records stay NaN, as out was made

    out.aborted[rows] = ~alive
    out.abort_times[rows] = abort_t


def run_ensemble(
    x: np.ndarray,
    params: SimulationParams,
    traj_ids,
    record_times=None,
    threads: int = 1,
) -> EnsembleResult:
    """Integrate an ensemble from one initial condition.

    x holds the 2 n_modes + 1 coefficients of the start.  traj_ids are the
    per-trajectory stream ids (distinct ids give independent noise under the
    same seed).  Each record time must fall on its own step of the grid.
    Rows run in blocks of BLOCK_ROWS, read at call time.  Results are
    bitwise independent of the block size and threads because every
    trajectory owns its stream and rows are written by index.  The blocks
    run on a pool of min(ensemble_workers(threads), blocks) workers, and
    each block draws its normals in equal slabs of at most _SLAB_BYTES /
    workers, so the slabs alive at once fit in _SLAB_BYTES.
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
    rec_steps: dict[int, int] = {}
    for i, t in enumerate(record_times):
        n = _grid_step(float(t), params.dt)
        if n is None or not 0 <= n <= params.n_steps:
            raise ValueError(f"record time {t} is not on the step grid")
        if n in rec_steps:
            raise ValueError(f"record time {t} falls on step {n}, as record time "
                             f"{record_times[rec_steps[n]]} does")
        rec_steps[n] = i

    stepper = ExponentialEulerStepper(params)
    shape = (ids.size, record_times.size, n_slots)
    try:
        states = np.full(shape, np.nan)
    except MemoryError:
        raise ValueError(
            f"records of {shape[0]} trajectories at {shape[1]} times up to "
            f"t_final = {fmt_float(params.t_final)} do not fit in memory"
        ) from None
    out = EnsembleResult(
        params=params,
        traj_ids=ids,
        times=record_times,
        states=states,
        aborted=np.zeros(ids.size, dtype=bool),
        abort_times=np.full(ids.size, np.nan),
    )

    blocks = [
        (slice(lo, min(lo + BLOCK_ROWS, ids.size)), ids[lo : lo + BLOCK_ROWS])
        for lo in range(0, ids.size, BLOCK_ROWS)
    ]
    workers = min(ensemble_workers(threads), max(1, len(blocks)))
    slab_bytes = _SLAB_BYTES // workers
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(
                _run_block, stepper, coeffs, params.seed, bid, rec_steps, out, rows,
                slab_bytes,
            )
            for rows, bid in blocks
        ]
        for f in futures:
            f.result()
    return out


# ---------------------------------------------------------------------------
# scalar comparison ODE
# ---------------------------------------------------------------------------


_ODE_TOL = 1e-8


@dataclass(frozen=True)
class OdeComparison:
    """Numerical solution of y' = -c y^q + f against both decay bounds."""

    y_final: float
    forcing_integral: float
    corrected_bound: float
    literal_bound: float
    corrected_holds: bool
    literal_holds: bool


def ode_comparison(
    q: int,
    c: float,
    y0: float,
    t: float,
    forcing=None,
) -> OdeComparison:
    """Integrate y' = -c y^q + f(s) on [0, t] and compare both decay bounds.

    The corrected bound ((q-1) c t)^(-1/(q-1)) + int_0^t f is the comparison
    constant valid for every y0 (equality as y0 -> infinity); the literal
    variant (q c t)^(-1/(q-1)) + int_0^t f is reported as well and can fail.
    forcing is a piecewise-constant step function as (start_time, value)
    pairs, start times increasing from 0, values nonnegative; None means 0.
    A bound holds when y(t) exceeds it by at most _ODE_TOL = 1e-8.
    """
    if not (isinstance(q, (int, np.integer)) and q >= 3 and q % 2 == 1):
        raise ValueError("q must be an odd integer >= 3")
    if not all(0 < v < math.inf for v in (c, y0, t)):  # NaN included
        raise ValueError("c, y0 and t must be positive and finite")
    if forcing is None:
        forcing = [(0.0, 0.0)]
    starts = [float(s) for s, _ in forcing]
    values = [float(v) for _, v in forcing]
    if starts[0] != 0.0 or any(b <= a for a, b in zip(starts, starts[1:])):
        raise ValueError("forcing segments must start at 0 with increasing times")
    if any(v < 0 for v in values):
        raise ValueError("forcing values must be nonnegative")

    edges = [s for s in starts if s < t] + [t]
    vals = values[: len(edges) - 1]
    f_int = sum(v * (b - a) for v, a, b in zip(vals, edges[:-1], edges[1:]))

    from scipy.integrate import solve_ivp  # only this check needs scipy

    y = y0
    for v, a, b in zip(vals, edges[:-1], edges[1:]):
        sol = solve_ivp(
            lambda s, z, vv=v: -c * z**q + vv,
            (a, b),
            [y],
            method="LSODA",
            rtol=1e-11,
            atol=1e-13,
        )
        if not sol.success:
            raise RuntimeError(f"reference integration failed: {sol.message}")
        y = float(sol.y[0, -1])

    corrected = ((q - 1) * c * t) ** (-1.0 / (q - 1)) + f_int
    literal = (q * c * t) ** (-1.0 / (q - 1)) + f_int
    return OdeComparison(
        y_final=y,
        forcing_integral=f_int,
        corrected_bound=corrected,
        literal_bound=literal,
        corrected_holds=bool(y <= corrected + _ODE_TOL),
        literal_holds=bool(y <= literal + _ODE_TOL),
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
    the file is opened once the first ensemble exists, each ensemble's rows
    are written before the next is taken, and the writer keeps no reference
    to an ensemble it has written.  Rows carry a trajectory column.  Each
    result is written in groups of whole trajectories (at least one), and a
    group's rows go to the file before the next group is formed.  A group's
    transient arrays fit in _SLAB_BYTES // 16 (1 MB): its finite rows, their
    three norms, and the sup-norm grid, half spectrum and |grid|.  So the
    writer holds one group besides the ensemble it is writing, and the text
    does not depend on how the trajectories are split into ensembles or
    groups.  norm_sup is the field.sup_norm_values grid maximum (8 points
    per mode, at least 64 points).  Every number is its repr, as fmt_float
    writes it.  Aborted spans appear as rows with aborted = 1 and empty
    numeric fields.  If results fails after the file is opened, the partial
    file is removed.  Returns None.
    """
    ensembles = iter(results)
    ens = next(ensembles, None)
    if ens is None:
        raise ValueError("no ensembles to write")
    n_modes = ens.params.n_modes
    weights = eigenvalues(n_modes) ** (2.0 * gamma)
    n_coeff_cols = min(6, 2 * n_modes + 1)
    coeff_names = ["c0", "a1", "b1", "a2", "b2", "a3"][:n_coeff_cols]
    finite_row = "%d,%s,%r,%r,%r,0" + ",%r" * n_coeff_cols + "\n"
    aborted_row = "%d,%s,,,,1" + "," * n_coeff_cols + "\n"
    # a finite row: its coefficients and three norms, and 24 bytes a sup-norm point
    row_bytes = 8 * (2 * n_modes + 4) + 24 * sup_points(n_modes)

    def write(fh, ens):  # its views of ens's records die when it returns
        times = np.array([fmt_float(t) for t in ens.times], dtype=object)
        group = max(1, (_SLAB_BYTES // 16) // (row_bytes * max(1, len(times))))
        for lo in range(0, ens.n_traj, group):
            states = ens.states[lo : lo + group]
            finite = np.all(np.isfinite(states), axis=-1)  # (group, n_times)
            u = states[finite]  # finite rows, trajectory-major like the file
            with np.errstate(over="ignore"):  # a norm beyond float max is inf
                norm_0 = np.sqrt(np.sum(u * u, axis=-1))
                norm_gamma = np.sqrt(np.sum(weights * u * u, axis=-1))
                over = np.isinf(norm_0) | np.isinf(norm_gamma)
                if over.any():  # a sum overflowed: redo it scaled by the row's largest |c|
                    scale = np.abs(u[over]).max(axis=-1)
                    w = u[over] / scale[:, None]
                    norm_0[over] = scale * np.sqrt(np.sum(w * w, axis=-1))
                    norm_gamma[over] = scale * np.sqrt(np.sum(weights * w * w, axis=-1))
                norm_sup = sup_norm_values(u, n_modes)
            tids = np.broadcast_to(ens.traj_ids[lo : lo + group, None], finite.shape)
            ts = np.broadcast_to(times, finite.shape)
            rows = np.empty(finite.shape, dtype=object)
            rows[finite] = list(map(finite_row.__mod__, zip(
                tids[finite].tolist(), ts[finite].tolist(), norm_0.tolist(),
                norm_gamma.tolist(), norm_sup.tolist(), *u[:, :n_coeff_cols].T.tolist(),
            )))
            rows[~finite] = list(map(aborted_row.__mod__, zip(
                tids[~finite].tolist(), ts[~finite].tolist()
            )))
            fh.write("".join(rows.ravel().tolist()))

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
