"""Tests for the exponential one-step scheme and its diagnostics.

Oracle routes: closed-form linear flows, adaptive scalar ODE references
(solve_ivp at rtol 1e-12 for y' = y - y^3, and oracles.forced_decay for the
forced comparison ODE y' = -c y^q + f), and the dealias-free polynomial
convolution from tests/oracles.py for a hand-built single step.
"""

import concurrent.futures
import copy
import functools
import hashlib
import math
import os
import re
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

import glmix.integrator as integrator
import oracles
from glmix.field import (
    DriftPolynomial,
    SettingError,
    coeffs_to_values,
    eigenvalues,
    fmt_value,
    norm_gamma,
    row_norms,
    scaled_random_field,
    sup_norm_values,
    values_to_coeffs,
)
from glmix.config import RunConfig
from glmix.integrator import (
    ExponentialEulerStepper,
    integer_times,
    ode_comparison,
    run_ensemble,
    write_trajectory_csv,
)
from glmix.mixing import observables
from sup_windows import window_sup


def params_of(**kw):
    """The SimulationParams of a run with settings kw, RunConfig's defaults
    elsewhere."""
    return RunConfig(**kw).params()


def quiet_params(n_modes=3, **kw):
    """Zero-noise parameters: every q_k = 0 via k_star = n_modes."""
    return params_of(n_modes=n_modes, k_star=n_modes, **kw)


def every_step(params):
    """Record times at every step, 0 to t_final."""
    return params.dt * np.arange(params.n_steps + 1)


def state_and_wl(x, params, tid, record_times=None):
    """Records of trajectory tid and of its convolution path W_L: the
    drift-free run from zero with no guard on the same stream, NaN where the
    state is."""
    states = run_ensemble(x, params, [tid], record_times).states[0]
    free = replace(params, poly=None, blowup_guard=math.inf)
    wl = run_ensemble(np.zeros_like(states[0]), free, [tid], record_times).states[0]
    wl[np.isnan(states)] = np.nan
    return states, wl


def test_params_validation():
    with pytest.raises(ValueError, match="n_modes"):
        params_of(n_modes=0)
    with pytest.raises(ValueError, match="dt"):
        params_of(dt=0.0)
    with pytest.raises(ValueError, match="dt"):
        params_of(dt=2.0)
    with pytest.raises(ValueError, match="divide"):
        params_of(dt=0.3)
    with pytest.raises(ValueError, match="t_final"):
        params_of(t_final=0.5)
    with pytest.raises(ValueError, match="inadmissible noise spectrum:"):
        params_of(alpha=1.0, beta=1.0)
    with pytest.raises(ValueError, match="blowup_guard"):
        params_of(blowup_guard=0.0)
    # the largest guard whose square is a float is accepted, and so are the
    # guards above it, whose squares overflow as no guard's does; guard ** 2
    # raised OverflowError above about 1.34e154
    limit = params_of(blowup_guard=1.3407807929942596e154)
    assert np.isfinite(ExponentialEulerStepper(limit).guard_sq)
    for guard in (np.nextafter(1.3407807929942596e154, math.inf), 1e200,
                  1.7976931348623157e308, math.inf):
        assert ExponentialEulerStepper(params_of(blowup_guard=guard)).guard_sq == math.inf
    # the smallest guard whose square is a normal float is accepted; below it the
    # square underflows (to 0.0 at 1e-200) and no row would ever cross the guard
    tiny = np.finfo(float).tiny
    for guard in (1.4916681462400413e-154, np.nextafter(1.4916681462400413e-154, math.inf)):
        assert ExponentialEulerStepper(params_of(blowup_guard=guard)).guard_sq >= tiny
    for guard in (np.nextafter(1.4916681462400413e-154, 0.0), 1e-200):
        with pytest.raises(ValueError, match=r"is below 1\.4916681462400413e-154 = sqrt"):
            params_of(blowup_guard=guard)
    with pytest.raises(ValueError, match="multiple"):
        params_of(dt=0.5, t_final=1.25)
    # 1/dt overflows to inf at the smallest subnormal
    for dt in (1e-300, 5e-324):
        with pytest.raises(ValueError, match="more steps than int64 holds"):
            params_of(dt=dt)
    p = params_of(dt=1.0 / 128.0, t_final=3.0)
    assert p.n_steps == 384


def guard_mask_rows(guard, rng):
    """Rows of 65 slots around the guard: random rows scaled to norm guard
    and one ulp either side, single-slot rows at, above and below it, and
    zero, NaN and infinite rows."""
    rows = rng.standard_normal((3000, 65))
    rows /= np.sqrt(np.sum(rows * rows, axis=-1, keepdims=True))
    scale = guard if math.isfinite(guard) else 1e150
    spikes = np.zeros((3, 65))
    spikes[:, 7] = [scale, np.nextafter(scale, 0.0), np.nextafter(scale, math.inf)]
    odd = np.zeros((5, 65))
    odd[1] = np.nan
    odd[2, 3] = math.inf
    odd[3, 4] = -math.inf
    odd[4, :2] = [math.inf, math.nan]
    return np.concatenate([
        rows * scale, rows * np.nextafter(scale, 0.0), rows * np.nextafter(scale, math.inf),
        spikes, odd,
    ])


@pytest.mark.parametrize("guard", [1.0, 3.7, 1e12, 1.3407807929942596e154, 1e200, math.inf])
def test_guard_mask_is_the_summed_squares_comparison(guard):
    stepper = ExponentialEulerStepper(params_of(n_modes=32, blowup_guard=guard))
    u = guard_mask_rows(guard, np.random.default_rng(5))
    # rows whose squares overflow: norms 1e160 and 1e308, and one beyond float max
    big = np.zeros((3, 65))
    big[0, :4] = 5e159
    big[1, 9] = 1e308
    big[2] = 1.7e308
    u = np.concatenate([u, big])
    blown = stepper.blown_up(u)
    sq = np.einsum("ij,ij->i", u, u)
    over = sq == math.inf
    # a finite (or NaN) square is compared with guard * guard and nothing else
    assert np.array_equal(blown[~over], ~(sq[~over] <= guard * guard))
    # an overflowing square is above every guard up to sqrt(float max); above
    # that, the row is blown up if its norm is NaN, inf or above the guard
    if guard <= 1.3407807929942596e154:
        assert blown[over].all()
    else:
        with np.errstate(invalid="ignore"):  # an inf entry divides inf by inf
            norm = row_norms(u[over], 0.0)
        assert np.array_equal(blown[over], ~(norm <= guard) | np.isinf(norm))
    # the zero row passes; NaN and infinite rows trip every guard, inf included
    assert blown[-8:-3].tolist() == [False, True, True, True, True]
    want_big = {1e200: [False, True, True], math.inf: [False, False, True]}
    assert blown[-3:].tolist() == want_big.get(guard, [True, True, True])
    if math.isfinite(guard):
        # single-slot rows at, one ulp below and one ulp above the guard: the
        # first is not blown up
        assert blown[-11:-8].tolist() == [False, False, True]
        # random rows of norm guard and one ulp either side: rounding puts
        # some on each side of it
        near = blown[:9000].reshape(3, 3000)
        assert near.any() and not near.all()
    else:
        assert not blown[:-9].any()


def test_no_guard_judges_the_norm_not_its_square():
    # rows of norm 1e160 and 1e308 square to inf: they aborted under no guard
    rows = np.zeros((5, 65))
    rows[0, :4] = 5e159
    rows[1, 9] = 1e308
    rows[2] = 1.7e308  # its norm is beyond float max
    rows[3, 0] = math.nan
    rows[4, 0] = -math.inf
    free = ExponentialEulerStepper(params_of(n_modes=32, blowup_guard=math.inf))
    assert free.blown_up(rows).tolist() == [False, False, True, True, True]
    guarded = ExponentialEulerStepper(params_of(n_modes=32, blowup_guard=1e154))
    assert guarded.blown_up(rows).all()


def test_records_that_do_not_fit_in_memory_raise_value_errors():
    # 8e16 bytes of integer times and 1.6e15 of states: no allocator grants either
    with pytest.raises(ValueError, match=r"t_final = 1e\+16 has more integer times"):
        integer_times(1e16)
    params = quiet_params(n_modes=1000, t_final=1e5, dt=1.0)
    with pytest.raises(SettingError,
                       match="records of 1000000 trajectories at 100001 times") as err:
        run_ensemble(np.zeros(2001), params, traj_ids=range(10**6))
    assert err.value.key == ("n_traj", "t_final", "times")


def test_observed_records_hold_only_their_columns():
    """Recording 6 observables instead of 65 coefficients takes the peak of
    2048 trajectories at 11 times down by at least 0.9 of the bytes saved."""
    params = params_of(n_modes=32, dt=1.0 / 16.0, t_final=10.0)
    peaks = []
    for observe in (None, lambda u: observables(u, 1.0)):
        tracemalloc.start()
        try:
            ens = run_ensemble(np.zeros(65), params, range(2048), observe=observe)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert ens.states.shape[:2] == (2048, 11) and not ens.aborted.any()
        del ens
    assert peaks[0] - peaks[1] >= 0.9 * 2048 * 11 * (65 - 6) * 8


def test_pure_decay_matches_semigroup():
    # poly = None and zero noise leaves only the linear flow
    params = quiet_params(n_modes=4, poly=None, dt=1.0 / 64.0, t_final=2.0)
    x = np.linspace(1.0, -1.0, 9)
    ens = run_ensemble(x, params, [0])
    ell = oracles.ell(np.array([0, 1, 1, 2, 2, 3, 3, 4, 4], dtype=float))
    for i, t in enumerate(ens.times):
        assert np.allclose(ens.states[0, i], np.exp(-ell * t) * x, rtol=1e-10)
    assert not ens.aborted[0] and np.isnan(ens.abort_times[0])


def test_linear_state_splits_into_decay_plus_convolution():
    # with no drift the state is exactly the decayed start plus the
    # convolution path advanced by the same draws
    params = params_of(n_modes=8, dt=1.0 / 64.0, t_final=3.0, poly=None)
    x = np.arange(17, dtype=float) / 7.0
    states, wl = state_and_wl(x, params, 5)
    stepper = ExponentialEulerStepper(params)
    for i, t in enumerate(integer_times(params.t_final)):
        n = int(round(t / params.dt))
        assert np.allclose(states[i], stepper.decay**n * x + wl[i],
                           rtol=1e-12, atol=1e-13)


def test_zero_is_a_fixed_point():
    ens = run_ensemble(np.zeros(11), quiet_params(n_modes=5), [0])
    assert np.all(ens.states == 0.0)


def test_scalar_convergence_is_first_order():
    # constant fields close under the cubic drift; the coefficient obeys
    # y' = y - y^3, for which an adaptive reference is cheap and sharp
    y0 = 2.0
    ref = solve_ivp(lambda t, y: y - y**3, (0.0, 1.0), [y0],
                    method="LSODA", rtol=1e-12, atol=1e-14).y[0, -1]
    errs = []
    hs = [1e-2, 5e-3, 2.5e-3]
    for h in hs:
        params = quiet_params(n_modes=3, dt=h)
        x = np.zeros(7)
        x[0] = y0
        final = run_ensemble(x, params, [0]).states[0, -1]
        assert np.all(np.abs(final[1:]) < 1e-14)
        errs.append(abs(final[0] - ref))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope >= 0.9
    assert errs[0] > errs[1] > errs[2]


def test_single_step_matches_convolution_oracle():
    # hand-build one deterministic step with the dealias-free polynomial
    # product and compare against the stepper
    rng = np.random.default_rng(21)
    n_modes = 4
    coeffs = rng.normal(size=9) / np.arange(1, 10)
    params = quiet_params(n_modes=n_modes, dt=1.0 / 64.0)
    states = run_ensemble(coeffs, params, [0], every_step(params)).states[0]
    ell = eigenvalues(n_modes)
    h = params.dt
    p_u = oracles.poly_by_convolution([0.0, -1.0, 0.0, 1.0], coeffs)
    n_u = coeffs - p_u
    phi = (1.0 - np.exp(-ell * h)) / ell
    want = np.exp(-ell * h) * coeffs + phi * n_u
    assert np.allclose(states[1], want, atol=1e-12)


def test_deterministic_multimode_convergence_order():
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=9) / np.arange(1, 10) ** 2
    finals = {}
    for denom in (64, 128, 8192):
        params = quiet_params(n_modes=4, dt=1.0 / denom)
        finals[denom] = run_ensemble(coeffs, params, [0]).states[0, -1]
    e_coarse = np.max(np.abs(finals[64] - finals[8192]))
    e_fine = np.max(np.abs(finals[128] - finals[8192]))
    assert 1.6 < e_coarse / e_fine < 2.6


def test_remainder_recursion_is_exact_to_rounding():
    params = params_of(n_modes=8, dt=1.0 / 64.0)
    states, dense_wl = state_and_wl(np.ones(17) * 0.3, params, 0, every_step(params))
    assert np.all(np.isfinite(states))
    # Psi = Phi - W_L obeys Psi' = e^{-Lh} Psi + phi(h) N(Psi + W_L): the noise
    # cancels, so every step's defect is rounding-level
    psi = states - dense_wl
    wl = dense_wl[:-1]
    stepper = ExponentialEulerStepper(params, wl.shape[:-1])  # sized to the batch
    pred = stepper.decay * psi[:-1] + stepper.phi * stepper.nonlinearity(psi[:-1] + wl)
    residual = float(np.max(np.abs(psi[1:] - pred)))
    assert residual <= 1e-12
    # the batched prediction equals a per-record loop over the stepper's
    # factors, by a stepper sized to single rows
    single = ExponentialEulerStepper(params)
    worst = 0.0
    for n in range(len(psi) - 1):
        pred = stepper.decay * psi[n]
        pred = pred + stepper.phi * single.nonlinearity(psi[n] + dense_wl[n])
        worst = max(worst, float(np.max(np.abs(psi[n + 1] - pred))))
    assert residual == worst


@pytest.mark.parametrize("cubic", [True, False])
def test_step_block_gives_the_bytes_of_the_out_of_place_step(cubic):
    # step_block computes N(u) in its stepper's arrays and scales its draws
    # where they lie; the step computed with fresh arrays gives the same bytes,
    # and so do two steppers of one model stepping two blocks in turn
    params = params_of(n_modes=32, **({} if cubic else {"poly": None}))
    rng = np.random.default_rng(35)
    starts = [scale * rng.standard_normal((512, 65)) for scale in (0.5, 2.0)]
    draws = [rng.standard_normal((3, 512, 65)) for _ in starts]
    factors = ExponentialEulerStepper(params)

    def out_of_place(u, g):
        if not cubic:
            return factors.decay * u + factors.std * g
        values = coeffs_to_values(u, 32, factors.grid_points)
        n_u = values_to_coeffs(params.poly.nonlinearity(values), 32)
        return factors.decay * u + factors.phi * n_u + factors.std * g

    def solo(u, gs):
        stepper = ExponentialEulerStepper(params, (512,))
        u = u.copy()
        for g in gs:
            stepper.step_block(u, g.copy())
        return u

    for u, gs in zip(starts, draws):
        want = u
        for g in gs:
            want = out_of_place(want, g)
        assert solo(u, gs).tobytes() == want.tobytes()
    pair = [ExponentialEulerStepper(params, (512,)) for _ in starts]
    us = [u.copy() for u in starts]
    for k in range(3):
        for stepper, u, gs in zip(pair, us, draws):
            stepper.step_block(u, gs[k].copy())
    for u, start, gs in zip(us, starts, draws):
        assert u.tobytes() == solo(start, gs).tobytes()
    # the drift-free stepper holds no work array; the cubic one its four
    work = [a for a in vars(pair[0]).values() if isinstance(a, np.ndarray) and a.ndim == 2]
    assert len(work) == (4 if cubic else 0)


def test_recording_grid_and_state_access():
    params = quiet_params(n_modes=2, t_final=3.0)
    ens = run_ensemble(np.ones(5), params, [0])
    assert np.array_equal(ens.times, np.array([0.0, 1.0, 2.0, 3.0]))
    assert ens.states.shape == (1, 4, 5)
    # the record at t = 2 is the one a run recording only t = 2 makes
    alone = run_ensemble(np.ones(5), params, [0], record_times=[2.0])
    assert np.array_equal(alone.states[:, 0], ens.states[:, 2])


def test_same_stream_reproduces_and_ids_differ():
    params = params_of(n_modes=6)
    x = np.full(13, 0.1)
    a, b, c = (run_ensemble(x, params, [j]) for j in (2, 2, 3))
    assert np.array_equal(a.states, b.states)
    assert not np.array_equal(a.states, c.states)


def test_blowup_flags_and_stops_the_block(monkeypatch):
    params = quiet_params(n_modes=3)
    x = np.zeros(7)
    x[0] = 1e8
    states, wl = state_and_wl(x, params, 0)
    assert np.all(np.isnan(states[1:])) and np.all(np.isnan(wl[1:]))
    steps = []
    step_block = ExponentialEulerStepper.step_block
    monkeypatch.setattr(ExponentialEulerStepper, "step_block",
                        lambda self, *args: steps.append(1) or step_block(self, *args))
    ens = run_ensemble(x, params, traj_ids=[0])
    assert ens.aborted[0] and ens.abort_times[0] == params.dt
    # the block stops once its only row has aborted, not at step 256
    assert params.n_steps == 256 and len(steps) == 1


def test_block_stops_at_its_last_record_time(monkeypatch):
    # the block used to step on to t_final after its last record
    steps = []
    step_block = ExponentialEulerStepper.step_block
    monkeypatch.setattr(ExponentialEulerStepper, "step_block",
                        lambda self, *args: steps.append(1) or step_block(self, *args))
    params = params_of(n_modes=3, dt=1 / 64, t_final=4.0)
    x = scaled_random_field(3, 2.0, 1.0)
    full = run_ensemble(x, params, [0, 1])
    assert len(steps) == 256  # one call per step of the block's two rows
    for times, n_steps in (([0.0, 0.5, 1.0], 64), ([0.0], 0), ([2.0, 1.0], 128)):
        steps.clear()
        ens = run_ensemble(x, params, [0, 1], record_times=times)
        assert len(steps) == n_steps
        for j, t in enumerate(times):
            if t in full.times:
                assert np.array_equal(ens.states[:, j], full.states[:, int(t)])
    # with no record times given, the last is floor(t_final)
    steps.clear()
    run_ensemble(x, params_of(n_modes=3, dt=1 / 64, t_final=2.5), [0])
    assert len(steps) == 128


def test_relaxation_from_large_initial_norm():
    # a start with weighted norm 1e4 relaxes inside the ball of radius 10
    # (both norms) by t = 1 under the default model
    params = params_of()
    x = scaled_random_field(32, 1e4, 1.0)
    assert np.isclose(norm_gamma(x, 1.0), 1e4, rtol=1e-12)
    ens = run_ensemble(x, params, range(3))
    for tid in range(3):
        assert not ens.aborted[tid]
        final = ens.states[tid, -1]
        assert norm_gamma(final, 0.0) < 10.0
        assert norm_gamma(final, 1.0) < 10.0


def test_ode_comparison_unforced_witness():
    res = ode_comparison(q=3, c=1.0, y0=10.0, t=0.5)
    exact = (10.0**-2 + 2.0 * 0.5) ** -0.5
    assert np.isclose(res.y_final, exact, rtol=1e-9)
    assert np.isclose(res.y_final, 0.9950371902099892, rtol=1e-9)
    assert res.corrected_bound == 1.0
    assert np.isclose(res.literal_bound, 1.5**-0.5, rtol=1e-15)
    assert res.corrected_holds and not res.literal_holds


def test_ode_comparison_closed_form_grid():
    for q in (3, 5, 7):
        for c in (0.5, 1.0, 2.0):
            for t in (0.25, 1.0):
                y0 = 10.0
                res = ode_comparison(q, c, y0, t)
                exact = (y0 ** (1 - q) + (q - 1) * c * t) ** (-1.0 / (q - 1))
                assert np.isclose(res.y_final, exact, rtol=1e-8)
                assert res.corrected_holds


def test_ode_comparison_forcing_and_validation():
    # a constant forcing f lifts y(t) above the unforced decay and keeps it
    # below the unforced corrected bound plus f t
    res = ode_comparison(3, 1.0, 10.0, 0.5)
    forced = oracles.forced_decay(3, 1.0, 10.0, 0.5, 2.0)
    assert res.y_final < forced <= res.corrected_bound + 2.0 * 0.5
    with pytest.raises(ValueError, match="odd"):
        ode_comparison(4, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="odd"):
        ode_comparison(1, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        ode_comparison(3, -1.0, 1.0, 1.0)
    # int(q - 1) * log(y0) raised OverflowError
    with pytest.raises(ValueError, match="q - 1 is too large for a float"):
        ode_comparison(10**400 + 1, 1.0, 1.0, 1.0)


def test_ode_comparison_rejects_non_finite_inputs_before_integrating(monkeypatch):
    # c = inf once made the integrator run for longer than 20 s; the closed
    # form must not see a non-finite input either
    def never(*args, **kw):
        raise AssertionError("integrated a non-finite input")

    monkeypatch.setattr(integrator.np, "logaddexp", never)
    for args, key in (((math.inf, 1.0, 1.0), "cs"), ((math.nan, 1.0, 1.0), "cs"),
                      ((1.0, math.inf, 1.0), "y0s"), ((1.0, 1.0, math.inf), "ts"),
                      ((1.0, 1.0, math.nan), "ts")):
        with pytest.raises(SettingError, match=f"^{key} must be finite$") as err:
            ode_comparison(3, *args)
        assert err.value.key == key


def test_ensemble_matches_single_trajectories():
    params = params_of(n_modes=6, dt=1.0 / 64.0, t_final=2.0)
    x = np.full(13, 0.25)
    ens = run_ensemble(x, params, traj_ids=range(5))
    for j in range(5):
        assert np.array_equal(ens.states[j], run_ensemble(x, params, [j]).states[0])
    assert ens.n_traj == 5 and not ens.aborted.any()
    alone = run_ensemble(x, params, traj_ids=range(5), record_times=[2.0])
    assert np.array_equal(alone.states[:, 0], ens.states[:, 2, :])


SMALL = params_of(n_modes=4, dt=1.0 / 64.0)
CALM = np.full(9, 0.5)
# c0 = 20 makes the explicit cubic step overshoot until the guard trips
WILD = np.zeros(9)
WILD[0] = 20.0
DRIFT_FREE = replace(SMALL, poly=None)
# q0 = 1 forces the constant mode and a guard of 1.3 trips for rows 1, 2, 3
# and 7 of 0..8 from CALM, each at its own step, while the others live
PARTIAL = replace(SMALL, spectrum=replace(SMALL.spectrum, q=np.r_[1.0, SMALL.spectrum.q[1:]]),
                  blowup_guard=1.3)
ENSEMBLE_FIELDS = ("states", "aborted", "abort_times")


# sha256 of the little-endian float64 states of the cubic SMALL model to
# t = 2 from CALM, trajectories 0..7 on the trajectory_generator streams
PINNED_CUBIC_ENSEMBLE_SHA256 = "c5af80b7ae864af28de7329661bcc3197a6d8b8ad9e4d30200989b15bab32376"


def test_cubic_ensemble_on_the_trajectory_streams_is_pinned():
    ens = run_ensemble(CALM, replace(SMALL, t_final=2.0), traj_ids=range(8))
    assert ens.states.shape == (8, 3, 9) and not ens.aborted.any()
    digest = hashlib.sha256(np.ascontiguousarray(ens.states, dtype="<f8").tobytes())
    assert digest.hexdigest() == PINNED_CUBIC_ENSEMBLE_SHA256


def test_ensemble_is_bitwise_invariant_to_batching():
    # the default cubic model on its 135-point grid, where multi-row FFTs run
    big = params_of(n_modes=32)
    assert ExponentialEulerStepper(big).grid_points == 135
    for params, x, n_traj in ((SMALL, CALM, 7), (SMALL, WILD, 7), (DRIFT_FREE, CALM, 7),
                              (big, scaled_random_field(32, 100.0), 13), (PARTIAL, CALM, 9)):
        kw = dict(traj_ids=range(n_traj))
        if params is PARTIAL:
            kw["record_times"] = every_step(params)
        base = run_ensemble(x, params, **kw)
        for block_size in (1, 3, 512):
            for threads in (1, 4):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(integrator, "BLOCK_ROWS", block_size)
                    other = run_ensemble(x, params, threads=threads, **kw)
                for name in ENSEMBLE_FIELDS:
                    assert np.array_equal(getattr(base, name), getattr(other, name),
                                          equal_nan=True), name
        assert np.array_equal(base.aborted, ~np.isnan(base.abort_times))
        for row, t_abort in zip(base.states, base.abort_times, strict=True):
            after = base.times >= t_abort  # none for a row that never aborted
            assert np.all(np.isnan(row[after])) and np.all(np.isfinite(row[~after]))
        if params is PARTIAL:
            assert np.flatnonzero(base.aborted).tolist() == [1, 2, 3, 7]
            assert np.unique(base.abort_times[base.aborted]).size == 4
        elif x is WILD:
            # every row aborts at the fourth step, and the block stops
            assert base.aborted.all()
            assert np.all(base.abort_times == 0.0625)
            assert np.all(np.isnan(base.states[:, 1:]))
        else:
            assert not base.aborted.any() and np.all(np.isnan(base.abort_times))


def test_block_whose_rows_all_abort_stops_at_that_step(monkeypatch):
    # with no noise every WILD row follows one path; unguarded, its squared
    # norm first passes the default guard's square (1e24) at step k
    quiet = quiet_params(n_modes=4, dt=1.0 / 64.0, t_final=2.0)
    times = every_step(quiet)
    free = run_ensemble(WILD, replace(quiet, blowup_guard=math.inf), [0], times).states[0]
    with np.errstate(over="ignore", invalid="ignore"):
        k = int(np.argmax(~(np.einsum("ij,ij->i", free, free) <= 1e24)))
    assert 1 < k < quiet.n_steps
    calls = []
    step_block = ExponentialEulerStepper.step_block
    monkeypatch.setattr(ExponentialEulerStepper, "step_block",
                        lambda self, *args: calls.append(1) or step_block(self, *args))
    ens = run_ensemble(WILD, quiet, range(5), times)
    assert len(calls) == k
    assert ens.aborted.all() and np.all(ens.abort_times == k * quiet.dt)
    assert np.all(np.isfinite(ens.states[:, :k])) and np.all(np.isnan(ens.states[:, k:]))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    wild=st.booleans(),
    model=st.sampled_from(["cubic", "drift-free", "guarded"]),
    observe=st.booleans(),
    block_size=st.integers(1, 8),
    threads=st.sampled_from([1, 2, 4]),
    slab_len=st.integers(1, SMALL.n_steps),
)
def test_ensemble_is_bitwise_invariant_to_blocks_threads_and_slabs(
    wild, model, observe, block_size, threads, slab_len
):
    """Records and aborts do not depend on the blocks, threads or slabs; with
    observe, each block records the observables of its coefficient rows,
    bitwise, and an aborted row's records are NaN."""
    x = WILD if wild else CALM
    params = {"cubic": SMALL, "drift-free": DRIFT_FREE, "guarded": PARTIAL}[model]
    kw = dict(traj_ids=range(7), record_times=every_step(SMALL))
    # one block, one slab of every step, the coefficient rows themselves
    base = run_ensemble(x, params, **kw)
    with pytest.MonkeyPatch.context() as mp:
        # full blocks draw slabs of at most slab_len steps; a shorter last block,
        # longer ones
        mp.setattr(integrator, "_SLAB_BYTES", 8 * block_size * x.size * slab_len)
        mp.setattr(integrator, "BLOCK_ROWS", block_size)
        other = run_ensemble(x, params, threads=threads,
                             observe=(lambda u: observables(u, 1.0)) if observe else None, **kw)
    want = base.states
    if observe:
        want = observables(want.reshape(-1, x.size), 1.0).reshape(*want.shape[:2], -1)
    assert np.array_equal(want, other.states, equal_nan=True)
    for name in ("aborted", "abort_times"):
        assert np.array_equal(getattr(base, name), getattr(other, name), equal_nan=True), name
    after = base.times >= base.abort_times[:, None]  # none for a row that never aborted
    assert np.isnan(other.states[after]).all() and np.isfinite(other.states[~after]).all()
    # without drift WILD relaxes; with it every row aborts, and under the
    # guarded model's forcing CALM's rows 1, 2 and 3 abort, each at its own step
    if model == "guarded" and not wild:
        assert np.flatnonzero(base.aborted).tolist() == [1, 2, 3]
        assert np.unique(base.abort_times[base.aborted]).size == 3
    else:
        assert base.aborted.all() if wild and model != "drift-free" else not base.aborted.any()


def wl_pin_cases():
    """W_L pin cases: a cubic run, an OU run, the aborting WILD start, and a
    forced q0 with a guard of 6 that W_L crosses (norm 7.8) while the state
    (norm 4.3) does not."""
    q = SMALL.spectrum.q.copy()
    q[0] = 8.0
    two = replace(SMALL, t_final=2.0)
    return {
        "cubic": (two, CALM, 3),
        "ou": (replace(two, poly=None), np.linspace(-1.0, 1.0, 9), 4),
        "wild": (SMALL, WILD, 0),
        "q0": (replace(SMALL, t_final=3.0, spectrum=replace(SMALL.spectrum, q=q), seed=7,
                       blowup_guard=6.0), CALM, 1),
    }


# sha256 of the little-endian float64 bytes of W_L at the integer times, then
# of its integer-time rows and of all its rows recorded at every step, as the
# block loop wrote them when it advanced W_L next to the state
PINNED_WL_SHA256 = {
    "cubic": "3f748dc1e519e2310d240de2268eb6a233aef7c1b57b178fbb92d37d8152076d",
    "ou": "a8ce69f723451b4d76f7102c083f4aa3a289584643035f083ed401f0fcd8ddd3",
    "wild": "0ffb229426faa275bad9cbc7008b52276fbb725da2277f05d6b43f76811b0085",
    "q0": "4bea61beb782012a953ea57904a01fa4f21340a4286c00ab9de9a42759d621f3",
}


@pytest.mark.usefixtures("philox_streams")
@pytest.mark.parametrize("case", sorted(PINNED_WL_SHA256))
def test_convolution_records_are_pinned(case):
    params, x, tid = wl_pin_cases()[case]
    wl = state_and_wl(x, params, tid)[1]
    dense_states, dense_wl = state_and_wl(x, params, tid, every_step(params))
    digest = hashlib.sha256()
    for a in (wl, dense_wl[:: round(1.0 / params.dt)], dense_wl):
        digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    # W_L is NaN exactly where the state is: from the abort on for WILD only
    nan_rows = np.isnan(dense_wl).any(axis=1)
    assert np.array_equal(nan_rows, np.isnan(dense_states).any(axis=1))
    assert nan_rows.sum() == (61 if case == "wild" else 0)
    assert digest.hexdigest() == PINNED_WL_SHA256[case]


def test_run_ensemble_clamps_worker_threads(monkeypatch):
    workers = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            workers.append(max_workers)
            super().__init__(max_workers)

    # run_ensemble imports the pool class at call time
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    params = quiet_params(n_modes=3)
    x = np.full(7, 0.5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrator, "BLOCK_ROWS", 1)
        ens = run_ensemble(x, params, traj_ids=range(3), threads=8)
    # no more threads than blocks or usable cores
    want = min(3, len(os.sched_getaffinity(0)))
    assert workers == [want]
    assert np.array_equal(ens.states, run_ensemble(x, params, traj_ids=range(3)).states)


def test_ensemble_workers_counts_cpus_without_an_affinity_query(monkeypatch):
    # where os has no sched_getaffinity the cores are os.cpu_count(), and one
    # when that is unknown
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert integrator.ensemble_workers(8) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert integrator.ensemble_workers(8) == 1


def test_each_block_draws_in_slabs_of_its_own_budget(monkeypatch):
    """A block's slab is sized from the block alone: on 1, 2 and 4 workers
    every block refills as often, each of its slabs fits _SLAB_BYTES, and the
    draws and records do not change."""
    calls = []  # (trajectory id, normals drawn), in call order

    class Recording:
        def __init__(self, gen, tid):
            self._gen, self._tid = gen, tid

        def standard_normal(self, *, out):
            calls.append((self._tid, out.size))
            return self._gen.standard_normal(out=out)

    make_generator = integrator.trajectory_generator
    monkeypatch.setattr(integrator, "trajectory_generator",
                        lambda seed, tid: Recording(make_generator(seed, tid), tid))
    # as many workers as threads, whatever the cores
    monkeypatch.setattr(integrator, "ensemble_workers", lambda threads: threads)
    rows, n_traj = 4, 10  # blocks of 4, 4 and 2 rows
    row_step_bytes = 8 * CALM.size
    budget = row_step_bytes * rows * 12
    monkeypatch.setattr(integrator, "_SLAB_BYTES", budget)
    monkeypatch.setattr(integrator, "BLOCK_ROWS", rows)
    # a full block's longest slab is 12 steps, so it draws its 64 steps in 6
    # slabs of 11; the 2-row block's is 24, so it draws 3 slabs of 22
    want_refills = [6] * 8 + [3] * 2
    want_first = [CALM.size * 11] * 8 + [CALM.size * 22] * 2  # a row's first fill
    base = None
    for threads in (1, 2, 4):
        calls.clear()
        ens = run_ensemble(CALM, SMALL, range(n_traj), threads=threads)
        first = {}
        drawn = dict.fromkeys(range(n_traj), 0)
        refills = dict.fromkeys(range(n_traj), 0)
        for tid, size in calls:
            first.setdefault(tid, size)
            drawn[tid] += size
            refills[tid] += 1
        # every row draws each of its 64 steps once
        assert drawn == dict.fromkeys(range(n_traj), SMALL.n_steps * CALM.size)
        assert [refills[tid] for tid in range(n_traj)] == want_refills
        assert [first[tid] for tid in range(n_traj)] == want_first
        for lo in range(0, n_traj, rows):
            assert 8 * sum(first[tid] for tid in range(lo, min(lo + rows, n_traj))) <= budget
        if base is None:
            base = ens
        for name in ENSEMBLE_FIELDS:
            assert np.array_equal(getattr(base, name), getattr(ens, name), equal_nan=True)


def test_ensemble_record_times_and_windows():
    params = params_of(n_modes=3, dt=1.0 / 32.0, t_final=2.0)
    x = np.zeros(7)
    ens = run_ensemble(x, params, traj_ids=[0, 1], record_times=[0.5, 1.0, 2.0])
    assert ens.states.shape == (2, 3, 7)
    # the window sup dominates the sup at each recorded time inside
    sups = sup_norm_values(ens.states[:, 1:, :].reshape(-1, 7), 3).reshape(2, 2)
    assert np.all(window_sup(x, params, [0, 1], 0.5, 2.0) + 1e-12 >= sups.max(axis=1))
    # WILD aborts at step 4 (t = 0.0625): NaN once the window reaches it
    assert np.all(np.isfinite(window_sup(WILD, SMALL, range(3), 0.0, 0.046875)))
    assert np.all(np.isnan(window_sup(WILD, SMALL, range(3), 0.0, 0.0625)))
    with pytest.raises(ValueError, match="^times lists 0.013, which is not on the grid of dt"):
        run_ensemble(x, params, traj_ids=[0], record_times=[0.013])
    # two record times on one step would leave the first one's column NaN;
    # times within 1e-9 of each other land on one step too
    for times in ([1.0, 2.0, 1.0], [0.5, 1.0, 1.0 + 1e-10]):
        with pytest.raises(ValueError, match=re.escape(f"times lists 1.0 and {times[-1]!r}, "
                                                       "both on step 32 of the grid")):
            run_ensemble(x, params, traj_ids=[0], record_times=times)


def test_trajectory_csv_format_and_round_trip(tmp_path):
    params = params_of(n_modes=4, dt=1.0 / 32.0, t_final=2.0)
    ens = run_ensemble(np.full(9, 0.3), params, traj_ids=[0, 1])
    out = tmp_path / "traj.csv"
    assert write_trajectory_csv(out, [ens], gamma=1.0, header_lines=["alpha = 2.0"]) is None
    lines = out.read_text().splitlines()
    assert lines[0] == "# alpha = 2.0"
    assert lines[1] == "trajectory,t,norm_0,norm_gamma,norm_sup,aborted,c0,a1,b1,a2,b2,a3"
    body = lines[2:]
    assert len(body) == 2 * 3
    first = body[0].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0 and first[5] == "0"
    # norms in the file equal recomputed norms from the recorded coefficients
    state = ens.states[0, 0]
    assert float(first[2]) == pytest.approx(np.sqrt(np.sum(state**2)), rel=1e-15)
    assert float(first[3]) == pytest.approx(norm_gamma(state, 1.0), rel=1e-15)
    assert [float(v) for v in first[6:]] == list(state[:6])


def test_trajectory_csv_marks_aborted_rows(tmp_path):
    params = quiet_params(n_modes=2, t_final=2.0)
    x = np.zeros(5)
    x[0] = 1e8
    ens = run_ensemble(x, params, traj_ids=[4])
    write_trajectory_csv(tmp_path / "a.csv", [ens], 1.0, [])
    rows = (tmp_path / "a.csv").read_text().splitlines()[1:]
    assert rows[0].split(",")[5] == "0"  # t = 0 row is intact
    for row in rows[1:]:
        fields = row.split(",")
        assert fields[5] == "1"
        assert all(v == "" for v in fields[2:5] + fields[6:])


def test_trajectory_csv_cells_are_fmt_value_of_their_numbers(tmp_path):
    # the writer's %d/%r format string is its own copy of the one writing rule:
    # ids and the aborted flag in digits, every float by its repr
    results = writer_results(4)
    write_trajectory_csv(tmp_path / "a.csv", results, 1.0, [])
    want = []
    for ens in results:
        finite = np.all(np.isfinite(ens.states), axis=-1)
        u = ens.states[finite]  # trajectory-major, as the file is
        norms = iter(zip(row_norms(u, 0.0), row_norms(u, 1.0), sup_norm_values(u, 4), u[:, :6]))
        for tid, rows_finite in zip(ens.traj_ids, finite):
            for t, ok in zip(ens.times, rows_finite):
                if ok:
                    n0, n1, nsup, coeffs = next(norms)
                    cells = [tid, t, n0, n1, nsup, False, *coeffs]
                else:
                    cells = [tid, t, "", "", "", True, *[""] * 6]
                want.append(",".join(map(fmt_value, cells)))
    rows = (tmp_path / "a.csv").read_text().splitlines()[1:]
    assert "1" in {row.split(",")[5] for row in rows}  # trajectory 2's aborted span
    assert rows == want


def writer_results(n_modes):
    """Two OU ensembles of three trajectories; at 4 modes trajectory 2
    crosses the guard at t = 1.1875."""
    params = params_of(
        n_modes=n_modes, dt=1.0 / 16.0, t_final=3.0, poly=None, seed=1, blowup_guard=2.0,
        k_star=n_modes, q_overrides=dict.fromkeys(range(n_modes + 1), 1.0),
    )
    slots = 2 * n_modes + 1
    return [
        run_ensemble(np.full(slots, 0.1), params, [0, 1, 2]),
        run_ensemble(np.linspace(-0.4, 0.4, slots), params, [3, 4, 5]),
    ]


# write_trajectory_csv(path, writer_results(n_modes), 1.0, ["seed = 1"]) as the
# row-by-row writer wrote it: one sup-norm call per trajectory, two sums per row
PINNED_CSV_4_MODES = """\
# seed = 1
trajectory,t,norm_0,norm_gamma,norm_sup,aborted,c0,a1,b1,a2,b2,a3
0,0.0,0.30000000000000004,105.27091684533305,0.16117458742741478,0,0.1,0.1,0.1,0.1,0.1,0.1
0,1.0,0.5972721836356678,36.77781988021605,0.6132191806046059,0,0.5835238181806226,0.052757181389645746,0.0697319093479525,-0.011432376017812693,0.06271857831083068,-0.023467786926563722
0,2.0,0.1416761559407973,33.692260426795684,0.09087234810193429,0,-0.0668904392024468,0.018353583118151977,0.07275064005213609,0.04061707754963711,-0.06546602791003703,0.04831554985025388
0,3.0,0.2893853560011046,43.42543783034961,0.27696932908275607,0,-0.2502176802865618,-0.06012868584326875,-0.05411531335963561,0.05335522554572884,0.02264832054092326,0.09266504512637165
1,0.0,0.30000000000000004,105.27091684533305,0.16117458742741478,0,0.1,0.1,0.1,0.1,0.1,0.1
1,1.0,0.35483222388282354,28.261996297640813,0.34753049928602325,0,0.3087419100694125,0.16086042770417558,-0.014416790026698791,0.03801019358488361,-0.001935036913311519,-0.03495060938730788
1,2.0,0.7511000855609075,29.433167909483064,0.7597188545050328,0,0.6865867087350562,0.1104080449831664,0.2779999307435354,-0.01830919791222802,0.030277368731648786,-0.0008122106351802551
1,3.0,0.212991967176166,45.053462246285534,0.11133277324229696,0,-0.06347637322397384,-0.10125664184693277,-0.10994847693317657,0.0031276902670139017,-0.08853562367643773,0.020950455885479276
2,0.0,0.30000000000000004,105.27091684533305,0.16117458742741478,0,0.1,0.1,0.1,0.1,0.1,0.1
2,1.0,1.4793585799920346,27.7269001172589,1.5115549128682686,0,-1.4650750560236008,-0.1952344327244529,0.027267534201486615,-0.012469043505182445,0.0029920326875350132,-0.016593695195953863
2,2.0,,,,1,,,,,,
2,3.0,,,,1,,,,,,
3,0.0,0.7745966692414834,326.9195269158511,0.5019737770423972,0,-0.4,-0.30000000000000004,-0.2,-0.09999999999999998,0.0,0.09999999999999998
3,1.0,0.3894316882147314,28.817575316513953,0.3644761748297259,0,-0.30614379608224607,0.19514978635288935,0.09903471383286128,-0.09163993023859811,-0.015051429377804048,0.003398006742172087
3,2.0,0.36637115844264107,32.61081760445672,0.28281036437577006,0,0.22304819433532216,-0.13972712513489255,-0.24829778677780817,-0.004043408676363386,-0.005566320532386728,-0.036341260321780075
3,3.0,0.2661018309171967,41.38170612056678,0.1154208723315768,0,0.0757717654322895,0.16455851097742122,-0.12580968987297986,-0.03619273985625262,0.11347339654990916,-0.05782911142512958
4,0.0,0.7745966692414834,326.9195269158511,0.5019737770423972,0,-0.4,-0.30000000000000004,-0.2,-0.09999999999999998,0.0,0.09999999999999998
4,1.0,0.9922899524035614,30.373156926228738,1.0082847361226082,0,-0.9806836688274004,0.0680049748368845,-0.014891198432663521,-0.042387068681975906,0.11905403839705757,-0.00374907652929858
4,2.0,0.8760046348192729,33.93975875003889,0.8854363515697736,0,-0.8282188277291805,0.21598770984523682,-0.1531283485427479,-0.020883548679490736,-0.06448821331437228,-0.07495043874376914
4,3.0,0.6690566302768358,35.00594658029511,0.678263830426016,0,0.6527681532715219,-0.06644432810152259,-0.04589280756108108,-0.0962255984498625,-0.023378327182694128,0.057078543936053425
5,0.0,0.7745966692414834,326.9195269158511,0.5019737770423972,0,-0.4,-0.30000000000000004,-0.2,-0.09999999999999998,0.0,0.09999999999999998
5,1.0,0.23449121891023497,30.16130351075496,0.22959224233446035,0,0.20406006274021252,-0.007044292173620424,0.07418924090060312,-0.046403630563713646,0.007509165365162974,-0.06906227077585812
5,2.0,0.4541073318067008,24.443126432683204,0.4465016048679411,0,0.39768432559426903,-0.12683883737955726,-0.16853486483238664,-0.008937026107276402,0.03465394222481412,-0.02662025393959426
5,3.0,0.474970587731725,19.18839800911251,0.4836295281565032,0,-0.4518301286979305,0.08464941653825492,0.11162905702108358,0.023759042591373663,-0.00739283791521486,0.005165218513766853
"""

PINNED_CSV_2_MODES = """\
# seed = 1
trajectory,t,norm_0,norm_gamma,norm_sup,aborted,c0,a1,b1,a2,b2
0,0.0,0.223606797749979,23.191617855290836,0.14564224101101675,0,0.1,0.1,0.1,0.1,0.1
0,1.0,0.7819541325482374,11.831274805792372,0.8052812640218832,0,0.7595161760682421,-0.09711781445225125,0.14714711910750977,-0.014850476098960298,-0.05729539697003802
0,2.0,0.5801915387933946,22.22687834143165,0.5738315224825952,0,0.5475944408539622,0.0501072685360747,0.12607509383219953,0.06899218890046424,-0.11660600438683245
0,3.0,0.3780782110861017,17.601691765967182,0.3678073522498671,0,-0.3230031369793323,-0.1353564916105014,-0.09927044430044839,0.08294784727269364,-0.05963020123805777
1,0.0,0.223606797749979,23.191617855290836,0.14564224101101675,0,0.1,0.1,0.1,0.1,0.1
1,1.0,0.09319593484758887,10.898238977643889,0.055050320560921,0,0.04230997184237853,0.040089418737167565,0.027151442359038117,0.02114175922175524,-0.0640625651606487
1,2.0,0.5792570918849451,12.890485925689138,0.5889200500066816,0,0.5693085895029949,0.06899094537866847,-0.02090242135183077,0.013219480841086009,0.07781447153836123
1,3.0,0.3606062664985004,12.724162974694972,0.2695879878431549,0,0.20472589874012334,0.17830892644895543,0.2357759513853956,-0.02188748859109317,-0.016147791277558932
2,0.0,0.223606797749979,23.191617855290836,0.14564224101101675,0,0.1,0.1,0.1,0.1,0.1
2,1.0,0.5844278652473813,12.171224648588387,0.6016718768378229,0,-0.5608154387318329,0.08502846431623322,0.12421217404050926,0.019893951249918905,-0.06314823938521275
2,2.0,0.6577682187245129,18.697839067854094,0.6757434766683422,0,-0.6304886500748957,0.1467266088124008,0.035568000042281424,-0.05726082859227213,-0.09523921901761677
2,3.0,0.7986599470686349,6.783966552079321,0.8108580904553397,0,-0.790891064732543,-0.09447278703179161,-0.04856323466557766,0.017192266418993893,0.027748252242966304
3,0.0,0.632455532033676,71.52909212885346,0.47659172569711805,0,-0.4,-0.2,0.0,0.20000000000000007,0.4
3,1.0,0.18160722008801253,18.34951092597525,0.15674457755024163,0,0.13689835966867608,-0.030534831123560237,0.006198233056794112,0.10557395540746421,-0.04608001131698757
3,2.0,0.8634545955231939,3.668173967598752,0.8725638572326082,0,0.8619435464969188,0.006677582227242242,-0.04695893607698341,0.0013247803126856007,0.018859330785466814
3,3.0,0.3443791536138059,10.846341720633651,0.33321972833647867,0,-0.2951784124049488,0.05611309187041087,-0.15976011963662617,-0.041658762189942716,0.03254656542695083
4,0.0,0.632455532033676,71.52909212885346,0.47659172569711805,0,-0.4,-0.2,0.0,0.20000000000000007,0.4
4,1.0,0.8704654785454026,16.287339303485005,0.88399891431024,0,-0.8322369008552588,0.19925461448337772,0.13675429687318616,0.0803641814491666,0.01514428697289169
4,2.0,0.2516726728564323,14.214200468328128,0.24682190175917348,0,-0.21659155811142333,0.004044421052499749,-0.0948521806329052,0.07731083034147868,-0.03790742957535684
4,3.0,0.42238310983974087,14.31719684465567,0.33721840258154245,0,-0.2602196870523381,0.255337073976364,0.210948385491915,-0.015179655152455333,-0.027686482789795193
5,0.0,0.632455532033676,71.52909212885346,0.47659172569711805,0,-0.4,-0.2,0.0,0.20000000000000007,0.4
5,1.0,0.7938946122514623,18.282675501491102,0.8138106560787285,0,-0.7633505556393395,-0.0651060575767616,0.18026730579426772,0.09261515551461189,-0.04745437034144413
5,2.0,0.8397952694482873,11.30307344334433,0.8557443225274731,0,-0.8304577626941474,0.06029571841790462,-0.08753086981347641,0.050270908383739224,-0.04209047290291981
5,3.0,0.707710948619657,6.280119595412744,0.7181233902233273,0,0.7055727313580737,0.03764575447026873,-0.012858471239285539,0.0017996254721195943,-0.037896250420787536
"""


@pytest.mark.usefixtures("philox_streams")
@pytest.mark.parametrize("n_modes", [4, 2])
def test_trajectory_csv_text_is_pinned(tmp_path, monkeypatch, n_modes):
    results = writer_results(n_modes)
    want = {4: PINNED_CSV_4_MODES, 2: PINNED_CSV_2_MODES}[n_modes]
    if n_modes == 4:
        assert results[0].aborted.tolist() == [False, False, True]
    write_trajectory_csv(tmp_path / "a.csv", results, 1.0, ["seed = 1"])
    assert (tmp_path / "a.csv").read_text() == want
    # one trajectory a group: four rows of 8 (2 N + 4) + 24 * 64 bytes fill 6528
    monkeypatch.setattr(integrator, "_GROUP_BYTES", 6528)
    write_trajectory_csv(tmp_path / "b.csv", results, 1.0, ["seed = 1"])
    assert (tmp_path / "b.csv").read_text() == want


@functools.cache
def philox_writer_results(n_modes):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrator, "trajectory_generator", oracles.philox_generator)
        return writer_results(n_modes)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(n_modes=st.sampled_from([4, 2]), data=st.data())
def test_trajectory_csv_is_independent_of_the_group_budget(tmp_path_factory, n_modes, data):
    """Any group budget, from less than one trajectory's four rows (one
    trajectory a group) to the 24 rows of both ensembles (each ensemble in
    one group), writes the pinned text."""
    row_bytes = 8 * (2 * n_modes + 4) + 24 * 64
    group_bytes = data.draw(st.integers(0, 2 * 3 * 4 * row_bytes), label="budget")
    out = tmp_path_factory.getbasetemp() / "groups.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrator, "_GROUP_BYTES", group_bytes)
        write_trajectory_csv(out, philox_writer_results(n_modes), 1.0, ["seed = 1"])
    assert out.read_text() == {4: PINNED_CSV_4_MODES, 2: PINNED_CSV_2_MODES}[n_modes]


def test_trajectory_csv_consumes_an_iterable_lazily(tmp_path):
    """A generator is taken one ensemble at a time: the file is opened at the
    first, the writer drops each before taking the next, a failure after the
    file is opened leaves no file, and an empty iterable is an error."""
    results = philox_writer_results(4)
    path = tmp_path / "a.csv"

    def ensembles(fail=False):
        assert not path.exists()
        for ens in results:
            ens = copy.copy(ens)
            alive = weakref.ref(ens)
            yield ens
            del ens
            assert alive() is None
        if fail:
            raise RuntimeError("stepping failed")

    write_trajectory_csv(path, ensembles(), 1.0, ["seed = 1"])
    assert path.read_text() == PINNED_CSV_4_MODES
    path.unlink()
    with pytest.raises(RuntimeError, match="stepping failed"):
        write_trajectory_csv(path, ensembles(fail=True), 1.0, ["seed = 1"])
    assert not path.exists()
    with pytest.raises(ValueError, match="no ensembles to write"):
        write_trajectory_csv(path, iter([]), 1.0, ["seed = 1"])
    assert not path.exists()


def writer_peak_bytes(tmp_path, n_traj):
    """tracemalloc peak of writing n_traj drift-free trajectories (8 modes,
    records at t = 0 and 1) from each of two starts.  The second forces the
    constant mode (q0 = 0.5) under a guard of 0.45, so about 44% of its
    trajectories cross the guard mid-run and their t = 1 records are NaN."""
    params = params_of(n_modes=8, dt=1.0 / 16.0, poly=None, seed=3)
    aborting = params_of(n_modes=8, dt=1.0 / 16.0, poly=None, seed=3, blowup_guard=0.45,
                         q_overrides={0: 0.5})
    results = [run_ensemble(np.full(17, 0.1), p, range(n_traj)) for p in (params, aborting)]
    assert 0.3 < np.mean(results[1].abort_times < 1.0) < 0.6
    tracemalloc.start()
    try:
        write_trajectory_csv(tmp_path / f"{n_traj}.csv", results, 1.0, ["seed = 3"])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trajectory_csv_writer_memory_does_not_grow_with_the_records(tmp_path):
    # 4,000 and 32,000 trajectories hold 1.1 and 8.7 MB of records a start; a
    # writer that builds the whole text peaks near 7 times the records, and
    # one group of at most 1 MB of work arrays peaks below 0.9 MB, whether
    # its records are live or aborted (NaN)
    small, large = (writer_peak_bytes(tmp_path, n) for n in (4000, 32000))
    assert large < 1.2e6 and small < 1.2e6
    assert abs(large - small) <= 0.1 * max(large, small)
