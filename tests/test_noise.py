"""Tests for spectrum admissibility and exact convolution sampling.

The convolution W_L is the drift-free model (poly = None) run from zero, so
its samples come from integrator.run_ensemble.  The statistical oracles are
the closed-form Ornstein-Uhlenbeck variance (cross-checked by a fine-step
Euler-Maruyama recursion with Richardson extrapolation) and plain sample
statistics with explicit standard errors.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import glmix.integrator as integrator
from glmix.config import RunConfig
from glmix.field import eigenvalues
from glmix.integrator import run_ensemble
from glmix.noise import NoiseSpectrum, trajectory_generator
from sup_windows import mean_and_stderr, window_sup


# first three standard normals of trajectory_generator(seed, id): SFC64 seeded
# by the child (id,) of SeedSequence(seed)
PINNED_FIRST_NORMALS = {
    (0, 0): [-0.5504811808293575, 0.5197080686753037, 0.23055672602603425],
    (1234, 1): [0.8970672136581997, 1.0817969487095258, -0.41012893245385945],
    (2**64 - 1, 2**63 - 1): [0.7569210590360633, -0.22133132796119487, 0.0013406550933359033],
}


def spectrum_of(n_modes, **kw):
    """The spectrum of a run with n_modes and settings kw, RunConfig's
    defaults elsewhere."""
    return RunConfig(n_modes=n_modes, **kw).spectrum()


def zero_noise_spectrum(n_modes=3):
    """All q_k = 0 is admissible when no mode lies beyond k_star."""
    return spectrum_of(n_modes, k_star=n_modes)


def ou_params(spec, **kw):
    """Drift-free parameters driven by spec, settings kw, RunConfig's
    defaults elsewhere."""
    return replace(RunConfig(n_modes=spec.n_modes, poly=None, **kw).params(), spectrum=spec)


def convolution_paths(spec, h, seed, traj_ids, t_final=1.0, x=None, **kw):
    """W_L records of the drift-free model: every step when no record_times."""
    params = ou_params(spec, dt=h, t_final=t_final, seed=seed)
    kw.setdefault("record_times", h * np.arange(params.n_steps + 1))
    x = np.zeros(2 * spec.n_modes + 1) if x is None else x
    return run_ensemble(x, params, traj_ids, **kw).states


def sup_gaussian_moment(spec, p, h, n_samples, seed=0):
    """E sup_{0 < s <= 1} ||W_L(s)||_inf^p with its standard error, over the
    drift-free paths of trajectories 0..n_samples-1 run from zero."""
    params = ou_params(spec, dt=h, seed=seed)
    sups = window_sup(np.zeros(2 * spec.n_modes + 1), params, range(n_samples), 0.0, 1.0)
    return mean_and_stderr(sups**p)


def test_default_spectrum_is_admissible():
    spec = RunConfig().spectrum()  # it would raise if it were not
    assert spec.q[0] == 0.0 and np.all(spec.q[1:4] == 0.0)
    k = np.arange(4, 33, dtype=float)
    assert np.allclose(spec.q[4:], k**-4.0)


def test_beta_window_open_lower_endpoint():
    # beta = alpha - 1/8 exactly sits on the open end and must be rejected
    spec = spectrum_of(16)
    message = "violation = beta_window\nbound = beta must lie in (alpha - 1/8, alpha]"
    with pytest.raises(ValueError, match=re.escape(message)):
        replace(spec, alpha=2.0, beta=15.0 / 8.0)
    # nudged inside the window the tail bounds take over; with beta < alpha
    # the default tail still fits between the pinching curves
    replace(spec, alpha=2.0, beta=15.0 / 8.0 + 1e-6)


def test_violation_report_fields_and_text():
    spec = spectrum_of(16)
    q = spec.q.copy()
    q[5] = 0.0
    with pytest.raises(ValueError) as err:
        replace(spec, q=q)
    assert str(err.value).splitlines() == [
        "inadmissible noise spectrum:",
        "violation = tail_lower",
        "bound = q_k must be at least c1 * k^(-2 alpha) for k > k_star",
        "k = 5",
        "value = 0.0",
    ]


def test_validation_order_and_rules():
    spec = spectrum_of(16)
    q = spec.q

    def refused(rule, **kw):
        with pytest.raises(ValueError, match=re.escape(f"violation = {rule}\n")) as err:
            replace(spec, **kw)
        return str(err.value)

    refused("c1_positive", c1=0.0)
    refused("c2_positive", c2=-1.0)
    refused("alpha_floor", alpha=1.5, beta=1.5)
    assert refused("k_star_sign", k_star=-1).endswith("\nvalue = -1")
    qq = q.copy()
    qq[7] = np.inf
    assert "\nk = 7\nvalue = inf" in refused("q_finite", q=qq)
    qq = q.copy()
    qq[2] = -1e-3
    assert "\nk = 2\n" in refused("q_nonnegative", q=qq)
    qq = q.copy()
    qq[6] = 1.0  # far above c2 k^-4
    assert "\nk = 6\n" in refused("tail_upper", q=qq)
    # the head k <= k_star is genuinely free: huge q_0 passes
    qq = q.copy()
    qq[0] = 1e6
    replace(spec, q=qq)
    zero_noise_spectrum()


def first_violation(q, alpha, beta, c1, c2, k_star):
    """The admissibility rules restated, in order: (rule, k) of the first
    that fails, k None for the constants, or None if all hold.  The tail
    bounds are closed up to a relative 1e-12."""
    if not (math.isfinite(c1) and c1 > 0):
        return "c1_positive", None
    if not (math.isfinite(c2) and c2 > 0):
        return "c2_positive", None
    if not (math.isfinite(alpha) and alpha >= 2):
        return "alpha_floor", None
    if not (math.isfinite(beta) and alpha - 1 / 8 < beta <= alpha):
        return "beta_window", None
    if k_star < 0:
        return "k_star_sign", None
    for rule, holds in (("q_finite", math.isfinite), ("q_nonnegative", lambda v: v >= 0)):
        bad = [k for k, v in enumerate(q) if not holds(v)]
        if bad:
            return rule, bad[0]
    for k in range(k_star + 1, len(q)):
        if q[k] < c1 * k ** (-2 * alpha) * (1 - 1e-12):
            return "tail_lower", k
        if q[k] > c2 * k ** (-2 * beta) * (1 + 1e-12):
            return "tail_upper", k
    return None


SPECIAL = [0.0, -1.0, math.nan, math.inf, -math.inf]


@st.composite
def spectrum_args(draw):
    """Admissible arguments, then up to two constants and two q entries
    replaced by 0, negative, NaN, +-inf or values across a pinching curve."""
    alpha = draw(st.floats(2.0, 3.0))
    args = dict(alpha=alpha, beta=alpha - draw(st.floats(0.0, 0.12)),
                c1=draw(st.floats(0.5, 2.0)), c2=draw(st.floats(0.5, 2.0)),
                k_star=draw(st.integers(0, 5)))
    lo = [1.0] + [args["c1"] * k ** (-2 * alpha) for k in range(1, 9)]
    hi = [1.0] + [args["c2"] * k ** (-2 * args["beta"]) for k in range(1, 9)]
    q = [
        draw(st.sampled_from([0.0, 1e6] if k <= args["k_star"] else [lo[k], hi[k]]
                             + [0.5 * (lo[k] + hi[k])]))
        for k in range(draw(st.integers(1, 8)) + 1)
    ]
    for k in draw(st.lists(st.integers(0, len(q) - 1), max_size=2)):
        q[k] = draw(st.sampled_from([*SPECIAL, 0.5 * lo[k], 2.0 * hi[k]]))
    bad = {"alpha": [*SPECIAL, 1.75], "beta": [*SPECIAL, alpha - 1 / 8, alpha + 1e-3],
           "k_star": [-1, -3]}
    for name in draw(st.lists(st.sampled_from(sorted(args)), max_size=2)):
        args[name] = draw(st.sampled_from(bad.get(name, SPECIAL)))
    return dict(q=q, **args)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(spectrum_args())
def test_spectrum_builds_exactly_when_every_rule_holds(args):
    first = first_violation(**args)
    if first is None:
        assert np.array_equal(NoiseSpectrum(**args).q, args["q"])
        return
    rule, k = first
    with pytest.raises(ValueError) as err:
        NoiseSpectrum(**args)
    lines = str(err.value).splitlines()
    assert lines[:2] == ["inadmissible noise spectrum:", f"violation = {rule}"]
    assert lines[2].startswith("bound = ")
    if k is not None:
        assert lines[3] == f"k = {k}"
    assert lines[-1].startswith("value = ")


def test_step_std_closed_form_and_monotonicity():
    spec = spectrum_of(8)
    ell = eigenvalues(8)
    q = spec.per_slot()
    for h in (1e-3, 0.1, 1.0):
        want = q * np.sqrt((1.0 - np.exp(-2.0 * ell * h)) / (2.0 * ell))
        assert np.allclose(spec.step_std(h), want, rtol=1e-12)
    # strictly increasing in h on forced slots (while the exponential is
    # still resolvable), with the stationary limit for large h
    s1 = spec.step_std(1e-4)
    s2 = spec.step_std(2e-4)
    forced = q > 0
    assert np.all(s2[forced] > s1[forced])
    assert np.allclose(spec.step_std(50.0), q / np.sqrt(2.0 * ell), rtol=1e-12)
    # small-h Taylor limit s^2(h)/h -> q^2
    s = spec.step_std(1e-6)
    assert np.allclose(s[forced] ** 2 / 1e-6, q[forced] ** 2, rtol=1e-4)
    with pytest.raises(ValueError):
        spec.step_std(0.0)
    with pytest.raises(ValueError):
        spec.step_std(np.inf)


def test_variance_matches_euler_maruyama_oracle():
    # dual route for the one-step variance: the exact expression against a
    # fine-step Euler-Maruyama variance recursion, Richardson-extrapolated
    # to remove the O(h) bias
    t = 0.125
    for k in (1, 2, 5):
        lk = float(eigenvalues(8)[2 * k - 1])
        q = 0.7

        def em_variance(h):
            v = 0.0
            for _ in range(int(round(t / h))):
                v = (1.0 - lk * h) ** 2 * v + q * q * h
            return v

        h = 1.0 / 131072.0
        em = 2.0 * em_variance(h / 2.0) - em_variance(h)
        exact = q * q * (1.0 - np.exp(-2.0 * lk * t)) / (2.0 * lk)
        assert np.isclose(em, exact, rtol=1e-5)
        spec = replace(spectrum_of(8, k_star=8), q=np.full(9, q))
        assert np.isclose(spec.step_std(t)[2 * k - 1] ** 2, exact, rtol=1e-12)


def test_increment_sample_variance_and_independence():
    # 1600 paths of 64 steps: the increments W_L(t+h) - e^{-Lh} W_L(t), the
    # first of which is the drawn increment itself (W_L(0) = 0)
    spec = spectrum_of(8)
    h = 1.0 / 64.0
    w = convolution_paths(spec, h, seed=99, traj_ids=range(1600))
    xi = (w[:, 1:] - np.exp(-eigenvalues(8) * h) * w[:, :-1]).reshape(-1, 17)
    std = spec.step_std(h)
    for j in (0, 1599):
        assert np.array_equal(w[j, 1], std * trajectory_generator(99, j).standard_normal(17))
    forced = np.flatnonzero(std > 0)
    n = xi.shape[0]
    for j in forced:
        sample_var = xi[:, j].var(ddof=1)
        se = sample_var * np.sqrt(2.0 / (n - 1))
        assert abs(sample_var - std[j] ** 2) < 4.0 * se
    # unforced slots are exactly zero
    assert np.all(w[:, :, std == 0.0] == 0.0)
    # cross-slot covariance vanishes within 4 standard errors
    for a, b in [(forced[0], forced[1]), (forced[2], forced[5])]:
        cov = np.mean(xi[:, a] * xi[:, b])
        se = std[a] * std[b] / np.sqrt(n)
        assert abs(cov) < 4.0 * se


def test_increments_chunk_invariance_and_determinism(monkeypatch):
    spec = spectrum_of(6)
    h = 1.0 / 32.0
    whole = convolution_paths(spec, h, seed=7, traj_ids=[3])
    # the first 32 steps of a run to t = 2 replay the run to t = 1
    longer = convolution_paths(spec, h, seed=7, traj_ids=[3], t_final=2.0)
    assert np.array_equal(whole, longer[:, :33])
    # draws made 6 steps at a time give the same path as one 32-step slab
    monkeypatch.setattr(integrator, "_SLAB_BYTES", 8 * 13 * 6)
    assert np.array_equal(whole, convolution_paths(spec, h, seed=7, traj_ids=[3]))
    monkeypatch.undo()
    # same (seed, trajectory) key replays the identical stream, wherever
    # the id sits in the ensemble
    again = convolution_paths(spec, h, seed=7, traj_ids=[5, 3, 4])
    assert np.array_equal(whole[0], again[1])
    # different trajectory ids give different draws
    assert not np.array_equal(whole[0], again[0])
    assert not np.array_equal(again[0], again[2])


def test_convolution_step_recursion_and_stationary_variance():
    spec = spectrum_of(8)
    h = 1.0 / 64.0
    ell = eigenvalues(8)
    q = spec.per_slot()
    # one step from a known state reproduces decay * prev + increment, the
    # increment being the first W_L step of the same stream
    prev = np.ones(17)
    stepped = convolution_paths(spec, h, seed=5, traj_ids=[1], x=prev)[0, 1]
    xi = convolution_paths(spec, h, seed=5, traj_ids=[1])[0, 1]
    assert np.array_equal(stepped, np.exp(-ell * h) * prev + xi)
    assert np.all(xi[q == 0.0] == 0.0)
    with pytest.raises(ValueError, match="length"):
        convolution_paths(spec, h, seed=5, traj_ids=[1], x=np.zeros(3))
    # an ensemble at t = 2 against the stationary law
    n = 4000
    w = convolution_paths(spec, h, seed=6, traj_ids=range(n), t_final=2.0,
                          record_times=[2.0])[:, 0]
    target = q**2 / (2.0 * ell)
    for j in np.flatnonzero(q > 0):
        sample_var = w[:, j].var(ddof=1)
        se = sample_var * np.sqrt(2.0 / (n - 1))
        assert abs(sample_var - target[j]) < 5.0 * se
    assert np.all(w[:, q == 0.0] == 0.0)


@pytest.mark.usefixtures("philox_streams")
def test_sup_gaussian_check_zero_noise_and_scaling():
    est, se = sup_gaussian_moment(zero_noise_spectrum(), p=2.0, h=1.0 / 32.0, n_samples=50)
    assert est == 0.0 and se == 0.0
    base = spectrum_of(8)
    doubled = replace(base, q=2.0 * base.q, c1=2.0, c2=2.0)
    e1, se1 = sup_gaussian_moment(base, p=2.0, h=1.0 / 32.0, n_samples=200, seed=3)
    e2, _ = sup_gaussian_moment(doubled, p=2.0, h=1.0 / 32.0, n_samples=200, seed=3)
    # pinned, so any drift in the shared ensemble loop shows here
    assert e1 == pytest.approx(4.0394550277134756e-10, rel=1e-12)
    assert se1 == pytest.approx(7.507568384390057e-12, rel=1e-12)
    # doubling every amplitude scales the p = 2 moment by exactly 4 pathwise
    assert np.isclose(e2, 4.0 * e1, rtol=1e-12)


@pytest.mark.parametrize("seed, tid", sorted(PINNED_FIRST_NORMALS))
def test_trajectory_generator_first_normals_are_pinned(seed, tid):
    got = trajectory_generator(seed, tid).standard_normal(3).tolist()
    assert got == PINNED_FIRST_NORMALS[seed, tid]


def test_trajectory_ids_past_32_bits_do_not_alias_seeds():
    # an entropy list [seed, id] of 32-bit words makes these two one stream
    a = trajectory_generator(1, 1 + 2**32).standard_normal(8)
    b = trajectory_generator(1 + 2**32, 1).standard_normal(8)
    assert not np.any(a == b)


def test_sup_gaussian_check_stderr_shrinks_like_root_n():
    spec = spectrum_of(8)
    ses = []
    for n in (250, 1000, 4000):
        est, se = sup_gaussian_moment(spec, p=2.0, h=1.0 / 32.0, n_samples=n, seed=11)
        assert np.isfinite(est) and est > 0.0
        ses.append(se)
    assert ses[0] > ses[1] > ses[2]
    # each quadrupling of n should roughly halve the standard error
    assert 2.5 < ses[0] / ses[2] < 6.5

