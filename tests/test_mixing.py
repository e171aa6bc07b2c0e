"""Tests for ensemble moments, the histogram law-distance proxy, rate fits.

Independent routes: a pure-dict histogram recount of the proxy, the
axis-by-axis histogram of oracles.law_distance_reference (bitwise), an
analytic 1-D Gaussian total-variation value via erf, and exact synthetic
exponential tracks for the rate fitter.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import glmix.mixing as mixing
import oracles
from glmix.field import scaled_random_field
from glmix.integrator import SimulationParams, run_ensemble
from glmix.mixing import (
    EnsembleSpec,
    MixingReport,
    RateFit,
    fit_rate,
    law_distance,
    mixing_report,
    moment_bound,
    observables,
    report_csv,
    report_summary,
)
from glmix.noise import NoiseSpectrum
from sup_windows import mean_and_stderr, window_sup


def quiet_params(n_modes=3, **kw):
    kw.setdefault("spectrum", NoiseSpectrum(q=np.zeros(n_modes + 1), k_star=n_modes))
    return SimulationParams(n_modes=n_modes, **kw)


def small_params(**kw):
    kw.setdefault("n_modes", 8)
    kw.setdefault("dt", 1.0 / 64.0)
    kw.setdefault("spectrum", NoiseSpectrum.default(kw["n_modes"]))
    kw.setdefault("seed", 7)
    return SimulationParams(**kw)


def test_ensemble_spec_validation_and_ids():
    params = small_params()
    with pytest.raises(ValueError, match="initial condition"):
        EnsembleSpec(initial_conditions=[], n_traj=10, params=params)
    with pytest.raises(ValueError, match="n_traj"):
        EnsembleSpec(initial_conditions=[np.zeros(17)], n_traj=1, params=params)
    with pytest.raises(ValueError, match="gamma"):
        EnsembleSpec(initial_conditions=[np.zeros(17)], n_traj=5, params=params,
                     gamma=3.0)
    with pytest.raises(ValueError, match="p must"):
        EnsembleSpec(initial_conditions=[np.zeros(17)], n_traj=5, params=params,
                     p=0.5)
    # NaN compares False both ways, so each check must fail on it
    with pytest.raises(ValueError, match="gamma"):
        EnsembleSpec(initial_conditions=[np.zeros(17)], n_traj=5, params=params,
                     gamma=math.nan)
    with pytest.raises(ValueError, match="p must"):
        EnsembleSpec(initial_conditions=[np.zeros(17)], n_traj=5, params=params,
                     p=math.nan)
    spec = EnsembleSpec(initial_conditions=[np.zeros(17), np.ones(17)],
                        n_traj=50, params=params)
    assert np.array_equal(spec.traj_ids(0), np.arange(0, 50))
    assert np.array_equal(spec.traj_ids(1), np.arange(50, 100))


def test_observables_content():
    rng = np.random.default_rng(5)
    states = rng.normal(size=(7, 9))
    obs = observables(states, gamma=1.0)
    assert obs.shape == (7, 6)
    w = oracles.ell(np.array([0, 1, 1, 2, 2, 3, 3, 4, 4], dtype=float)) ** 2
    want = np.sqrt((w * states**2).sum(axis=1))
    assert np.allclose(obs[:, 0], want, rtol=1e-12)
    assert np.array_equal(obs[:, 1:], states[:, :5])
    narrow = observables(rng.normal(size=(4, 3)), gamma=0.0)
    assert narrow.shape == (4, 4)


def test_law_distance_basic_properties():
    rng = np.random.default_rng(0)
    a = observables(rng.normal(size=(300, 9)), gamma=1.0)
    b = observables(rng.normal(size=(300, 9)) + 0.3, gamma=1.0)
    d_ab = law_distance(a, b, p=2.0)
    d_ba = law_distance(b, a, p=2.0)
    assert d_ab == d_ba and d_ab >= 0.0
    assert law_distance(a, a, p=2.0) == 0.0
    with pytest.raises(ValueError, match="nonempty"):
        law_distance(observables(np.zeros((0, 9)), 1.0), b, 2.0)
    # 3-slot states give 4 observable columns, 9-slot states 6
    with pytest.raises(ValueError, match="mode counts"):
        law_distance(a, observables(rng.normal(size=(10, 3)), 1.0), 2.0)
    bad = rng.normal(size=(300, 9))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        law_distance(observables(bad, 1.0), b, 2.0)


def dict_histogram_distance(a, b, gamma, p, weighted):
    """Independent recount: dict-of-bins histogram TV with V at bin centers."""
    def obs(states):
        modes = np.repeat(np.arange((states.shape[1] + 1) // 2), 2)[1 : states.shape[1] + 1]
        w = oracles.ell(modes.astype(float)) ** (2.0 * gamma)
        norms = np.sqrt((w * states**2).sum(axis=1))
        cols = [norms] + [states[:, j] for j in range(min(5, states.shape[1]))]
        return np.column_stack(cols)

    oa, ob = obs(a), obs(b)
    pooled = np.vstack([oa, ob])
    lo, hi = pooled.min(axis=0), pooled.max(axis=0)
    width = (hi - lo) / 32.0

    def key_of(row):
        key = []
        for j, x in enumerate(row):
            if width[j] > 0.0:
                key.append(min(31, max(0, int(math.floor((x - lo[j]) / width[j])))))
            else:
                key.append(0)
        return tuple(key)

    counts_a, counts_b = {}, {}
    for row in oa:
        k = key_of(row)
        counts_a[k] = counts_a.get(k, 0) + 1
    for row in ob:
        k = key_of(row)
        counts_b[k] = counts_b.get(k, 0) + 1
    total = 0.0
    for k in set(counts_a) | set(counts_b):
        pa = counts_a.get(k, 0) / len(oa)
        pb = counts_b.get(k, 0) / len(ob)
        if weighted:
            center = lo[0] + (k[0] + 0.5) * width[0] if width[0] > 0.0 else lo[0]
            v = center**p + 1.0
        else:
            v = 1.0
        total += v * abs(pa - pb)
    return total


def test_law_distance_matches_dict_recount():
    rng = np.random.default_rng(33)
    a = rng.normal(size=(400, 9)) * 0.5
    b = rng.normal(size=(400, 9)) * 0.5 + 0.2
    for weighted in (True, False):
        got = law_distance(observables(a, 1.0), observables(b, 1.0), p=2.0, weighted=weighted)
        want = dict_histogram_distance(a, b, 1.0, 2.0, weighted)
        assert np.isclose(got, want, rtol=1e-12)
    got = law_distance(observables(a, 0.5), observables(b, 0.5), p=1.0)
    want = dict_histogram_distance(a, b, 0.5, 1.0, True)
    assert np.isclose(got, want, rtol=1e-12)


@st.composite
def observable_clouds(draw):
    """Two clouds of observable rows with constant columns, repeated values,
    values on bin edges, unequal sizes and single rows."""
    k = draw(st.integers(1, 6))
    n_a, n_b = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    n = n_a + n_b
    cols = []
    for j in range(k):
        kind = draw(st.sampled_from(["constant", "grid", "float"]))
        if kind == "constant":
            col = np.full(n, draw(st.floats(-10.0, 10.0)))
        elif kind == "grid":
            # offset + scale * {0..32}: pooled ranges of 32 steps put rows on edges
            ints = np.array(draw(st.lists(st.integers(0, 32), min_size=n, max_size=n)))
            col = draw(st.floats(-5.0, 5.0)) + draw(st.floats(1e-3, 1e3)) * ints
        else:
            col = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
        # axis 0 is a norm: nonnegative, so center**2.5 stays real
        cols.append(np.abs(col) if j == 0 else col)
    rows = np.column_stack(cols)
    a, b = rows[:n_a], rows[n_a:]
    if draw(st.booleans()):
        b = a[np.arange(n_b) % n_a]  # b repeats rows of a
    return a, b


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    clouds=observable_clouds(),
    p=st.sampled_from([1.0, 2.0, 2.5]),
    weighted=st.booleans(),
)
@example(clouds=(np.array([[0.0, 1.0]]), np.array([[2.0, 1.0]])), p=2.5, weighted=True)
@example(clouds=(np.zeros((3, 6)), np.zeros((1, 6))), p=1.0, weighted=True)
def test_law_distance_equals_the_axis_by_axis_histogram(clouds, p, weighted):
    a, b = clouds
    want = oracles.law_distance_reference(a, b, p, weighted)
    assert law_distance(a, b, p, weighted) == want
    assert law_distance(b, a, p, weighted) == oracles.law_distance_reference(b, a, p, weighted)


def test_law_distance_gaussian_oracle():
    # slot-0-only clouds turn the proxy into a 1-D histogram TV, comparable
    # with the closed-form distance between N(0,1) and N(2,1)
    rng = np.random.default_rng(42)
    n = 10_000
    a = np.zeros((n, 5))
    b = np.zeros((n, 5))
    a[:, 0] = rng.normal(0.0, 1.0, n)
    b[:, 0] = rng.normal(2.0, 1.0, n)
    proxy = law_distance(observables(a, 1.0), observables(b, 1.0), p=2.0, weighted=False)
    analytic = 2.0 * (2.0 * 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0))) - 1.0)
    assert abs(proxy - analytic) / analytic < 0.10


def test_law_distance_disjoint_and_weighting():
    a = np.tile([-5.0, 0.0, 0.0, 0.0, 0.0], (50, 1))
    b = np.tile([5.0, 0.0, 0.0, 0.0, 0.0], (50, 1))
    assert law_distance(observables(a, 0.0), observables(b, 0.0), p=1.0, weighted=False) == 2.0
    rng = np.random.default_rng(1)
    c = observables(rng.normal(size=(200, 5)), 1.0)
    d = observables(rng.normal(size=(200, 5)) + 1.0, 1.0)
    unweighted = law_distance(c, d, p=2.0, weighted=False)
    weighted = law_distance(c, d, p=2.0, weighted=True)
    assert weighted >= unweighted - 1e-12


def test_chain_consistency_at_the_floor():
    # two ensembles from the same start with disjoint id blocks share a law;
    # their distance matches the half-split floor of either ensemble
    params = small_params(t_final=1.0)
    x = np.full(17, 0.2)
    ens_a = run_ensemble(x, params, range(0, 100), record_times=[1.0])
    ens_b = run_ensemble(x, params, range(100, 200), record_times=[1.0])
    sa = observables(ens_a.states_at(1.0), 1.0)
    sb = observables(ens_b.states_at(1.0), 1.0)
    d = law_distance(sa, sb, p=2.0)
    floors = [law_distance(side[:50], side[50:], p=2.0) for side in (sa, sb)]
    floor = float(np.median(floors))
    assert 0.5 * floor <= d <= 2.0 * floor


def test_fit_rate_exact_exponential():
    times = np.arange(1.0, 9.0)
    d = 3.0 * np.exp(-0.5 * times)
    fit = fit_rate(times, d, floor=0.0)
    assert fit.identifiable and fit.n_used == 8
    assert np.isclose(fit.lam, 0.5, atol=1e-10)
    assert np.isclose(fit.intercept, 3.0, rtol=1e-10)
    assert fit.ci_low <= 0.5 <= fit.ci_high
    # floor = None estimates the floor from the smallest distance and still
    # recovers the rate from the early window
    auto = fit_rate(times, d)
    assert auto.identifiable and np.isclose(auto.lam, 0.5, atol=1e-10)
    assert auto.floor == 1.25 * d.min()


def test_fit_rate_with_noise_floor():
    rng = np.random.default_rng(11)
    times = np.arange(1.0, 11.0)
    true = 3.0 * np.exp(-0.5 * times)
    d = np.maximum(true, 1e-3) * (1.0 + 0.02 * rng.standard_normal(times.size))
    fit = fit_rate(times, d, floor=1e-3)
    assert fit.identifiable
    assert abs(fit.lam - 0.5) / 0.5 < 0.10


def test_fit_rate_unidentifiable_and_errors():
    times = np.arange(1.0, 7.0)
    flat = fit_rate(times, np.full(6, 0.5))
    assert not flat.identifiable
    assert math.isnan(flat.lam) and "not identifiable" in flat.message
    assert flat.floor == 1.25 * 0.5
    with pytest.raises(ValueError, match="at least 4"):
        fit_rate([1.0, 2.0, 3.0], [1.0, 0.5, 0.25])
    with pytest.raises(ValueError, match="finite and nonnegative"):
        fit_rate(times, [1.0, 0.5, -0.1, 0.2, 0.1, 0.05])
    with pytest.raises(ValueError, match="finite and nonnegative"):
        fit_rate(times, [1.0, 0.5, np.nan, 0.2, 0.1, 0.05])


def test_moment_bound_zero_noise_fixed_point():
    spec = EnsembleSpec(
        initial_conditions=[np.zeros(7)], n_traj=4,
        params=quiet_params(n_modes=3), gamma=1.0, p=2.0,
    )
    table = moment_bound(spec, t=1.0)
    entry = table.entries[0]
    assert entry.estimate == 0.0 and entry.stderr == 0.0
    assert entry.n_traj == 4 and entry.n_aborted == 0
    assert table.uniformity.uniform and table.uniformity.max_ratio == 1.0


def test_moment_bound_uniform_for_moderate_starts():
    # the zero start and the 10^2-weighted-norm preset relax to matching
    # moments at t = 1 (the preset seeds the constant slot at only ~1e-3)
    params = SimulationParams()
    spec = EnsembleSpec(
        initial_conditions=[np.zeros(65), scaled_random_field(32, 1e2, 1.0)],
        n_traj=200, params=params, gamma=1.0, p=2.0,
    )
    table = moment_bound(spec, t=1.0, threads=4)
    assert table.uniformity.uniform
    assert table.uniformity.max_ratio < 1.5
    for entry in table.entries:
        assert entry.stderr > 0.0 and entry.n_aborted == 0


def test_moment_bound_time_validation():
    spec = EnsembleSpec(
        initial_conditions=[np.zeros(7)], n_traj=2,
        params=quiet_params(n_modes=3), gamma=1.0, p=2.0,
    )
    with pytest.raises(ValueError, match="t must"):
        moment_bound(spec, t=0.0)
    with pytest.raises(ValueError, match="t must"):
        moment_bound(spec, t=2.0)
    # c0 = 20 trips the guard at t = 0.0625, so no trajectory reaches t = 1
    wild = np.zeros(9)
    wild[0] = 20.0
    spec = EnsembleSpec(
        initial_conditions=[wild], n_traj=4,
        params=SimulationParams(n_modes=4, dt=1.0 / 64.0, spectrum=NoiseSpectrum.default(4)),
    )
    with pytest.raises(ValueError, match="all trajectories aborted for initial condition 0"):
        moment_bound(spec, t=1.0)


def test_moment_jensen_between_p_one_and_two():
    params = small_params(t_final=1.0)
    common = dict(initial_conditions=[np.full(17, 0.1)], n_traj=50,
                  params=params, gamma=0.0)
    m1 = moment_bound(EnsembleSpec(p=1.0, **common), t=1.0)
    m2 = moment_bound(EnsembleSpec(p=2.0, **common), t=1.0)
    # same trajectories, so the sample version of Jensen holds exactly
    assert m1.entries[0].estimate ** 2 <= m2.entries[0].estimate + 1e-15


@pytest.mark.usefixtures("philox_streams")
def test_sup_window_bound_cases():
    # E sup_{t1 < s <= t2} ||Phi_s(x)||_inf per start, over the same trajectory
    # ids that EnsembleSpec gives each start
    def table(spec, t1, t2):
        return [mean_and_stderr(window_sup(x, spec.params, spec.traj_ids(i), t1, t2))
                for i, x in enumerate(spec.initial_conditions)]

    quiet = EnsembleSpec(
        initial_conditions=[np.zeros(7)], n_traj=2,
        params=quiet_params(n_modes=3), gamma=1.0, p=2.0,
    )
    assert table(quiet, 0.25, 1.0)[0][0] == 0.0
    noisy = EnsembleSpec(
        initial_conditions=[np.zeros(17), np.full(17, 0.5)], n_traj=20,
        params=small_params(t_final=2.0), gamma=1.0, p=2.0,
    )
    narrow = table(noisy, 0.5, 1.0)
    wide = table(noisy, 0.5, 2.0)
    # pinned (estimate, stderr) per start, so any drift in the window shows here
    pins = [
        (narrow, [(2.0467111920151738e-05, 8.031162749504301e-07),
                  (0.8418578983044552, 8.103066290789496e-07)]),
        (wide, [(2.3337984975284024e-05, 6.216279721098643e-07),
                (0.973533147159333, 1.0963692056804978e-06)]),
    ]
    for entries, pinned in pins:
        for (est, se), (want_est, want_se) in zip(entries, pinned, strict=True):
            assert est == pytest.approx(want_est, rel=1e-12)
            assert se == pytest.approx(want_se, rel=1e-12)
        # far from uniform in the start: the ratio exceeds moment_bound's 2
        assert entries[1][0] > 2.0 * entries[0][0]
    for i in range(2):
        # same trajectories, wider window: the pathwise sup can only grow
        assert wide[i][0] >= narrow[i][0]


def test_mixing_report_structure_and_exports():
    params = small_params(t_final=4.0)
    spec = EnsembleSpec(
        initial_conditions=[np.zeros(17), np.full(17, 0.2)],
        n_traj=60, params=params, gamma=1.0, p=2.0,
    )
    report = mixing_report(spec, threads=4)
    assert isinstance(report, MixingReport)
    assert np.array_equal(report.times, [1.0, 2.0, 3.0, 4.0])
    assert report.distances.shape == (4,) and np.all(report.distances >= 0.0)
    assert report.distance_stderr.shape == (4,) and np.all(report.distance_stderr >= 0.0)
    assert report.floor > 0.0
    assert isinstance(report.fit, RateFit)
    if report.fit.identifiable:
        assert report.fit.method == "bootstrap"

    lines = report_csv(report).splitlines()
    assert lines[0] == "t,distance,stderr"
    assert len(lines) == 1 + 4
    row = lines[1].split(",")
    assert float(row[0]) == 1.0 and float(row[1]) == report.distances[0]

    summary = report_summary(report)
    for key in ("lambda =", "lambda_ci_low =", "lambda_ci_high =", "C =",
                "floor =", "n_used =", "identifiable =", "ci_method ="):
        assert key in summary


@pytest.mark.usefixtures("philox_streams")
def test_mixing_report_pinned():
    # recorded when every distance call still projected resampled states;
    # the bootstrap now resamples rows of observables computed once per time
    # (ia, then ib, per resample and time), and must agree to the last bit
    params = SimulationParams(
        n_modes=4, dt=1.0 / 64.0, t_final=4.0, spectrum=NoiseSpectrum.default(4), seed=7
    )
    spec = EnsembleSpec(
        initial_conditions=[np.zeros(9), np.full(9, 0.2)], n_traj=64,
        params=params, gamma=1.0, p=2.0,
    )
    report = mixing_report(spec, n_boot=20, threads=2)
    assert report.distances.tolist() == [
        2.249221122251502, 2.69833670643334, 2.9598433574032046, 3.02473384017096,
    ]
    assert report.distance_stderr.tolist() == [
        0.0011946023677693826, 0.0035028526914061458,
        0.005118775912740558, 0.014264897229417399,
    ]
    assert report.floor == 2.250240270434366
    # repr pins every field, the NaN ones included
    assert repr(report.fit) == (
        "RateFit(lam=nan, intercept=nan, ci_low=nan, ci_high=nan, n_used=0, "
        "floor=2.250240270434366, identifiable=False, method='ols', "
        "message='rate not identifiable: 0 points above the floor window')"
    )


def test_mixing_report_simulates_only_the_first_two_starts(monkeypatch):
    params = SimulationParams(
        n_modes=4, dt=1.0 / 64.0, t_final=4.0, spectrum=NoiseSpectrum.default(4), seed=7
    )
    starts = [np.zeros(9), np.full(9, 0.2), np.full(9, -0.5)]
    calls = []
    run_ensemble = mixing.run_ensemble
    monkeypatch.setattr(mixing, "run_ensemble",
                        lambda *args, **kw: calls.append(1) or run_ensemble(*args, **kw))
    texts = []
    for ics in (starts, starts[:2]):
        calls.clear()
        spec = EnsembleSpec(initial_conditions=ics, n_traj=32, params=params)
        report = mixing_report(spec, n_boot=10)
        assert len(calls) == 2
        texts.append((report_csv(report), report_summary(report)))
    assert texts[0] == texts[1]


def test_mixing_report_validation():
    params = small_params(t_final=4.0)
    spec = EnsembleSpec(
        initial_conditions=[np.zeros(17)], n_traj=10, params=params,
        gamma=1.0, p=2.0,
    )
    with pytest.raises(ValueError, match="two initial conditions"):
        mixing_report(spec)
    pair = EnsembleSpec(
        initial_conditions=[np.zeros(17), np.ones(17)], n_traj=10,
        params=params, gamma=1.0, p=2.0,
    )
    with pytest.raises(ValueError, match="4 report times"):
        mixing_report(pair, times=[1.0, 2.0, 3.0])
