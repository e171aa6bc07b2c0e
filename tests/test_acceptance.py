"""Acceptance suite: nine numbered criteria, one test and one verdict line each.

Every test prints exactly one line of the form

    acceptance criterion N: PASS|FAIL (measured details)

before asserting, so a full run documents the measured numbers for all nine
checks (run pytest with -s or read the captured output of failing entries).
Criteria 1, 6 and 7 exercise the full simulation pipelines at their stated
ensemble sizes and write their output files through the same code paths the
command-line driver uses; criterion 9 reruns those three pipelines with the
same seeds and compares the artifacts byte for byte.

Criteria 6 and 7 check the degenerate model against exact constant-mode
oracles.  The default spectrum leaves modes 0..3 unforced, so the constant
mode c0 follows the scalar exponential-Euler recursion
y <- e^{-h} y + (1 - e^{-h}) (2 y - y^3) deterministically, up to the cubic
coupling 3 c0 <v^2> + <v^3> to the non-constant part v = u - c0.  The
'scaled-random:R' presets start at c0(0) = 9.2225e-6 R.  Measured at the
acceptance sizes (second moments at t = 1, 10^3 trajectories per start):

    start                 c0(1)     c0(1)^2   rest of E||u||^2   estimate
    zero                  0         0         0.01351            0.01351
    scaled-random:100     0.00250   0.00001   0.01386            0.01387
    scaled-random:10000   0.24329   0.05919   0.01331            0.07250

The rest matches the start-independent closed form E||W_L(1)||_1^2 =
0.013691 of the stochastic convolution, so the exact moments are 0.013691,
0.013697 and 0.072881 and their ratio 5.32 makes uniform = 0 (exit 1) the
correct verdict of the moments command.  Criterion 6 asserts each estimate
against its exact moment and the printed verdict against the one the exact
moments give.  The 10^4 start is still on the linear branch of the saddle
at t = 1, not yet pushed toward the stable wells.

In criterion 7 the zero start keeps |c0| below 1.3e-14 up to t = 10, while
the 10^2 start follows the recursion from 0.0025 at t = 1 to 0.9987 at
t = 10 with a spread below 1e-9.  The two laws are separated in c0 by a
gap that grows with t, so no distance between them can decay on the
window; with the saturated histogram estimator every distance is at least
2 and the half-split floor (2.025) sits at the t = 1 distance (2.027).
Criterion 7 asserts the c0 tracks of the trajectories the run integrates
against the oracle and that the mixing command reports no positive rate.
"""

import io
import contextlib
import itertools
import math
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from glmix.cli import main
from glmix.config import resolve_config
from glmix.doeblin import (
    FiniteKernel,
    condition_b,
    contraction_check,
    minorization,
    small_set_search,
)
from glmix.integrator import ode_comparison, run_ensemble

import conftest
import oracles

OU_CFG = """\
[model]
poly = none

[ensemble]
ic1 = scaled-random:1.0
n_traj = 10000
"""

UNIFORM_MOMENTS_CFG = """\
[ensemble]
ic1 = zero
ic2 = scaled-random:100.0
ic3 = scaled-random:10000.0
n_traj = 1000
"""

MIXING_CFG = """\
[model]
t_final = 10.0

[ensemble]
ic1 = zero
ic2 = scaled-random:100.0
n_traj = 2000
"""


def announce(n, ok, details):
    line = f"acceptance criterion {n}: {'PASS' if ok else 'FAIL'} ({details})"
    print(line)
    conftest.VERDICTS.append(line)


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


def stdout_keys(text):
    """The key = value lines a CLI run printed, as a dict of strings."""
    return dict(l.split(" = ", 1) for l in text.splitlines() if " = " in l)


# The oracles below are built from the documented defaults, not from
# RunConfig: P(u) = u^3 - u, q_k = k^-4 for k > 3 and q_0..q_3 = 0.
DEFAULT_POLY = [0.0, -1.0, 0.0, 1.0]
DEFAULT_Q = [0.0] * 4 + [float(k) ** -4.0 for k in range(4, 33)]
SIDE_TRAJ = 16


def constant_mode_run(cfg, ic_index):
    """Constant mode of the first SIDE_TRAJ trajectories of one start.

    Reruns the trajectory ids the CLI run integrates first, recording every
    step, and compares c0 with the oracle recursion y.  With s = c0^2 +
    c0 y + y^2 and e = 3 c0 <v^2> + <v^3> the scheme gives exactly

        c0 - y  <-  (e^{-h} + phi (2 - s)) (c0 - y) - phi e,

    phi = 1 - e^{-h}, so |c0 - y| <= B with B_0 = 0 and B <- |e^{-h} +
    phi (2 - s)| B + phi E + rho, where E >= |e| is the oracle coupling
    bound and rho = 32 eps (|c0| + S + S^3) allows for rounding in one
    synthesis transform, the cubic and one analysis transform (S bounds
    sup|u|; each transform has log2(200) < 8 butterfly levels).

    Slots a1, b1, a2, b2 are unforced.  While 3 c0^2 <= 4 their step factor
    is at most g_k = e^{-l_k h} + 2 phi_k, and the mode-k coefficient of
    3 c0 v^2 + v^3 is at most sqrt(2 l_k) E, so |a_k(t)| <= g_k^{t/h} |x_k| +
    sqrt(2 l_k) max E / (l_k - 2); mode 1 gives the largest value.
    """
    params = cfg.params()
    h, spu = params.dt, round(1.0 / params.dt)
    x = cfg.ic_array(ic_index)
    ids = ic_index * cfg.n_traj + np.arange(SIDE_TRAJ, dtype=np.int64)
    ens = run_ensemble(
        x, params, ids, record_times=np.arange(params.n_steps + 1) * h
    )
    assert not ens.aborted.any()
    c0 = ens.states[:, :, 0]
    y = oracles.constant_mode_track(DEFAULT_POLY, x[0], h, params.n_steps)
    coupling, sup_u = oracles.constant_mode_coupling(ens.states)
    phi = -math.expm1(-h)
    rho = 32.0 * np.finfo(float).eps * (np.abs(c0) + sup_u + sup_u**3)
    factors = np.abs(math.exp(-h) + phi * (2.0 - (c0 * c0 + c0 * y + y * y)))
    sources = phi * coupling + rho
    bound = np.zeros_like(c0)
    for n in range(params.n_steps):
        bound[:, n + 1] = factors[:, n] * bound[:, n] + sources[:, n]
    dev = np.abs(c0 - y)

    l1 = float(oracles.ell(1))
    g1 = math.exp(-l1 * h) - 2.0 * math.expm1(-l1 * h) / l1
    slot_bound = (
        g1**spu * float(np.abs(x[1:5]).max())
        + math.sqrt(2.0 * l1) / (l1 - 2.0) * float(coupling.max())
    )
    return {
        "y": y[::spu],
        "c0": c0[:, ::spu].mean(axis=0),
        "dev": dev.max(axis=0)[::spu],
        "bound": bound.max(axis=0)[::spu],
        "within": bool(np.all(dev <= bound)),
        "spread": float(np.ptp(c0[:, spu:], axis=0).max()),
        "slots": float(np.abs(ens.states[:, spu::spu, 1:5]).max()),
        "slot_bound": slot_bound,
        "cubic_ok": bool(np.all(3.0 * c0 * c0 <= 4.0)),
    }


def uniformity_flags(moments, stderrs, z=1.96):
    """max_ratio, ratio_ok and ci_overlap_ok as the moments command defines
    them: pairwise ratios within 2 and pairwise overlapping m +- z se."""
    pairs = list(itertools.combinations(zip(moments, stderrs), 2))
    overlap = all(abs(a - b) <= z * (sa + sb) for (a, sa), (b, sb) in pairs)
    ratio = max(moments) / min(moments)
    return ratio, ratio <= 2.0, overlap


def ou_statistics(out_dir: Path):
    """Criterion-1 pipeline: exact per-slot OU statistics file.

    With the polynomial drift disabled the update is the exact
    Ornstein-Uhlenbeck transition, so the time-1 marginals are Gaussian with
    mean e^{-l_k} x_k and variance q_k^2 (1 - e^{-2 l_k}) / (2 l_k) per
    coefficient slot.  Returns the artifact path and the worst absolute
    z-scores over the forced slots.
    """
    cfg = resolve_config(OU_CFG)
    params = cfg.params()
    x = cfg.ic_array(0)
    ens = run_ensemble(x, params, np.arange(10000, dtype=np.int64), threads=4)
    assert not ens.aborted.any()
    assert np.array_equal(ens.times, [0.0, 1.0])
    final = ens.states[:, 1]
    n = final.shape[0]

    modes = np.repeat(np.arange(params.n_modes + 1), 2)[1 : 2 * params.n_modes + 2]
    lam = oracles.ell(modes)
    q = cfg.spectrum().q[modes]
    mean_exact = np.exp(-lam) * x
    var_exact = q**2 * -np.expm1(-2.0 * lam) / (2.0 * lam)

    mean_hat = final.mean(axis=0)
    var_hat = final.var(axis=0, ddof=1)
    se_mean = final.std(axis=0, ddof=1) / math.sqrt(n)
    se_var = var_exact * math.sqrt(2.0 / (n - 1))

    forced = q > 0.0
    z_mean = np.zeros_like(mean_hat)
    z_var = np.zeros_like(var_hat)
    z_mean[forced] = (mean_hat[forced] - mean_exact[forced]) / se_mean[forced]
    z_var[forced] = (var_hat[forced] - var_exact[forced]) / se_var[forced]

    lines = ["# per-slot statistics of the exact linear transition at t = 1"]
    lines += [f"# {h}" for h in cfg.resolved_lines()]
    lines.append("slot,mode,forced,mean_hat,mean_exact,z_mean,var_hat,var_exact,z_var")
    for j in range(final.shape[1]):
        lines.append(
            f"{j},{modes[j]},{int(forced[j])},{mean_hat[j]!r},{mean_exact[j]!r},"
            f"{z_mean[j]!r},{var_hat[j]!r},{var_exact[j]!r},{z_var[j]!r}"
        )
    path = out_dir / "ou_statistics.csv"
    path.write_text("\n".join(lines) + "\n")
    return path, float(np.abs(z_mean[forced]).max()), float(np.abs(z_var[forced]).max())


@pytest.fixture(scope="module")
def ou_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("criterion1")
    t0 = time.monotonic()
    path, worst_mean, worst_var = ou_statistics(out)
    return {
        "path": path,
        "worst_z_mean": worst_mean,
        "worst_z_var": worst_var,
        "elapsed": time.monotonic() - t0,
    }


@pytest.fixture(scope="module")
def moments_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("criterion6")
    cfg = out / "run.cfg"
    cfg.write_text(UNIFORM_MOMENTS_CFG)
    t0 = time.monotonic()
    rc, text = run_cli(["moments", "--config", str(cfg), "--out", str(out),
                        "--threads", "4"])
    return {"out": out, "cfg": cfg, "rc": rc, "stdout": text,
            "elapsed": time.monotonic() - t0}


@pytest.fixture(scope="module")
def mixing_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("criterion7")
    cfg = out / "run.cfg"
    cfg.write_text(MIXING_CFG)
    t0 = time.monotonic()
    rc, text = run_cli(["mixing", "--config", str(cfg), "--out", str(out),
                        "--threads", "4"])
    return {"out": out, "cfg": cfg, "rc": rc, "stdout": text,
            "elapsed": time.monotonic() - t0}


def test_criterion_1_exact_linear_statistics(ou_run):
    ok = (
        ou_run["worst_z_mean"] <= 4.0
        and ou_run["worst_z_var"] <= 4.0
        and ou_run["elapsed"] < 60.0
    )
    announce(
        1,
        ok,
        f"10^4 trajectories, worst |z| mean {ou_run['worst_z_mean']:.2f}, "
        f"variance {ou_run['worst_z_var']:.2f}, limit 4, "
        f"{ou_run['elapsed']:.1f}s",
    )
    assert ou_run["worst_z_mean"] <= 4.0
    assert ou_run["worst_z_var"] <= 4.0
    assert ou_run["elapsed"] < 60.0


def criterion_2_kernels(rng):
    """10^4 random kernels on 2..6 states, then the 64-state double well."""
    for _ in range(10_000):
        n = int(rng.integers(2, 7))
        rows = rng.random((n, n)) + 0.05
        yield rows / rows.sum(axis=1, keepdims=True)
    yield oracles.double_well_rows(64)


def test_criterion_2_contraction_and_lower_bound():
    pair_rng = np.random.default_rng(20)
    t0 = time.monotonic()
    worst_excess = -np.inf
    pair_excess = -np.inf
    lower_ok = True
    for rows in criterion_2_kernels(np.random.default_rng(2)):
        n = rows.shape[0]
        kernel = FiniteKernel(rows)
        full = list(range(n))
        cert = minorization(kernel, full, 1)
        cert = replace(cert, delta_prime=condition_b(kernel, full))
        cert.validate(kernel)
        eps = cert.delta * cert.delta_prime
        worst = contraction_check(kernel, cert)
        worst_excess = max(worst_excess, worst - (1.0 - eps))
        two_step = rows @ rows
        # Dirac pairs are extremal for the contraction coefficient, so 20
        # random probability pairs per kernel must not beat the returned one
        ratios = oracles.random_pair_ratios(pair_rng, two_step, 20)
        pair_excess = max(pair_excess, float(ratios.max()) - worst)
        floor = eps * cert.nu
        if not np.all(two_step >= floor[None, :] - 1e-15):
            lower_ok = False
    elapsed = time.monotonic() - t0
    ok = worst_excess <= 1e-12 and pair_excess <= 1e-12 and lower_ok and elapsed < 60.0
    announce(
        2,
        ok,
        f"10^4 kernels and a 64-state double well, worst contraction excess "
        f"{worst_excess:.2e}, worst random-pair excess {pair_excess:.2e}, "
        f"two-step lower bound {'holds' if lower_ok else 'violated'}, "
        f"{elapsed:.1f}s",
    )
    assert worst_excess <= 1e-12
    assert pair_excess <= 1e-12
    assert lower_ok
    assert elapsed < 60.0


def test_criterion_3_minorization_is_maximal():
    rng = np.random.default_rng(3)
    t0 = time.monotonic()
    worst_margin = -np.inf
    for _ in range(1_000):
        n = int(rng.integers(2, 7))
        rows = rng.random((n, n)) + 0.05
        rows /= rows.sum(axis=1, keepdims=True)
        kernel = FiniteKernel(rows)
        size = int(rng.integers(1, n + 1))
        k_set = sorted(int(i) for i in rng.choice(n, size=size, replace=False))
        m = int(rng.integers(1, 3))
        cert = minorization(kernel, k_set, m)
        step = rows if m == 1 else rows @ rows
        colmin = step[k_set].min(axis=0)
        # any candidate pair with delta above the feasibility value
        # min_y colmin(y) / nu(y) fails the elementwise check, so the
        # returned delta is unbeatable iff every feasibility value stays
        # at or below it
        for _ in range(25):
            nu_t = rng.random(n) + 1e-3
            nu_t /= nu_t.sum()
            feasible = float((colmin / nu_t).min())
            worst_margin = max(worst_margin, feasible - cert.delta)
    elapsed = time.monotonic() - t0
    ok = worst_margin <= 1e-12 and elapsed < 60.0
    announce(
        3,
        ok,
        f"10^3 instances x 25 candidate measures, best rival margin "
        f"{worst_margin:.2e}, {elapsed:.1f}s",
    )
    assert worst_margin <= 1e-12
    assert elapsed < 60.0


def test_criterion_4_small_set_search_soundness():
    rng = np.random.default_rng(4)
    t0 = time.monotonic()
    worst_gap = np.inf
    min_delta = np.inf
    for _ in range(1_000):
        rows = rng.random((5, 5)) + 0.05
        rows /= rows.sum(axis=1, keepdims=True)
        kernel = FiniteKernel(rows)
        mu0 = rng.random(5) + 0.2
        mu0 /= mu0.sum()
        cert = small_set_search(kernel, mu0)
        assert cert is not None
        cert.validate(kernel)
        # the certificate's S-path a -> b -> c, with mu0(b) mu0(c) / 8 == delta
        path = oracles.search_path(kernel.rows, mu0, cert)
        assert path is not None
        # independent recount of the two-step density bound behind the
        # certificate: p2(x, z) >= mu0(b) / 8 on K x support(nu)
        dens = (rows @ rows) / mu0[None, :]
        support = np.flatnonzero(cert.nu > 0.0)
        gap = float(dens[np.ix_(cert.K, support)].min() - mu0[path[1]] / 8.0)
        worst_gap = min(worst_gap, gap)
        min_delta = min(min_delta, cert.delta)
    elapsed = time.monotonic() - t0
    ok = worst_gap >= -1e-12 and elapsed < 60.0
    announce(
        4,
        ok,
        f"10^3 positive 5-state kernels, worst density slack {worst_gap:.2e}, "
        f"smallest delta {min_delta:.2e}, {elapsed:.1f}s",
    )
    assert worst_gap >= -1e-12
    assert elapsed < 60.0


def test_criterion_5_decay_bound_grid():
    t0 = time.monotonic()
    corrected_failures = 0
    literal_failures = 0
    total = 0
    witness = None
    for q in (3, 5, 7):
        for c in (0.5, 1.0, 2.0):
            for y0 in (0.5, 2.0, 10.0, 100.0):
                for t in (0.25, 0.5, 1.0):
                    r = ode_comparison(q, c, y0, t)
                    # forced by f = 0.5: the oracle's y(t) against the
                    # package's unforced bounds plus f t
                    for f in (0.0, 0.5):
                        y = r.y_final if f == 0.0 else oracles.forced_decay(q, c, y0, t, f)
                        total += 1
                        if y > r.corrected_bound + f * t + 1e-8:
                            corrected_failures += 1
                        literal = r.literal_bound + f * t
                        if y > literal + 1e-8 * literal:
                            literal_failures += 1
                        if (q, c, y0, t, f) == (3, 1.0, 10.0, 0.5, 0.0):
                            witness = r
    elapsed = time.monotonic() - t0
    witness_red = (
        witness is not None
        and not witness.literal_holds
        and math.isclose(witness.y_final, 0.99504, abs_tol=1e-5)
        and math.isclose(witness.literal_bound, 0.8165, abs_tol=1e-4)
    )
    ok = corrected_failures == 0 and witness_red and elapsed < 60.0
    announce(
        5,
        ok,
        f"{total} instances, corrected bound failures {corrected_failures}, "
        f"literal verdict false on {literal_failures} instances including "
        f"the unforced witness 0.8165 < 0.99504, {elapsed:.1f}s",
    )
    assert corrected_failures == 0
    assert witness_red
    assert elapsed < 60.0


def test_criterion_6_uniform_second_moments(moments_run):
    rows = [
        l.split(",")
        for l in (moments_run["out"] / "moments.csv").read_text().splitlines()
        if l and not l.startswith("#") and not l.startswith("ic,")
    ]
    estimates = [float(r[2]) for r in rows]
    stderrs = [float(r[3]) for r in rows]
    printed = stdout_keys(moments_run["stdout"])
    max_ratio = float(printed["max_ratio"])

    # exact moment per start: c0(1)^2 from the oracle recursion plus the
    # closed-form E||W_L(1)||^2.  Budget besides 4 standard errors (the z
    # limit of criterion 1) for what the oracle neglects:
    # - c0 = y + d with |d| <= B(1) adds at most 2 |y| B + B^2;
    # - the linear part (2 - 3 c0^2) v of N shifts the rate of each forced
    #   mode from l_k to l_k - a with |a| <= 2, which changes its variance
    #   by a factor within l_k / (l_k -+ 2), so by at most 2 / (l_4 - 2)
    #   of the closed form (0.3%);
    # - the start's non-constant part has decayed to a norm below
    #   e^{-(l_1 - 2)} R = 2e-13, and the quadratic coupling of v into the
    #   forced modes changes the moment by less than 1e-9.
    cfg = resolve_config(UNIFORM_MOMENTS_CFG)
    noise = oracles.convolution_second_moment(DEFAULT_Q, 1.0, cfg.gamma)
    linear_bias = 2.0 / (float(oracles.ell(4)) - 2.0) * noise
    sides = [constant_mode_run(cfg, i) for i in range(len(cfg.ics))]
    exact, budget, z = [], [], []
    for side, est, se in zip(sides, estimates, stderrs):
        y1, b1 = side["y"][1], side["bound"][1]
        exact.append(y1 * y1 + noise)
        budget.append(4.0 * se + linear_bias + 2.0 * abs(y1) * b1 + b1 * b1)
        z.append((est - exact[-1]) / se)
    ratio, ratio_ok, overlap_ok = uniformity_flags(exact, stderrs)
    # estimates anywhere in their budgets give a max ratio in [lo, hi]
    lows = [m - b for m, b in zip(exact, budget)]
    highs = [m + b for m, b in zip(exact, budget)]
    lo, hi = max(lows) / min(highs), max(highs) / min(lows)
    expected = {
        "ratio_ok": str(int(ratio_ok)),
        "ci_overlap_ok": str(int(overlap_ok)),
        "uniform": str(int(ratio_ok and overlap_ok)),
    }
    rc_expected = 0 if ratio_ok and overlap_ok else 1

    within = [abs(e - m) <= b for e, m, b in zip(estimates, exact, budget)]
    tracks_ok = all(s["within"] and s["cubic_ok"] for s in sides)
    flags_ok = all(printed[k] == v for k, v in expected.items())
    table = "; ".join(
        f"start {i}: c0(1) ensemble {s['c0'][1]:.6f} oracle {s['y'][1]:.6f}, "
        f"E||u||^2 {e:.5f} = c0^2 {s['y'][1] ** 2:.5f} + rest {e - s['y'][1] ** 2:.5f} "
        f"(closed form {noise:.5f}), z {zz:+.2f}"
        for i, (s, e, zz) in enumerate(zip(sides, estimates, z))
    )
    ok = (
        len(estimates) == 3
        and all(within)
        and tracks_ok
        and lo <= max_ratio <= hi
        and flags_ok
        and moments_run["rc"] == rc_expected
        and moments_run["elapsed"] < 600.0
    )
    announce(
        6,
        ok,
        f"10^3 trajectories per start; {table}; max ratio {max_ratio:.2f} in "
        f"[{lo:.2f}, {hi:.2f}] around the exact {ratio:.2f}, printed "
        f"uniform {printed['uniform']} exit {moments_run['rc']} against exact "
        f"{expected['uniform']} exit {rc_expected}, {moments_run['elapsed']:.1f}s",
    )
    assert len(estimates) == 3
    assert moments_run["elapsed"] < 600.0
    for i, (est, m, b) in enumerate(zip(estimates, exact, budget)):
        assert abs(est - m) <= b, (
            f"start {i}: E||u(1)||^2 estimate {est!r} is not within {b:.2e} "
            f"of the exact {m!r}: {table}"
        )
    assert tracks_ok, f"constant mode leaves its oracle bound at t <= 1: {table}"
    assert lo <= max_ratio <= hi
    for key, value in expected.items():
        assert printed[key] == value, (key, printed[key], value)
    assert moments_run["rc"] == rc_expected
    if rc_expected:
        assert printed["failure"] == "moment_uniformity"


def test_criterion_7_exponential_mixing_witness(mixing_run):
    rows = [
        l.split(",")
        for l in (mixing_run["out"] / "mixing.csv").read_text().splitlines()
        if l and not l.startswith("#") and not l.startswith("t,")
    ]
    times = [float(r[0]) for r in rows]
    distances = [float(r[1]) for r in rows]
    printed = stdout_keys(mixing_run["stdout"])
    ci_low = float(printed["lambda_ci_low"])
    floor = float(printed["floor"])
    positive_rate = printed["identifiable"] == "1" and ci_low > 0.0

    cfg = resolve_config(MIXING_CFG)
    sides = [constant_mode_run(cfg, i) for i in range(len(cfg.ics))]
    tracks_ok = all(
        s["within"] and s["cubic_ok"] and s["slots"] <= 1e-9 and s["slot_bound"] <= 1e-9
        for s in sides
    )
    # each start's c0 spread (at most 2 B) is far below the c0 gap / 32, so
    # the two samples fill disjoint bins of the c0 axis: the mass differences
    # |p_A - p_B| sum to 2 and the weights V >= 1 keep every distance at or
    # above 2
    separated = min(distances) >= 2.0 - 1e-9
    track = " ".join(f"{d:.3f}" for d in distances)
    starts = "; ".join(
        f"start {i}: c0 ensemble {s['c0'][1]:.4g} .. {s['c0'][-1]:.4g} oracle "
        f"{s['y'][1]:.4g} .. {s['y'][-1]:.4g}, max |c0 - y| {s['dev'].max():.1e} "
        f"(bound {s['bound'].max():.1e}), spread {s['spread']:.1e}, "
        f"|a1 b1 a2 b2| {s['slots']:.1e} (bound {s['slot_bound']:.1e})"
        for i, s in enumerate(sides)
    )
    ok = (
        times == [float(t) for t in range(1, 11)]
        and tracks_ok
        and separated
        and not positive_rate
        and mixing_run["rc"] == 1
        and distances[-1] >= 0.1 * distances[0]
        and mixing_run["elapsed"] < 900.0
    )
    announce(
        7,
        ok,
        f"2x10^3 trajectories, first {SIDE_TRAJ} rerun; {starts}; distances at "
        f"t=1..10: {track}, floor {floor:.3f}, d10/d1 "
        f"{distances[-1] / distances[0]:.2f}, lambda CI low {ci_low!r}, no "
        f"positive rate {int(not positive_rate)}, exit {mixing_run['rc']}, "
        f"{mixing_run['elapsed']:.1f}s",
    )
    assert times == [float(t) for t in range(1, 11)]
    assert mixing_run["elapsed"] < 900.0
    for i, s in enumerate(sides):
        assert s["within"], f"start {i}: c0 leaves its oracle bound: {starts}"
        assert s["cubic_ok"]
        assert s["slots"] <= 1e-9 and s["slot_bound"] <= 1e-9, starts
    assert separated, f"laws not separated in c0: distances {track}"
    # the exact laws drift apart, so the run must not report a decay rate
    assert not positive_rate, f"spurious positive rate: distances {track}"
    assert mixing_run["rc"] == 1
    assert printed["failure"] == "mixing_rate"
    assert distances[-1] >= 0.1 * distances[0]


def test_criterion_8_geometric_bound_exact_arithmetic():
    t0 = time.monotonic()
    P = [
        [Fraction(9, 10), Fraction(1, 10)],
        [Fraction(2, 10), Fraction(8, 10)],
    ]
    mu = (Fraction(2, 3), Fraction(1, 3))
    assert mu[0] * P[0][0] + mu[1] * P[1][0] == mu[0]
    assert mu[0] * P[0][1] + mu[1] * P[1][1] == mu[1]
    factor = Fraction(7, 10)
    worst_ratio = Fraction(0)
    for start in (0, 1):
        row = [Fraction(1 - start), Fraction(start)]
        for n in range(51):
            dist = abs(row[0] - mu[0]) + abs(row[1] - mu[1])
            bound = 2 * factor ** (n // 2)
            assert dist <= bound
            worst_ratio = max(worst_ratio, dist / bound)
            row = [
                row[0] * P[0][0] + row[1] * P[1][0],
                row[0] * P[0][1] + row[1] * P[1][1],
            ]
    elapsed = time.monotonic() - t0
    ok = elapsed < 1.0
    announce(
        8,
        ok,
        f"two-state chain, n = 0..50 in exact rationals, worst "
        f"distance/bound ratio {float(worst_ratio):.4f}, {elapsed:.3f}s",
    )
    assert elapsed < 1.0


def test_criterion_9_reruns_are_bitwise_identical(
    ou_run, moments_run, mixing_run, tmp_path
):
    repeat = tmp_path / "repeat1"
    repeat.mkdir()
    path, _, _ = ou_statistics(repeat)
    same_ou = path.read_bytes() == ou_run["path"].read_bytes()

    out6 = tmp_path / "repeat6"
    rc6, _ = run_cli(["moments", "--config", str(moments_run["cfg"]),
                      "--out", str(out6), "--threads", "4"])
    same_m = all(
        (out6 / name).read_bytes() == (moments_run["out"] / name).read_bytes()
        for name in ("moments.csv", "moments_summary.txt")
    )

    out7 = tmp_path / "repeat7"
    rc7, _ = run_cli(["mixing", "--config", str(mixing_run["cfg"]),
                      "--out", str(out7), "--threads", "4"])
    same_x = all(
        (out7 / name).read_bytes() == (mixing_run["out"] / name).read_bytes()
        for name in ("mixing.csv", "mixing_summary.txt")
    )

    ok = same_ou and same_m and same_x
    announce(
        9,
        ok,
        f"criterion 1 artifact identical {int(same_ou)}, criterion 6 files "
        f"identical {int(same_m)}, criterion 7 files identical {int(same_x)}",
    )
    assert same_ou
    assert same_m
    assert same_x
    assert rc6 == moments_run["rc"]
    assert rc7 == mixing_run["rc"]
