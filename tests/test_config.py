"""Tests for the line-oriented run configuration and its canonical form."""

import contextlib
import dataclasses
import inspect
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from glmix.config import ConfigError, RunConfig, resolve_config
from glmix.field import fmt_float, scaled_random_field
from glmix.integrator import SimulationParams
from glmix.mixing import EnsembleSpec
from glmix.noise import NoiseSpectrum, trajectory_generator

# Fixed example sets, so every run checks the same cases.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def test_empty_text_resolves_to_defaults():
    cfg = resolve_config("")
    assert cfg == RunConfig()
    assert cfg.n_modes == 32 and cfg.dt == 1.0 / 256.0 and cfg.t_final == 1.0
    assert cfg.poly == [0.0, -1.0, 0.0, 1.0]
    assert cfg.ics == ["zero"] and cfg.n_traj == 100
    assert cfg.ode_qs == [3, 5, 7] and cfg.ode_ts == [0.5]
    assert cfg.doeblin_kernel is None


def test_resolved_lines_round_trip_is_canonical():
    text = """
# comment survives nothing; only structure matters
[model]
n_modes = 12
dt = 0.015625
t_final = 2
beta = 1.9375
k_star = 10
q2 = 0.5
q10 = 0.125

[ensemble]
ic2 = scaled-random:100
ic1 = zero
n_traj = 40
gamma = 0.5
times = 1 2

[odecheck]
qs = 3 5
"""
    cfg = resolve_config(text)
    lines = cfg.resolved_lines()
    again = resolve_config("\n".join(lines))
    assert again == cfg
    assert again.resolved_lines() == lines
    # canonical ordering and formatting facts
    assert "q2 = 0.5" in lines and lines.index("q2 = 0.5") < lines.index("q10 = 0.125")
    assert "ic1 = zero" in lines and "ic2 = scaled-random:100.0" in lines
    assert "beta = 1.9375" in lines
    assert "times = 1.0 2.0" in lines


PINNED_TEXT = """\
[odecheck]
ts = 0.25 2
qs = 5
[doeblin]
mu0 = 0.25 0.75
kernel = data/two_state.txt
[ensemble]
n_boot = 10
times = 0.5 1
ic2 = scaled-random:3
ic1 = 0 1 0 0 0
n_traj = 7
[model]
q1 = 0.5
n_modes = 2
poly = 0 1 0 2
q0 = 1
seed = 5
"""

PINNED_LINES = [
    "[model]",
    "n_modes = 2",
    "dt = 0.00390625",
    "t_final = 1.0",
    "poly = 0.0 1.0 0.0 2.0",
    "alpha = 2.0",
    "beta = 2.0",
    "c1 = 1.0",
    "c2 = 1.0",
    "k_star = 3",
    "seed = 5",
    "blowup_guard = 1000000000000.0",
    "q0 = 1.0",
    "q1 = 0.5",
    "",
    "[ensemble]",
    "ic1 = 0.0 1.0 0.0 0.0 0.0",
    "ic2 = scaled-random:3.0",
    "n_traj = 7",
    "gamma = 1.0",
    "p = 2.0",
    "times = 0.5 1.0",
    "n_boot = 10",
    "",
    "[doeblin]",
    "kernel = data/two_state.txt",
    "K = all",
    "m = 1",
    "mu0 = 0.25 0.75",
    "",
    "[odecheck]",
    "qs = 5",
    "cs = 1.0",
    "y0s = 10.0",
    "ts = 0.25 2.0",
]


def test_resolved_lines_are_pinned():
    # the fixed-point property holds for any consistent order and format, so
    # the canonical header of one config covering every section is pinned
    assert resolve_config(PINNED_TEXT).resolved_lines() == PINNED_LINES


def test_parse_error_line_numbers():
    with pytest.raises(ConfigError, match="line 1: malformed section header"):
        resolve_config("[model\n")
    with pytest.raises(ConfigError, match=r"line 3: duplicate section \[model\]"):
        resolve_config("[model]\nn_modes = 4\n[model]\n")
    with pytest.raises(ConfigError, match="line 2: expected 'key = value'"):
        resolve_config("[model]\nnonsense\n")
    with pytest.raises(ConfigError, match="line 1: key outside any"):
        resolve_config("n_modes = 4\n")
    with pytest.raises(ConfigError, match="line 2: empty key"):
        resolve_config("[model]\n= 3\n")
    with pytest.raises(ConfigError, match="line 3: duplicate key 'dt'"):
        resolve_config("[model]\ndt = 0.5\ndt = 0.25\n")
    with pytest.raises(ConfigError, match="line 2: unknown key 'bogus'"):
        resolve_config("[model]\nbogus = 1\n")
    with pytest.raises(ConfigError, match=r"line 1: unknown section \[junk\]"):
        resolve_config("[junk]\n")
    with pytest.raises(ConfigError, match="expects a int"):
        resolve_config("[model]\nn_modes = eight\n")
    with pytest.raises(ConfigError, match="expects a float"):
        resolve_config("[model]\ndt = tiny\n")
    with pytest.raises(ConfigError, match="nonempty list"):
        resolve_config("[ensemble]\ntimes =\n")
    # a repeated report time would be recorded in one column only
    with pytest.raises(ConfigError, match="^line 5: times lists 3.0 and 3.0, both on step 768 "):
        resolve_config("[model]\nt_final = 3\n[ensemble]\nn_traj = 5\ntimes = 1 3 2 3.0\n")
    with pytest.raises(ConfigError, match=r"\[doeblin\] requires a kernel path"):
        resolve_config("[doeblin]\nm = 2\n")
    with pytest.raises(ConfigError, match="line 2: n_traj must be at least 1"):
        resolve_config("[ensemble]\nn_traj = 0\n")
    # n_boot is read, and checked, by mixing alone
    assert resolve_config("[ensemble]\nn_boot = -3\n").n_boot == -3


@pytest.mark.parametrize("text, message", [
    ("[model]\nn_modes = 4\n[ensemble]\nic1 = nan 0 0 0 0 0 0 0 0\n",
     "line 4: key 'ic1' lists a non-finite coefficient"),
    ("[model]\nn_modes = 1\n[ensemble]\nic1 = zero\nic2 = 0 inf 0\n",
     "line 5: key 'ic2' lists a non-finite coefficient"),
    ("[ensemble]\ngamma = nan\n", "line 2: gamma must be finite"),
    ("[ensemble]\ngamma = -inf\n", "line 2: gamma must be finite"),
    ("[ensemble]\nn_traj = 5\np = inf\n", "line 3: p must be finite"),
    ("[ensemble]\ntimes = 1 2 3 inf\n", "line 2: times must be finite"),
    ("[ensemble]\nic1 = scaled-random:inf\n",
     "line 2: key 'ic1' has a radius that is not finite and nonnegative"),
    ("[ensemble]\nic1 = zero\nic2 = scaled-random:-0.5\n",
     "line 3: key 'ic2' has a radius that is not finite and nonnegative"),
], ids=["ic1-nan", "ic2-inf", "gamma-nan", "gamma-neg-inf", "p-inf", "times-inf", "radius-inf",
        "radius-negative"])
def test_non_finite_values_are_rejected_naming_their_line(text, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        resolve_config(text)


def test_ic_canonicalization_and_errors():
    cfg = resolve_config("[model]\nn_modes = 1\n[ensemble]\nic1 = 1 0.5 0.25\n")
    assert cfg.ics == ["1.0 0.5 0.25"]
    assert np.array_equal(cfg.ic_array(0), [1.0, 0.5, 0.25])
    with pytest.raises(ConfigError, match="lists 3 coefficients, expected 5 for n_modes = 2"):
        resolve_config("[model]\nn_modes = 2\n[ensemble]\nic1 = 1 0.5 0.25\n")
    cfg = resolve_config("[ensemble]\nic1 = scaled-random:50\nic2 = zero\n")
    assert np.array_equal(cfg.ic_array(0), scaled_random_field(32, 50.0, 1.0))
    assert np.array_equal(cfg.ic_array(1), np.zeros(65))


def test_spectrum_matches_default_and_overrides():
    cfg = resolve_config("")
    spec = cfg.spectrum()
    # the closed form q_k = k^-4 beyond k* = 3, zero on the head
    assert np.array_equal(spec.q, np.concatenate([np.zeros(4), np.arange(4.0, 33.0) ** -4.0]))
    assert (spec.alpha, spec.beta, spec.c1, spec.c2, spec.k_star) == (2.0, 2.0, 1.0, 1.0, 3)
    # c2 = 2 leaves room above the default tail for q5 = 0.0025 < 2 * 5^-4
    cfg = resolve_config("[model]\nn_modes = 8\nc2 = 2\nq5 = 0.0025\nq0 = 0.25\n")
    q = cfg.spectrum().q
    assert q[5] == 0.0025 and q[0] == 0.25
    assert q[4] == 2.0 * 4.0**-4.0
    # an override past the tail bound is refused when the spectrum is made,
    # which resolve_config does, naming the override's line
    message = "violation = tail_upper\n.*\nk = 5\nvalue = 0.5$"
    with pytest.raises(ValueError, match=message):
        RunConfig(n_modes=8, q_overrides={5: 0.5}).spectrum()
    with pytest.raises(ConfigError, match="^line 3: inadmissible noise spectrum:\n" + message):
        resolve_config("[model]\nn_modes = 8\nq05 = 0.5\n")
    # n_modes comes after the override, which is checked once n_modes is known
    message = "line 2: q80 override is outside 0..n_modes = 8"
    with pytest.raises(ConfigError, match=re.escape(message)):
        resolve_config("[model]\nq80 = 0.5\nn_modes = 8\n")


def test_poly_none_and_params():
    cfg = resolve_config("[model]\npoly = none\n")
    assert cfg.poly is None
    assert "poly = none" in cfg.resolved_lines()
    params = cfg.params()
    assert params.poly is None and params.n_modes == 32
    default_params = resolve_config("").params()
    assert default_params.poly is not None
    assert list(default_params.poly.coeffs) == [0.0, -1.0, 0.0, 1.0]
    assert default_params.seed == 1234


def test_resolved_times():
    assert resolve_config("").resolved_times() == [1.0]
    cfg = resolve_config("[model]\nt_final = 3\n")
    assert cfg.resolved_times() == [1.0, 2.0, 3.0]
    cfg = resolve_config("[model]\nt_final = 2\n[ensemble]\ntimes = 0.5 1.5\n")
    assert cfg.resolved_times() == [0.5, 1.5]


def test_doeblin_section_canonicalization():
    text = "[doeblin]\nkernel = data/k.txt\nK = 1 0\nm = 2\nmu0 = 0.5 0.5\n"
    cfg = resolve_config(text)
    assert cfg.doeblin_kernel == "data/k.txt"
    assert cfg.doeblin_K == [1, 0]
    assert cfg.doeblin_m == 2 and cfg.doeblin_mu0 == [0.5, 0.5]
    lines = cfg.resolved_lines()
    assert lines[-11:-6] == ["[doeblin]", "kernel = data/k.txt", "K = 1 0", "m = 2",
                             "mu0 = 0.5 0.5"]
    # defaults when only the kernel is given: None stands for all and uniform
    cfg = resolve_config("[doeblin]\nkernel = k.txt\n")
    assert cfg.doeblin_K is None and cfg.doeblin_m == 1
    assert cfg.doeblin_mu0 is None
    assert "K = all" in cfg.resolved_lines() and "mu0 = uniform" in cfg.resolved_lines()
    # no doeblin block in canonical output when absent
    assert "[doeblin]" not in resolve_config("").resolved_lines()


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# preset radii and mu0 weights
NONNEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
# odecheck rates, starts and times
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def joined(values):
    return " ".join(fmt_float(v) for v in values)


@st.composite
def run_configs(draw):
    """Configs in canonical form, as resolve_config returns them for some text:
    an admissible spectrum (c1 <= c2, beta within 0.1 below alpha, overrides
    between the tail bounds above k_star), an odd-degree polynomial with a
    positive leading coefficient and a guard whose square is a normal float."""
    n_modes = draw(st.integers(1, 6))
    n_slots = 2 * n_modes + 1
    ic = st.one_of(
        st.just("zero"),
        NONNEGATIVE.map(lambda r: "scaled-random:" + fmt_float(r)),
        st.lists(FINITE, min_size=n_slots, max_size=n_slots).map(joined),
    )
    dt = 2.0 ** -draw(st.integers(0, 10))
    t_final = float(draw(st.integers(1, 6)))
    steps = st.lists(st.integers(0, round(t_final / dt)), min_size=1, max_size=5, unique=True)
    alpha = draw(st.floats(2.0, 1e3))
    beta = alpha - draw(st.floats(0.0, 0.1))
    c1, c2 = sorted(draw(st.floats(1e-300, 1e300)) for _ in range(2))
    k_star = draw(st.integers(0, 10))

    def amplitude(k):  # free on the head, between the pinching curves on the tail
        if k <= k_star:
            return draw(NONNEGATIVE)
        lo, hi = c1 * k ** (-2 * alpha), c2 * k ** (-2 * beta)
        return lo + draw(st.floats(0.0, 1.0)) * (hi - lo)

    odd = st.sampled_from([4, 6]).flatmap(lambda n: st.lists(FINITE, min_size=n, max_size=n))
    cfg = RunConfig(
        n_modes=n_modes,
        dt=dt,
        t_final=t_final,
        poly=draw(st.none() | odd.filter(lambda c: c[-1] > 0)),
        alpha=alpha,
        beta=beta,
        c1=c1,
        c2=c2,
        k_star=k_star,
        seed=draw(st.integers(0, 2**64 - 1)),
        blowup_guard=draw(st.floats(1.5e-154, 1e308)),
        q_overrides={k: amplitude(k) for k in draw(st.sets(st.integers(0, n_modes), max_size=3))},
        ics=draw(st.lists(ic, min_size=1, max_size=3)),
        n_traj=draw(st.integers(1, 10**6)),
        # resolve_config refuses a gamma above alpha, or one above 40, which
        # weights mode 6 beyond float max, and a p below 1
        gamma=draw(st.floats(max_value=min(40.0, alpha), allow_nan=False, allow_infinity=False)),
        p=draw(st.floats(min_value=1.0, allow_nan=False, allow_infinity=False)),
        times=draw(steps.map(lambda ns: [n * dt for n in ns])),  # on the grid, up to t_final
        n_boot=draw(st.integers(0, 10**4)),
        ode_qs=draw(st.lists(st.integers(1, 4).map(lambda k: 2 * k + 1), min_size=1, max_size=3)),
        ode_cs=draw(st.lists(POSITIVE, min_size=1, max_size=3)),
        ode_y0s=draw(st.lists(POSITIVE, min_size=1, max_size=3)),
        ode_ts=draw(st.lists(POSITIVE, min_size=1, max_size=3)),
    )
    if draw(st.booleans()):
        cfg.doeblin_kernel = draw(st.text("abc_./0123456789", min_size=1, max_size=12))
        cfg.doeblin_K = draw(st.none() | st.lists(st.integers(0, 50), min_size=1, max_size=4))
        cfg.doeblin_m = draw(st.integers(1, 50))
        cfg.doeblin_mu0 = draw(st.none() | st.lists(NONNEGATIVE, min_size=1, max_size=4))
    return cfg


@PROPERTY
@given(run_configs())
def test_resolved_lines_are_a_fixed_point(cfg):
    lines = cfg.resolved_lines()
    again = resolve_config("\n".join(lines))
    assert again == cfg
    assert again.resolved_lines() == lines


TOKENS = ["-1", "0", "2", "0.5", "inf", "-inf", "nan", "1e-300", "x", "none",
          "zero", "all", "uniform", "scaled-random:-1", "1 2 3"]
SECTION_KEYS = {
    "model": ["n_modes", "dt", "t_final", "poly", "alpha", "beta", "c1", "c2",
              "k_star", "seed", "blowup_guard", "q0", "q2"],
    "ensemble": ["ic1", "ic2", "n_traj", "gamma", "p", "times", "n_boot"],
    "doeblin": ["kernel", "K", "m", "mu0"],
    "odecheck": ["qs", "cs", "y0s", "ts"],
}


@st.composite
def adversarial_texts(draw):
    """Up to four known keys, each with a token value, grouped by section."""
    entry = st.tuples(
        st.sampled_from([(sec, key) for sec, keys in SECTION_KEYS.items() for key in keys]),
        st.sampled_from(TOKENS),
    )
    entries = draw(st.lists(entry, max_size=4, unique_by=lambda e: e[0]))
    lines = []
    for section in SECTION_KEYS:
        chosen = [f"{key} = {value}" for (sec, key), value in entries if sec == section]
        if chosen:
            lines += [f"[{section}]", *chosen]
    return "\n".join(lines) + "\n"


@PROPERTY
@given(adversarial_texts())
@example("[model]\nseed = -1\n")  # too small for the uint64 stream key
@example("[model]\nt_final = inf\n")  # has no integer times
@example("[model]\nk_star = -1\n")  # the default tail must not take 0^(-2 beta)
@example("[model]\ndt = 1e-300\n")  # 1e300 steps do not fit in int64
@example("[model]\nn_modes = 100000000000\n")  # its spectrum does not fit in memory
def test_adversarial_values_raise_only_config_or_value_errors(text):
    # ConfigError is a ValueError; anything else escapes and fails the test,
    # and so does a numpy RuntimeWarning raised on the way to validation
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            cfg = resolve_config(text)
        except ValueError:
            return
        with contextlib.suppress(ValueError):
            cfg.resolved_lines()
        with contextlib.suppress(ValueError):
            params = cfg.params()
            trajectory_generator(params.seed, 0)  # an accepted seed keys a stream
            assert params.n_steps < 2**63


def test_library_objects_declare_no_run_defaults():
    # RunConfig is the one place a run's defaults are declared
    for cls in (SimulationParams, NoiseSpectrum, EnsembleSpec):
        for f in dataclasses.fields(cls):
            assert f.default is dataclasses.MISSING, (cls.__name__, f.name)
            assert f.default_factory is dataclasses.MISSING, (cls.__name__, f.name)
    for name, param in inspect.signature(NoiseSpectrum.default).parameters.items():
        assert param.default is inspect.Parameter.empty, name


def readme_config_block():
    """(section, key, value) of each key = value line of the README's
    configuration block, inline comments stripped."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = text.split("## Configuration format", 1)[1].split("\n## ", 1)[0]
    rows, section = [], None
    for line in block.splitlines():
        line = line.partition("#")[0].strip() if line.startswith("    ") else ""
        if line.startswith("["):
            section = line[1:-1]
        elif line:
            key, _, value = line.partition("=")
            rows.append((section, key.strip(), value.strip()))
    return rows


def test_readme_configuration_block_lists_the_defaults():
    rows = readme_config_block()
    # every key of a header, in its order, and the q5 and ic2 examples
    header, section = [], None
    for line in RunConfig(doeblin_kernel="kernel.txt").resolved_lines():
        if line.startswith("["):
            section = line[1:-1]
        elif line:
            header.append((section, line.partition(" = ")[0]))
    assert [(section, key) for section, key, _ in rows if key not in ("q5", "ic2")] == header
    for section, key, value in rows:
        if key in ("kernel", "times", "q5", "ic1", "ic2"):  # examples, not defaults
            continue
        extra = "kernel = kernel.txt\n" if section == "doeblin" else ""
        cfg = resolve_config(f"[{section}]\n{extra}{key} = {value}\n")
        assert cfg == RunConfig(doeblin_kernel=cfg.doeblin_kernel), (section, key, value)
