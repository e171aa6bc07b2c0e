"""End-to-end tests for the command-line driver.

Each test invokes glmix.cli.main directly with an argv list, captures stdout
through capsys, and works inside a pytest tmp_path.  Numeric expectations
are frozen from probe runs of the same deterministic pipelines (one random
stream per seed and trajectory id), so any drift in the simulator or the
certificate toolkit shows up here as a byte-level diff.
"""

import contextlib
import decimal
import hashlib
import io
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import glmix
import glmix.cli as cli
from glmix.cli import main
from glmix.doeblin import parse_certificate, read_kernel
from glmix.integrator import ensemble_workers, ode_comparison

KERNEL_FILE = Path(__file__).parent / "data" / "two_state.txt"

SIMULATE_CFG = """\
[model]
n_modes = 4
dt = 0.03125
t_final = 2.0
seed = 11

[ensemble]
ic1 = zero
ic2 = scaled-random:1.0
n_traj = 3
"""

# Default 32-mode model, moderate starts.  Probe run: estimates
# 0.01477 and 0.01364, max ratio 1.083, overlapping intervals.
MOMENTS_UNIFORM_CFG = """\
[ensemble]
ic1 = zero
ic2 = scaled-random:100.0
n_traj = 200
"""

# Smaller model where the two moment estimates separate cleanly: the
# ratio stays under 2 but the confidence intervals are disjoint.
MOMENTS_SPLIT_CFG = """\
[model]
n_modes = 8
dt = 0.015625
t_final = 1.0
seed = 7

[ensemble]
ic1 = zero
ic2 = scaled-random:100.0
n_traj = 150
"""

# Both chains sit at the sampling floor from t = 1 on, so the decay fit
# has no usable window and the rate check must report a failure.
MIXING_FLAT_CFG = """\
[model]
n_modes = 8
dt = 0.015625
t_final = 4.0
seed = 7

[ensemble]
ic1 = zero
ic2 = scaled-random:100.0
n_traj = 60
n_boot = 80
"""


def body_lines(path):
    """Non-comment lines of an output file."""
    return [l for l in path.read_text().splitlines() if not l.startswith("#")]


def header_lines(path):
    """Comment-block contents of an output file, prefix stripped."""
    out = []
    for line in path.read_text().splitlines():
        if not line.startswith("#"):
            break
        out.append(line[2:] if line.startswith("# ") else line[1:])
    return out


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


# the README quick start, in its order, with the exit code it gives each
QUICK_START = [("simulate", "simulate_small", 0), ("moments", "moments_uniform", 0),
               ("mixing", "mixing_small", 1), ("doeblin", "doeblin_two_state", 0),
               ("odecheck", "odecheck_grid", 0)]
# sha256 of each quick-start file (its kernel path masked) and of its stdout
# less the 'wrote =' lines; simulate prints nothing else.  On the worked
# kernel the doeblin geometric_gap is decided at k = 50, so its last digits
# follow the rounding of the P^2 products: it prints -0.00026818974439965564
# against the exact -0.000268189744398891...
QUICK_START_SHA256 = {
    "simulate": {
        "trajectories.csv": "c9dd9b6cec30e33263dd203ece177c48b0f49cfad6b68854c78c63c699897485",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "moments": {
        "moments.csv": "aa64b752f63e1be129c67bd7c66133e7ff5396b35695d76b71d273ad6cf28d95",
        "moments_summary.txt": "7c525f371c523c6d93bdee8719c91c730c3e04fdc80a75aace6e1a2a57059064",
        "stdout": "8444fdfee73cfcf100a68b481591829a37239a1b58aa6e5034a67c7cd2d31e71",
    },
    "mixing": {
        "mixing.csv": "5a9ad2efe81404e660e1017295620a01efa1b1f8de2f12efb5ae19e05405c586",
        "mixing_summary.txt": "fefc9d969e2f6db239d5258f61b410deb847450919eb352b227b661a105cf9c7",
        "stdout": "98b954f4e5fd0d7461aa49fb3bae71041164c9f741dd07dd69e355d8e05ecd8c",
    },
    "doeblin": {
        "certificate.txt": "13e60acf9e0625e488e11e1918897c4303e53742696204f42f23ffbdc2f55864",
        "search_certificate.txt": "de09ae1b7d0e1cf74a3462635ce209d183d24470ad261c6fc0c7f1702dc73c89",
        "stdout": "286ccaa0494a278eb4d2e060f06a5974268e483c28b0fc5e6c84321414816f6e",
    },
    "odecheck": {
        "odecheck.csv": "2436293de3051c9610127e17f4c71387473e3f9e42714bcfc9df587f79686161",
        "stdout": "ac0351e8009faada01d5dd9956bcc8e52badba2f3278ffdf32026fc10949acfd",
    },
}


def test_cli_import_loads_no_scipy_but_the_modules_its_calls_use(tmp_path):
    # a fresh interpreter: the test process has all of these loaded already.
    # The import loads locale, which argparse's gettext reads when main builds
    # the parser, but not the draw, FFT or thread-pool modules: doeblin and
    # odecheck never call them, so they pay no import for them, and the
    # subcommands that step an ensemble load them on first use
    code = (
        "import contextlib, io, sys\n"
        "import glmix.cli\n"
        "lazy = ('numpy.random', 'numpy.fft', 'concurrent.futures')\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('scipy') or m in lazy)\n"
        "print('import', loaded(), 'locale' in sys.modules)\n"
        "for sub, cfg in zip(sys.argv[2::2], sys.argv[3::2]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        glmix.cli.main([sub, '--config', cfg, '--out', sys.argv[1] + '/' + sub])\n"
        "    print(sub, loaded())\n"
    )
    configs = Path(__file__).parents[1] / "demos" / "configs"
    env = dict(os.environ, PYTHONPATH=str(Path(glmix.__file__).parents[1]))
    argv = [str(tmp_path / "lazy")]
    for sub, cfg in [("doeblin", "doeblin_two_state"), ("odecheck", "odecheck_grid"),
                     ("simulate", "simulate_small")]:
        argv += [sub, str(configs / f"{cfg}.cfg")]
    run = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert run.stdout.splitlines() == [
        "import [] True", "doeblin []", "odecheck []",
        "simulate ['concurrent.futures', 'numpy.fft', 'numpy.random']",
    ]
    # every subcommand runs with scipy unimportable and writes what a normal run does
    code = (
        "import contextlib, io, sys\n"
        "sys.modules['scipy'] = None  # import scipy now raises ImportError\n"
        "import glmix.cli\n"
        "codes = []\n"
        "for sub, cfg in zip(sys.argv[2::2], sys.argv[3::2]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(glmix.cli.main([sub, '--config', cfg, '--out', sys.argv[1] + '/' + sub]))\n"
        "print(codes)\n"
    )
    argv = [str(tmp_path / "no_scipy")]
    for sub, cfg, _ in QUICK_START:
        argv += [sub, str(configs / f"{cfg}.cfg")]
    run = subprocess.run([sys.executable, "-W", "error", "-c", code, *argv], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    assert run.stdout.splitlines() == [str([want for _, _, want in QUICK_START])]
    # the doeblin header names its kernel by absolute path, masked in the pins
    kernel = str((configs.parent / "data" / "two_state.txt").resolve()).encode()
    for sub, cfg, want in QUICK_START:
        normal = tmp_path / "normal" / sub
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            assert main([sub, "--config", str(configs / f"{cfg}.cfg"), "--out", str(normal)]) == want
        names = sorted(f.name for f in normal.iterdir())
        assert sorted(f.name for f in (tmp_path / "no_scipy" / sub).iterdir()) == names
        for name in names:
            assert (tmp_path / "no_scipy" / sub / name).read_bytes() == (normal / name).read_bytes()
        stdout = "".join(l for l in printed.getvalue().splitlines(True)
                         if not l.startswith("wrote = "))
        digests = {name: hashlib.sha256((normal / name).read_bytes().replace(kernel, b"<kernel>"))
                   .hexdigest() for name in names}
        digests["stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
        assert digests == QUICK_START_SHA256[sub]


def test_cli_import_starts_blas_on_one_thread_unless_a_thread_variable_is_set():
    # a fresh interpreter: the test process imported glmix.cli and so carries
    # OMP_NUM_THREADS itself; numpy's OpenBLAS started a worker per extra core
    code = ("import os, glmix.cli; "
            "print(os.environ['OMP_NUM_THREADS'], len(os.listdir('/proc/self/task')))")
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    env["PYTHONPATH"] = str(Path(glmix.__file__).parents[1])

    def fresh(**extra):
        run = subprocess.run([sys.executable, "-c", code], env=dict(env, **extra),
                             capture_output=True, text=True, timeout=120, check=True)
        variable, threads = run.stdout.split()
        return variable, int(threads)

    assert fresh()[0] == "1"
    assert fresh(OMP_NUM_THREADS="3")[0] == "3"
    if not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("thread counts need /proc/self/task and two usable cores")
    assert fresh()[1] == 1
    assert fresh(OPENBLAS_NUM_THREADS="2")[1] == 2


def test_mixing_call_loads_no_numpy_ma(tmp_path):
    # np.median would import numpy.ma inside the call, in a fresh interpreter
    code = (
        "import contextlib, io, sys, glmix.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = glmix.cli.main(['mixing', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(rc, sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))"
    )
    cfg = Path(__file__).parents[1] / "demos" / "configs" / "mixing_small.cfg"
    env = dict(os.environ, PYTHONPATH=str(Path(glmix.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code, str(cfg), str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, timeout=300, check=True)
    assert run.stdout.splitlines() == ["1 []"]


def test_odecheck_writes_grid_and_reports_both_verdicts(tmp_path, capsys):
    out = tmp_path / "nested" / "odecheck"
    rc = main(["odecheck", "--out", str(out)])
    text = capsys.readouterr().out
    assert rc == 0
    assert out.is_dir()

    lines = text.splitlines()
    case_lines = [l for l in lines if l.startswith("q = ")]
    assert len(case_lines) == 3
    assert case_lines[0] == (
        "q = 3 c = 1.0 y0 = 10.0 t = 0.5 corrected_holds = 1 literal_holds = 0"
    )
    for l in case_lines:
        assert "corrected_holds = 1" in l
        assert "literal_holds = 0" in l

    csv = out / "odecheck.csv"
    head = header_lines(csv)
    assert head[0] == "glmix odecheck"
    assert "qs = 3 5 7" in head
    rows = body_lines(csv)
    assert rows[0] == (
        "q,c,y0,t,y_final,corrected_bound,literal_bound,corrected_holds,literal_holds"
    )
    assert len(rows) == 4
    for row in rows[1:]:
        fields = row.split(",")
        q, c, y0, t = int(fields[0]), float(fields[1]), float(fields[2]), float(fields[3])
        r = ode_comparison(q, c, y0, t)
        assert fields[4] == repr(r.y_final)
        assert fields[5] == repr(r.corrected_bound)
        assert fields[6] == repr(r.literal_bound)
        assert fields[7] == str(int(r.corrected_holds))
        assert fields[8] == str(int(r.literal_holds))
    # the unforced witness row: literal constant (q c t)^{-1/(q-1)} sits
    # below the true solution while the corrected bound clears it
    witness = rows[1].split(",")
    assert math.isclose(float(witness[6]), 1.5 ** -0.5, rel_tol=1e-12)
    assert float(witness[5]) == 1.0


def exact_decay(q, c, y0, t):
    """y(t) of y' = -c y^q from y0, in 50-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        base = decimal.Decimal(y0) ** (1 - q) + (q - 1) * decimal.Decimal(c) * decimal.Decimal(t)
        return float(base ** (decimal.Decimal(-1) / (q - 1)))


def exact_bound(k, q, c, t):
    """(k c t)^(-1/(q-1)) in 50-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        base = k * decimal.Decimal(c) * decimal.Decimal(t)
        return float(base ** (decimal.Decimal(-1) / (q - 1)))


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once it has run for seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("entries", [
    # LSODA overflowed in z**q and the corrected bound was reported failed (exit 1)
    {"ts": "1e300"},
    # overflow RuntimeWarnings, which end the run under -W error
    {"ts": "1e100"},
    {"cs": "1e100"},
    # LSODA's step stopped advancing and the run never ended
    {"y0s": "1e150"},
    {"cs": "1e200"},
    {"cs": "1e300"},
    {"ts": "1e-300"},
    {"cs": "1e-200", "ts": "1e-200"},  # and (q - 1) c t underflowed: both bounds read inf
    # LSODA ended at y = -2.4e-14, below its absolute tolerance
    {"cs": "1e30"},
    # LSODA finished near its absolute tolerance 1e-13: 19%, 0.4% and 0.4% off
    {"cs": "1e28"},
    {"cs": "1e26"},
    {"ts": "1e26"},
    # (q - 1) c t overflowed to inf, so both bounds read 0 and the corrected
    # one was reported failed (exit 1)
    {"qs": "7", "cs": "1e308", "y0s": "5e-324", "ts": "1e308"},
    {"qs": "3", "cs": "1e308", "y0s": "1e308", "ts": "1e308"},
    # (q - 1) c t = 2.2e-320 is subnormal: its rounding put the corrected
    # bound 1.7e-5 below y(t) (exit 1)
    {"qs": "3", "cs": "1.1e-160", "y0s": "1e300", "ts": "1e-160"},
    # y(t) sits 3.6e-14 above the bound 8.4e74, relative to it, which an
    # absolute tolerance of 1e-8 above a bound of 1 failed (exit 1)
    {"qs": "5", "cs": "0.5", "y0s": "1e300", "ts": "1e-300"},
])
def test_odecheck_extreme_inputs_end_with_the_exact_decay(tmp_path, capsys, entries):
    entries = {"qs": "3", "cs": "1", "y0s": "10", "ts": "0.5", **entries}
    text = "[odecheck]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items())
    with deadline(5):
        rc = main(["odecheck", "--config", str(write_cfg(tmp_path, text)),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    fields = body_lines(tmp_path / "out" / "odecheck.csv")[1].split(",")
    q, c, y0, t = int(fields[0]), float(fields[1]), float(fields[2]), float(fields[3])
    assert float(fields[4]) == pytest.approx(exact_decay(q, c, y0, t), rel=1e-12, abs=0.0)
    assert float(fields[5]) == pytest.approx(exact_bound(q - 1, q, c, t), rel=1e-12, abs=0.0)
    assert float(fields[6]) == pytest.approx(exact_bound(q, q, c, t), rel=1e-12, abs=0.0)
    assert fields[7] == "1"  # the corrected bound holds


def test_odecheck_verdicts_are_relative_below_one(tmp_path, capsys):
    # y = 1e-14 is 22% above the literal bound 8.16e-15, which an absolute
    # tolerance of 1e-8 passed
    cfg = write_cfg(tmp_path, "[odecheck]\nqs = 3\ncs = 1e28\ny0s = 10\nts = 0.5\n")
    assert main(["odecheck", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert "corrected_holds = 1 literal_holds = 0" in capsys.readouterr().out


ODE_POSITIVE = ["5e-324", "1e-300", "1e-160", "0.5", "1", "10", "1e160", "1e300", "1e308"]
ODE_REFUSED = ["-inf", "-1", "0", "inf", "nan"]


@st.composite
def odecheck_configs(draw):
    """An [odecheck] section: q = 2 n + 1 up to about 10^400 (1 and both
    sides of the float range's edge included), and one or two extreme values
    per key, most of them positive."""
    n = st.one_of(st.integers(1, 4), st.integers(1, 10**6), st.integers(0, 10**400),
                  st.sampled_from([2**52, 10**154, 2**1022, 9 * 10**307, 2**1023]))
    value = st.one_of(st.sampled_from(ODE_POSITIVE), st.sampled_from(ODE_POSITIVE + ODE_REFUSED))
    lines = ["[odecheck]", "qs = " + " ".join(str(2 * v + 1) for v in draw(
        st.lists(n, min_size=1, max_size=2)))]
    for key in ("cs", "y0s", "ts"):
        lines.append(f"{key} = " + " ".join(draw(st.lists(value, min_size=1, max_size=2))))
    return "\n".join(lines) + "\n"


# the corrected bound is a theorem for every positive input, so an exit 1 is
# a float artefact
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(odecheck_configs())
@example("[odecheck]\nqs = 1" + "0" * 400 + "1\ncs = 1\ny0s = 2\nts = 1\n")
def test_odecheck_on_extreme_configs_runs_or_exits_two(text):
    assert run_and_rerun("odecheck", text) in (0, 2)


@pytest.mark.parametrize("line, message", [
    ("qs = 3 4", "qs must be odd integers >= 3"),
    ("cs = 1 0", "cs must be positive"),
    ("y0s = -1", "y0s must be positive"),
    ("ts = 0", "ts must be positive"),
])
def test_odecheck_refusals_name_their_line(tmp_path, capsys, line, message):
    # each exited 2 with ode_comparison's message and no line number
    text = run_exit_two(tmp_path, capsys, ["odecheck"], f"[odecheck]\n{line}\n")
    assert text == f"error = config\nline 2: {message}\n"


# extreme config values (zero, subnormal, 1e±300, non-finite, negative) and ordinary ones
EXTREME = ["0", "5e-324", "1e-300", "1e300", "-1e300", "nan", "inf", "-inf", "-1"]
ORDINARY = ["0.5", "1", "2"]
# the three configs of a gamma whose weight l_4^(2 gamma) overflows
GAMMA_MODEL = "[model]\nn_modes = 4\ndt = 0.0625\n"
GAMMA_PAIR = ("t_final = 4\nalpha = 300\nbeta = 300\n[ensemble]\nic1 = zero\nic2 = zero\n"
              "n_traj = 4\nn_boot = 2\ngamma = 100\n")
# a noise exponent whose tail amplitudes k^(-2 beta) overflow
BETA_OVERFLOW = "[model]\nn_modes = 4\ndt = 0.125\nbeta = -1e300\n[ensemble]\nic1 = zero\n"


@st.composite
def ensemble_configs(draw, sub):
    """A [model] and [ensemble] config small enough to run in milliseconds:
    n_modes <= 4, dt 1/8 or 1/16, t_final <= 4, n_traj <= 16, n_boot <= 4;
    mixing, which needs four report times, reports at the default 1..4 or
    at quarters of t_final = 2.  Up to two other keys take an ordinary or an
    extreme value; gamma also takes 100 and 1e6, and p 3, 1e3 and 1e6.  So
    that a third of the configs run, each list (poly, times, a start's
    coefficients) is ordinary but for one entry, and one start in eight may
    take a non-finite token."""
    value = st.sampled_from(ORDINARY + EXTREME)
    finite = st.sampled_from(ORDINARY + [v for v in EXTREME if math.isfinite(float(v))])

    def but_one(entries, tokens):
        entries = list(entries)
        entries[draw(st.integers(0, len(entries) - 1))] = draw(tokens)
        return " ".join(entries)

    # dt = 1/16 one time in four: the steps, not the draws, cost the time
    n, dt = draw(st.sampled_from([(n, dt) for n in range(1, 5)
                                  for dt in ("0.125", "0.125", "0.125", "0.0625")]))
    t_final = draw(st.sampled_from([2, 4] if sub == "mixing" else [1, 2, 4]))
    model = [f"n_modes = {n}", f"dt = {dt}", f"t_final = {t_final}"]
    ensemble = []
    times = "0.5 1 1.5 2" if sub == "mixing" and t_final == 2 else None
    keys = [None, "poly", "spectrum", "blowup_guard", "seed", "gamma", "p"]
    keys += ["times"] if sub == "mixing" else []
    for key in dict.fromkeys([draw(st.sampled_from(keys)), draw(st.sampled_from(keys))]):
        if key == "poly":
            cubic = but_one("0 -1 0 1".split(), value)
            model.append(f"poly = {draw(st.sampled_from(['none', cubic]))}")
        elif key == "spectrum":
            spectrum = ["alpha", "beta", "c1", "c2", "k_star", "q0", f"q{n}"]
            model.append(f"{draw(st.sampled_from(spectrum))} = {draw(value)}")
        elif key == "blowup_guard":
            model.append(f"blowup_guard = {draw(value)}")
        elif key == "seed":
            model.append(f"seed = {draw(st.integers(0, 3))}")
        elif key == "times":
            times = but_one((times or "1 2 3 4").split(), value)
        elif key is not None:
            extra = ["100", "1e6"] if key == "gamma" else ["3", "1e3", "1e6"]
            ensemble.append(f"{key} = {draw(st.sampled_from(ORDINARY + EXTREME + extra))}")
    ensemble += [] if times is None else [f"times = {times}"]

    def start():
        kind = draw(st.sampled_from(range(8)))  # one start in eight may take any token
        if kind < 3:
            return "zero"
        tokens = value if kind == 7 else finite
        if kind < 5 or (kind == 7 and draw(st.booleans())):
            return f"scaled-random:{draw(tokens)}"
        return but_one((ORDINARY * n)[: 2 * n] + ORDINARY[:1], tokens)

    # simulate and moments also run one start; mixing needs two
    starts = 2 if sub == "mixing" else draw(st.sampled_from([1, 2]))
    ensemble += [f"ic{i} = {start()}" for i in range(1, starts + 1)]
    ensemble += [f"n_traj = {draw(st.sampled_from([*range(2, 17), 1]))}",
                 f"n_boot = {draw(st.integers(0, 4))}"]
    return "\n".join(["[model]", *model, "[ensemble]", *ensemble]) + "\n"


# what a run may refuse only once it has stepped: the trajectories it lost,
# and a p-th power (out of float range either way) or bootstrap square of
# what it measured that overflows
RUN_TIME_REFUSALS = re.compile(
    r"all trajectories aborted for initial condition \d+"
    r"|too many aborted trajectories at t = \S+"
    r"|p = \S+: the p-th power of a trajectory norm (overflows|underflows to 0)"
    r"|p = \S+: the square in a distance's bootstrap stderr overflows")


def check_refusal(sub, text, printed):
    """An exit 2 on config text prints 'error = config' and 'line N:', N a
    line of the text that sets a key (only mixing with no start set names
    none), or 'error = validation' and a run-time refusal."""
    kind, _, message = printed.partition("\n")
    if kind == "error = validation":
        assert RUN_TIME_REFUSALS.fullmatch(message.rstrip("\n")), printed
        return
    assert kind == "error = config", printed
    line = re.match(r"line (\d+): ", message)
    if line is None:
        assert sub == "mixing" and not re.search(r"^ic\d+ =", text, re.M), printed
    else:
        assert re.fullmatch(r"\w+ = .*", text.splitlines()[int(line[1]) - 1]), printed


def run_and_rerun(sub, text):
    """Exit code of glmix sub on config text, with every warning an error.
    An exit 2 must print what check_refusal allows; an exit 0 or 1 must
    rerun from its first file's header to the same exit code and files."""
    with tempfile.TemporaryDirectory() as tmp:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([sub, "--config", str(write_cfg(Path(tmp), text)),
                       "--out", str(Path(tmp, "a"))])
            assert rc in (0, 1, 2), out.getvalue()
            if rc == 2:
                check_refusal(sub, text, out.getvalue())
                return rc
            names = sorted(os.listdir(Path(tmp, "a")))
            header = header_lines(Path(tmp, "a", names[0]))[1:]
            rerun = write_cfg(Path(tmp), "\n".join(header) + "\n", "rerun.cfg")
            assert main([sub, "--config", str(rerun), "--out", str(Path(tmp, "b"))]) == rc
        assert sorted(os.listdir(Path(tmp, "b"))) == names
        for name in names:
            assert Path(tmp, "b", name).read_bytes() == Path(tmp, "a", name).read_bytes()
    return rc


@pytest.mark.parametrize("sub", ["simulate", "moments", "mixing"])
def test_whole_ensemble_configs_run_or_exit_two(sub):
    codes = []

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(ensemble_configs(sub))
    @example(GAMMA_MODEL + "[ensemble]\ngamma = 100\n")
    @example(GAMMA_MODEL + GAMMA_PAIR)
    @example(BETA_OVERFLOW)
    def check(text):
        codes.append(run_and_rerun(sub, text))

    check()
    # most extreme values exit 2: a third of the configs must still run
    assert sum(rc < 2 for rc in codes) >= len(codes) / 3, codes


def test_simulate_row_grid_and_reruns_are_byte_identical(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SIMULATE_CFG)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    out3 = tmp_path / "c"
    out4 = tmp_path / "d"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out3),
                 "--threads", "4"]) == 0
    other = write_cfg(tmp_path, SIMULATE_CFG.replace("seed = 11", "seed = 99"), "other.cfg")
    assert main(["simulate", "--config", str(other), "--out", str(out4)]) == 0
    capsys.readouterr()

    f1 = (out1 / "trajectories.csv").read_bytes()
    assert (out2 / "trajectories.csv").read_bytes() == f1
    assert (out3 / "trajectories.csv").read_bytes() == f1
    assert (out4 / "trajectories.csv").read_bytes() != f1

    head = header_lines(out1 / "trajectories.csv")
    assert head[0] == "glmix simulate"
    assert "seed = 11" in head
    assert "seed = 99" in header_lines(out4 / "trajectories.csv")

    rows = body_lines(out1 / "trajectories.csv")
    assert rows[0].startswith("trajectory,t,")
    data = [r.split(",") for r in rows[1:]]
    # two initial conditions, three trajectories each, recording grid 0..2
    assert len(data) == 6 * 3
    assert [int(r[0]) for r in data] == sorted(3 * list(range(6)))
    assert [float(r[1]) for r in data[:3]] == [0.0, 1.0, 2.0]
    assert all(r[5] == "0" for r in data)


# two starts of 1100 trajectories: three 512-row blocks each
CHUNKED_CFG = """\
[model]
n_modes = 2
dt = 0.125

[ensemble]
ic1 = zero
ic2 = scaled-random:1.0
n_traj = 1100
"""


@pytest.mark.parametrize("threads", [1, 2])
def test_simulate_steps_each_start_in_chunks_of_one_block_per_worker(
    tmp_path, capsys, monkeypatch, threads
):
    calls = []
    real = cli.run_ensemble

    def spy(x, params, traj_ids, **kwargs):
        calls.append(np.asarray(traj_ids).copy())
        return real(x, params, traj_ids, **kwargs)

    monkeypatch.setattr(cli, "run_ensemble", spy)
    cfg = write_cfg(tmp_path, CHUNKED_CFG)
    argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path), "--threads", str(threads)]
    assert main(argv) == 0
    capsys.readouterr()
    chunk = ensemble_workers(threads) * 512
    assert len(calls) == 2 * math.ceil(1100 / chunk)
    assert all(0 < ids.size <= chunk and np.all(np.diff(ids) == 1) for ids in calls)
    assert np.array_equal(np.concatenate(calls), np.arange(2 * 1100))


def test_simulate_file_is_independent_of_the_chunking(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path, CHUNKED_CFG)
    files = []
    for threads in (1, 2, 3):
        out = tmp_path / f"threads{threads}"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--threads", str(threads)]) == 0
        files.append((out / "trajectories.csv").read_bytes())
    # three blocks a chunk on one thread, whatever the cores
    monkeypatch.setattr(cli, "ensemble_workers", lambda threads: 3)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "three")]) == 0
    files.append((tmp_path / "three" / "trajectories.csv").read_bytes())
    capsys.readouterr()
    assert len(body_lines(tmp_path / "three" / "trajectories.csv")) == 1 + 2 * 1100 * 2
    assert all(f == files[0] for f in files)


def simulate_peak_bytes(tmp_path, n_traj):
    """tracemalloc peak of one drift-free glmix simulate (8 modes, records at
    t = 0, 1, ..., 4) of n_traj trajectories on one thread."""
    cfg = write_cfg(
        tmp_path,
        "[model]\nn_modes = 8\ndt = 0.0625\nt_final = 4.0\npoly = none\n\n"
        f"[ensemble]\nic1 = zero\nn_traj = {n_traj}\n",
        name=f"{n_traj}.cfg",
    )
    tracemalloc.start()
    try:
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / str(n_traj))]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_memory_does_not_grow_with_n_traj(tmp_path, capsys):
    # 2,000 and 16,000 trajectories hold 1.4 and 10.9 MB of records; one
    # 512-trajectory chunk holds 0.35 MB
    small, large = (simulate_peak_bytes(tmp_path, n) for n in (2000, 16000))
    capsys.readouterr()
    assert abs(large - small) <= 0.1 * max(large, small)


DEMO_CONFIGS = Path(__file__).parents[1] / "demos" / "configs"
# the README quick-start config of each subcommand
DEMO_CONFIG_OF = {"simulate": "simulate_small", "moments": "moments_uniform",
                  "mixing": "mixing_small", "doeblin": "doeblin_two_state",
                  "odecheck": "odecheck_grid"}


@pytest.mark.parametrize("sub", DEMO_CONFIG_OF)
def test_output_regenerates_from_recorded_header(tmp_path, capsys, sub):
    out1, out2 = tmp_path / "first", tmp_path / "second"
    cfg = DEMO_CONFIGS / f"{DEMO_CONFIG_OF[sub]}.cfg"
    rc = main([sub, "--config", str(cfg), "--out", str(out1)])
    files = sorted(p.name for p in out1.iterdir())
    head = header_lines(out1 / files[0])
    assert head[0] == f"glmix {sub}"
    recovered = write_cfg(tmp_path, "\n".join(head[1:]) + "\n", name="recovered.cfg")
    assert main([sub, "--config", str(recovered), "--out", str(out2)]) == rc
    capsys.readouterr()
    assert sorted(p.name for p in out2.iterdir()) == files
    for f in files:
        assert (out2 / f).read_bytes() == (out1 / f).read_bytes(), f


def test_simulate_reports_aborted_trajectories(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "[model]\nn_modes = 4\ndt = 0.03125\nt_final = 1.0\n"
        "blowup_guard = 1e6\nseed = 11\n\n"
        "[ensemble]\nic1 = 1e8 0 0 0 0 0 0 0 0\nn_traj = 2\n",
    )
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    text = capsys.readouterr().out
    assert rc == 1
    assert "failure = trajectory_abort" in text
    assert "trajectory = 0" in text
    assert "trajectory = 1" in text
    assert "time = 0.03125" in text
    # the file is still written, with the abort flag set on later rows
    rows = body_lines(out / "trajectories.csv")
    assert any(r.split(",")[5] == "1" for r in rows[1:])


@pytest.mark.parametrize("model, ic1", [
    # the first step overflows the start to inf, then NaN
    ("", "scaled-random:1e200"),
    # with no guard the overshooting cubic step reaches inf, then NaN
    ("dt = 0.015625\nblowup_guard = inf\n", "20 0 0 0 0 0 0 0 0"),
])
def test_simulate_reports_rows_that_diverge_within_a_step(tmp_path, capsys, model, ic1):
    # both exited 0 with no failure line while the file marked the rows aborted
    cfg = write_cfg(tmp_path, f"[model]\nn_modes = 4\nt_final = 1\n{model}\n"
                              f"[ensemble]\nic1 = {ic1}\nn_traj = 2\n")
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    text = capsys.readouterr().out
    assert rc == 1 and "failure = trajectory_abort" in text
    listed = {int(line[len("trajectory = "):]) for line in text.splitlines()
              if line.startswith("trajectory = ")}
    rows = [r.split(",") for r in body_lines(out / "trajectories.csv")[1:]]
    assert listed == {int(r[0]) for r in rows if r[5] == "1"} == {0, 1}


def test_simulate_writes_finite_norms_for_a_start_whose_squares_overflow(tmp_path, capsys):
    # each coefficient is finite but its square is not, so the t = 0 row read
    # inf norms; the scaled-random start has norm_gamma 1e200 by construction
    cfg = write_cfg(tmp_path, "[model]\nn_modes = 4\n\n[ensemble]\nic1 = scaled-random:1e200\n"
                              "n_traj = 1\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    capsys.readouterr()
    row = body_lines(tmp_path / "trajectories.csv")[1].split(",")
    assert row[:2] == ["0", "0.0"] and row[5] == "0"
    assert all(math.isfinite(float(v)) for v in row[2:5])
    assert math.isclose(float(row[3]), 1e200, rel_tol=1e-12)


@pytest.mark.parametrize("rows, message", [
    # every norm exceeds 1, so its 300th power overflowed; the inf records
    # were then counted as aborted trajectories
    ("gamma = 2\np = 300\n", "p = 300.0: the p-th power of a trajectory norm overflows"),
    # every norm is below 1, so both estimates read 0.0 and passed as uniform
    ("p = 1e6\n", "p = 1000000.0: the p-th power of a trajectory norm underflows to 0"),
    # each power is finite but the square in the stderr overflowed
    ("gamma = 2\np = 120\n",
     "the p-th moment of initial condition 0 overflows in its mean or stderr"),
], ids=["power_overflows", "power_underflows", "stderr_overflows"])
def test_moments_out_of_float_range_exit_two_naming_p(tmp_path, capsys, monkeypatch, rows,
                                                      message):
    cfg = ("[model]\nn_modes = 4\ndt = 0.0625\n\n[ensemble]\nic1 = zero\n"
           "ic2 = scaled-random:1\nn_traj = 20\n" + rows)
    text = run_exit_two(tmp_path, capsys, ["moments"], cfg)
    assert text == f"error = validation\n{message}\n"
    # blocks of 8 rows on two threads: the powers of each of the three blocks
    # are checked in a worker, and their error comes through the pool
    monkeypatch.setattr("glmix.integrator.BLOCK_ROWS", 8)
    text = run_exit_two(tmp_path, capsys, ["moments", "--threads", "2"], cfg)
    assert text == f"error = validation\n{message}\n"


def test_noise_that_overflows_a_step_exits_two_without_a_warning(tmp_path, capsys):
    # the abort norm of an overflowed row raised an overflow RuntimeWarning
    cfg = "[model]\nn_modes = 4\nc2 = 1e308\n\n[ensemble]\nn_traj = 2\n"
    text = run_exit_two(tmp_path, capsys, ["moments"], cfg)
    assert text == "error = validation\nall trajectories aborted for initial condition 0\n"


@pytest.mark.usefixtures("philox_streams")
def test_moments_uniform_pair_exits_zero(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MOMENTS_UNIFORM_CFG)
    out = tmp_path / "out"
    rc = main(["moments", "--config", str(cfg), "--out", str(out)])
    text = capsys.readouterr().out
    assert rc == 0
    assert "uniform = 1" in text
    assert "ratio_ok = 1" in text
    assert "ci_overlap_ok = 1" in text
    # frozen from a probe run of this exact config and seed
    assert "max_ratio = 1.0830630740164846" in text
    assert "failure" not in text

    rows = body_lines(out / "moments.csv")
    assert rows[0] == "ic,t,estimate,stderr,n_traj,n_aborted"
    assert len(rows) == 3
    for i, row in enumerate(rows[1:]):
        fields = row.split(",")
        assert fields[0] == str(i)
        assert float(fields[1]) == 1.0
        assert float(fields[2]) > 0.0
        assert fields[4] == "200"
        assert fields[5] == "0"
    summary = body_lines(out / "moments_summary.txt")
    assert "uniform = 1" in summary
    assert "n_traj = 200" in header_lines(out / "moments_summary.txt")


def test_moments_disjoint_intervals_exit_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MOMENTS_SPLIT_CFG)
    out = tmp_path / "out"
    rc = main(["moments", "--config", str(cfg), "--out", str(out)])
    text = capsys.readouterr().out
    assert rc == 1
    assert "failure = moment_uniformity" in text
    assert "uniform = 0" in text
    assert "ci_overlap_ok = 0" in text
    # the ratio itself stays inside [1/2, 2]; only the interval test fails
    assert "ratio_ok = 1" in text
    assert (out / "moments.csv").exists()


def test_mixing_flat_distances_report_rate_failure(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MIXING_FLAT_CFG)
    out = tmp_path / "out"
    rc = main(["mixing", "--config", str(cfg), "--out", str(out)])
    text = capsys.readouterr().out
    assert rc == 1
    assert "failure = mixing_rate" in text
    assert "lambda = nan" in text
    assert "identifiable = 0" in text
    assert "ci_method = ols" in text
    floor = float(next(l.split("=")[1] for l in text.splitlines()
                       if l.startswith("floor = ")))
    assert floor > 0.0

    csv_rows = body_lines(out / "mixing.csv")
    assert csv_rows[0] == "t,distance,stderr"
    assert [float(r.split(",")[0]) for r in csv_rows[1:]] == [1.0, 2.0, 3.0, 4.0]
    summary = (out / "mixing_summary.txt").read_text()
    printed = text[: text.index("wrote = ")]
    assert printed == "".join(
        l + "\n" for l in summary.splitlines() if not l.startswith("#")
    )


def test_doeblin_two_state_certificates_and_search(tmp_path, capsys):
    cfg = write_cfg(tmp_path, f"[doeblin]\nkernel = {KERNEL_FILE}\n")
    out = tmp_path / "out"
    rc = main(["doeblin", "--config", str(cfg), "--out", str(out)])
    text = capsys.readouterr().out
    assert rc == 0
    assert "delta_prime = 1.0" in text
    assert "delta = 0.30000000000000004" in text
    assert "nu = 0.6666666666666666 0.3333333333333333" in text
    assert "contraction_factor = 0.49" in text
    assert "search = found" in text
    gap = float(next(l.split("=")[1] for l in text.splitlines()
                     if l.startswith("geometric_gap = ")))
    assert -1e-3 < gap <= 1e-9

    kernel = read_kernel(KERNEL_FILE)
    cert = parse_certificate((out / "certificate.txt").read_text())
    cert.validate(kernel)
    assert cert.delta == 0.30000000000000004
    assert cert.delta_prime == 1.0
    search = parse_certificate((out / "search_certificate.txt").read_text())
    search.validate(kernel)
    assert search.K == (0,)
    assert search.m == 2
    assert search.delta == 0.03125
    assert np.array_equal(search.nu, [1.0, 0.0])


# every S-path ends at the tiny state, so each delta = mu0(b) mu0(c) / 8 is
# 0.0; the search used to exit 2 on it.  P / 1e-320 is inf, which used to
# raise an overflow RuntimeWarning.
@pytest.mark.parametrize("weight", ["1e-200", "1e-320"])
def test_doeblin_search_whose_every_delta_underflows_finds_none(tmp_path, capsys, weight):
    (tmp_path / "k.txt").write_text("2\n0.5 0.5\n0.5 0.5\n")
    cfg = write_cfg(tmp_path, f"[doeblin]\nkernel = k.txt\nmu0 = {weight} 1\n")
    rc = main(["doeblin", "--config", str(cfg), "--out", str(tmp_path / "out")])
    text = capsys.readouterr().out
    assert rc == 0
    assert "search = none" in text and "error" not in text
    assert not (tmp_path / "out" / "search_certificate.txt").exists()


def test_doeblin_kernel_path_is_relative_to_the_config_file(tmp_path, capsys, monkeypatch):
    (tmp_path / "cfg").mkdir()
    (tmp_path / "data").mkdir()
    run_dir = tmp_path / "runs" / "here"
    run_dir.mkdir(parents=True)
    kernel = tmp_path / "data" / "two_state.txt"
    kernel.write_text(KERNEL_FILE.read_text())
    write_cfg(tmp_path / "cfg", "[doeblin]\nkernel = ../data/two_state.txt\n")
    monkeypatch.chdir(run_dir)
    rc = main(["doeblin", "--config", "../../cfg/run.cfg", "--out", "out"])
    assert rc == 0
    first = (run_dir / "out" / "certificate.txt").read_text()
    header = [l[2:] for l in first.splitlines() if l.startswith("# ")]
    assert f"kernel = {kernel.resolve()}" in header
    # the echoed header reruns the same certificate from another directory
    write_cfg(tmp_path, "\n".join(header[1:]) + "\n", name="rerun.cfg")
    monkeypatch.chdir(tmp_path / "data")
    assert main(["doeblin", "--config", "../rerun.cfg", "--out", "again"]) == 0
    assert (tmp_path / "data" / "again" / "certificate.txt").read_text() == first
    # an absolute path is kept as written, unresolved
    as_written = tmp_path / "cfg" / ".." / "data" / "two_state.txt"
    write_cfg(tmp_path / "cfg", f"[doeblin]\nkernel = {as_written}\n", name="abs.cfg")
    assert main(["doeblin", "--config", "../cfg/abs.cfg", "--out", "abs"]) == 0
    head = (tmp_path / "data" / "abs" / "certificate.txt").read_text().splitlines()
    assert f"# kernel = {as_written}" in head
    capsys.readouterr()


def test_doeblin_without_section_is_a_config_failure(tmp_path, capsys):
    rc = main(["doeblin", "--out", str(tmp_path)])
    text = capsys.readouterr().out
    assert rc == 2
    assert text == "error = config\ndoeblin requires a [doeblin] section with a kernel key\n"


def test_doeblin_vacuous_geometric_bound_is_skipped(tmp_path, capsys):
    # delta = 4e-20 and delta' = 1: 1 - delta delta' rounds to 1, so the bound
    # 2 (1 - delta delta')^(k/2) is 2 and proves nothing, and the two nearly
    # closed wells leave no numerically unique stationary distribution
    (tmp_path / "k.txt").write_text("4\n" + "0.5 0.5 1e-20 1e-20\n" * 2
                                    + "1e-20 1e-20 0.5 0.5\n" * 2)
    cfg = write_cfg(tmp_path, "[doeblin]\nkernel = k.txt\nK = all\nm = 1\n")
    rc = main(["doeblin", "--config", str(cfg), "--out", str(tmp_path / "out")])
    text = capsys.readouterr().out
    assert rc == 0
    assert "contraction_factor = 1.0" in text
    assert "failure" not in text and "geometric_gap" not in text


UNRESOLVABLE_WELLS = ([[0.4999999999999, 0.4999999999999, 1e-13, 1e-13]] * 2
                      + [[1e-13, 1e-13, 0.4999999999999, 0.4999999999999]] * 2)


def test_doeblin_unresolvable_invariant_measure_skips_the_gap(tmp_path, capsys):
    # delta delta' = 4e-13 proves the stationary distribution unique, but P^T - I
    # has two singular values near 2e-14, so float64 cannot resolve it; the run
    # printed failure = geometric_bound and exited 1
    (tmp_path / "k.txt").write_text(
        "4\n" + "".join(" ".join(map(repr, row)) + "\n" for row in UNRESOLVABLE_WELLS))
    cfg = write_cfg(tmp_path, "[doeblin]\nkernel = k.txt\nK = all\nm = 1\n")
    rc = main(["doeblin", "--config", str(cfg), "--out", str(tmp_path / "out")])
    text = capsys.readouterr().out
    assert rc == 0
    assert "delta = 4e-13" in text and "contraction_factor = 0.9999999999992001" in text
    assert "failure" not in text and "geometric_gap" not in text


@st.composite
def near_decomposable_kernels(draw):
    """2-8 states in 2-3 blocks, each row putting e on every state outside its
    block and the rest, uniformly or at random, on its own block."""
    n = draw(st.integers(2, 8))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=min(2, n - 1))))
    e = draw(st.sampled_from([0.0, 5e-324, 1e-300] + [10.0**-k for k in range(1, 17)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    uniform = draw(st.booleans())
    rows = np.full((n, n), e)
    for lo, hi in zip([0] + cuts, cuts + [n]):
        block = np.ones((hi - lo, hi - lo)) if uniform else rng.random((hi - lo, hi - lo)) + 0.05
        rows[lo:hi, lo:hi] = block / block.sum(axis=1, keepdims=True) * (1.0 - e * (n - hi + lo))
    return rows.tolist()


@st.composite
def doeblin_keys(draw, n):
    """K, m and mu0 for a kernel on n states.  Half the draws keep K = all,
    m = 1 and a valid mu0, where every measurement is printed; the rest
    widen one of the three keys, or all: K lists states from -1 to n + 1
    (past the last one), m runs from 0 to 1000, and mu0 has an extreme
    token or one weight too many."""
    wide = draw(st.sampled_from(["", "", "", "", "K", "m", "mu0", "K m mu0"])).split()
    k_set = "all"
    if "K" in wide:
        k_set = " ".join(map(str, draw(st.lists(st.integers(-1, n + 1), min_size=1, max_size=3))))
    m = draw(st.integers(0, 1000)) if "m" in wide else 1
    weights = np.array(draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)), dtype=float)
    weights = [repr(w) for w in (weights / weights.sum()).tolist()]
    if "mu0" in wide:
        if draw(st.booleans()):
            weights.append("0.5")
        else:
            weights[draw(st.integers(0, n - 1))] = draw(st.sampled_from(EXTREME))
    mu0 = " ".join(weights) if "mu0" in wide or draw(st.booleans()) else "uniform"
    return f"K = {k_set}\nm = {m}\nmu0 = {mu0}\n"


# each printed number must keep the bound the validated certificate implies;
# the program checked these inequalities itself and reported their rounding
# as failures
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(near_decomposable_kernels(), st.data())
@example(UNRESOLVABLE_WELLS, None)
def test_doeblin_on_near_decomposable_kernels_prints_only_bounded_measurements(rows, data):
    keys = "K = all\nm = 1\n" if data is None else data.draw(doeblin_keys(len(rows)))
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "k.txt").write_text(
            f"{len(rows)}\n" + "".join(" ".join(map(repr, row)) + "\n" for row in rows))
        cfg = write_cfg(Path(tmp), "[doeblin]\nkernel = k.txt\n" + keys)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["doeblin", "--config", str(cfg), "--out", str(Path(tmp, "out"))])
    lines = out.getvalue().splitlines()
    if rc == 2:  # a K, m or mu0 the kernel refuses
        assert lines[0].startswith("error = "), lines
        return
    if rc == 1:  # no common component: P^m has no positive column on K
        assert lines == ["failure = no_common_component"]
        # with m = 1 only a zero entry can leave a column's minimum at 0
        assert "m = 1\n" not in keys or min(map(min, rows)) == 0.0
        return
    assert rc == 0 and not any(l.startswith(("failure", "error")) for l in lines)
    value = {}
    for line in lines:  # the first of each key: the certificate's delta, not the search's
        key, _, v = line.partition(" = ")
        value.setdefault(key, v)
    if "contraction_factor" in value:  # a one-step certificate that K is reached from
        eps = float(value["delta"]) * float(value["delta_prime"])
        assert float(value["contraction_factor"]) <= 1.0 - eps + 1e-12
    if "geometric_gap" in value:
        assert float(value["geometric_gap"]) <= 1e-9


# gamma = 2 puts norm_gamma near 3e156 (finite; its square is not) on
# every trajectory: the norm itself read inf with an overflow RuntimeWarning,
# and moments blamed the first power of the norm
@pytest.mark.parametrize("sub, p, message", [
    ("mixing", 2, "p = 2.0: the distance weighted by V = norm^p + 1 overflows"),
    ("mixing", 1, "p = 1.0: the square in a distance's bootstrap stderr overflows"),
    ("moments", 1, "the p-th moment of initial condition 0 overflows in its mean or stderr"),
])
def test_norms_whose_squares_overflow_blame_the_quantity_out_of_range(
        tmp_path, capsys, sub, p, message):
    cfg = ("[model]\nn_modes = 4\ndt = 0.0625\nt_final = 4\npoly = none\nk_star = 4\n"
           "q4 = 1e152\nblowup_guard = inf\n\n[ensemble]\nic1 = zero\n"
           f"ic2 = scaled-random:1\nn_traj = 20\ngamma = 2\nn_boot = 4\np = {p}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = run_exit_two(tmp_path, capsys, [sub], cfg)
    assert text == f"error = validation\n{message}\n"


# drift-free starts near 1e160 with no guard: each squared norm overflows,
# though the norm does not and the dynamics only decay; every row aborted at
# its first step (simulate exit 1, moments and mixing exit 2)
@pytest.mark.parametrize("sub, want, line", [
    ("simulate", 0, None),
    # the two starts differ by a factor 1.5, so their first moments do too
    ("moments", 1, "max_ratio = 1.4999999999999998"),
    # the two laws differ by a shift of the mean whose slowest mode, c0, decays like e^{-t}
    ("mixing", 0, "lambda = 0.9999999999999691"),
])
def test_no_guard_aborts_on_the_norm_not_its_square(tmp_path, capsys, sub, want, line):
    cfg = write_cfg(tmp_path, "[model]\nn_modes = 4\ndt = 0.0625\nt_final = 4\npoly = none\n"
                              "blowup_guard = inf\n\n[ensemble]\nic1 = scaled-random:1e160\n"
                              "ic2 = scaled-random:1.5e160\nn_traj = 20\np = 1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([sub, "--config", str(cfg), "--out", str(tmp_path / "out")])
    text = capsys.readouterr().out
    assert rc == want
    if line is None:
        rows = [r.split(",") for r in body_lines(tmp_path / "out" / "trajectories.csv")[1:]]
        assert len(rows) == 40 * 5 and all(r[5] == "0" for r in rows)
    else:
        assert line in text.splitlines()


def test_config_errors_exit_two_with_line_numbers(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[model]\nn_modes\n")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    text = capsys.readouterr().out
    assert rc == 2
    assert "error = config" in text
    assert "line 2: expected 'key = value', got 'n_modes'" in text
    # an override past n_modes: doeblin and odecheck once wrote it into their
    # headers, and simulate named no line
    cfg = write_cfg(tmp_path, "[model]\nn_modes = 8\nq80 = 0.5\n"
                              f"[doeblin]\nkernel = {KERNEL_FILE}\n")
    for sub in ("simulate", "doeblin", "odecheck"):
        rc = main([sub, "--config", str(cfg), "--out", str(tmp_path / sub)])
        assert rc == 2 and not (tmp_path / sub).exists()
        assert capsys.readouterr().out == (
            "error = config\nline 3: q80 override is outside 0..n_modes = 8\n"
        )
    # a repeated index: q01 used to replace q1 silently, and ic01 to make a
    # second start that the header then called ic1, renaming the user's ic1 ic2
    for cfg_text, message in [
        ("[model]\nn_modes = 4\nq1 = 0.5\nq01 = 0.25\n",
         "line 4: key 'q01' repeats index 1 of 'q1' on line 3"),
        ("[ensemble]\nic1 = zero\nic01 = scaled-random:1.0\n",
         "line 3: key 'ic01' repeats index 1 of 'ic1' on line 2"),
    ]:
        rc = main(["simulate", "--config", str(write_cfg(tmp_path, cfg_text)),
                   "--out", str(tmp_path / "repeat")])
        assert rc == 2 and not (tmp_path / "repeat").exists()
        assert capsys.readouterr().out == f"error = config\n{message}\n"
    # q - 1 too large for a float: ode_comparison raised OverflowError, and the
    # CLI printed its traceback
    cfg = write_cfg(tmp_path, "[odecheck]\nqs = 3 1" + "0" * 400 + "1\n")
    rc = main(["odecheck", "--config", str(cfg), "--out", str(tmp_path / "huge_q")])
    assert rc == 2 and not (tmp_path / "huge_q").exists()
    assert capsys.readouterr().out == (
        "error = config\nline 2: qs lists a q whose q - 1 is too large for a float\n"
    )
    # a repeated report time: mixing left its first column unwritten and
    # reported the NaN records as aborted trajectories
    cfg = write_cfg(tmp_path, "[model]\nn_modes = 4\ndt = 0.015625\nt_final = 4\n[ensemble]\n"
                              "ic1 = zero\nic2 = scaled-random:1.0\nn_traj = 50\ntimes = 1 2 3 3\n")
    rc = main(["mixing", "--config", str(cfg), "--out", str(tmp_path / "times")])
    assert rc == 2 and not (tmp_path / "times").exists()
    assert capsys.readouterr().out == (
        "error = config\nline 9: times lists 3.0 and 3.0, both on step 192 of the grid\n")
    # a weight l_4^(2 gamma) beyond float max: its inf times a zero coefficient
    # made simulate write a NaN norm and exit 0, moments report every
    # trajectory aborted and mixing every row non-finite
    for sub, cfg_text, line in [("simulate", GAMMA_MODEL + "[ensemble]\ngamma = 100\n", 5),
                                ("moments", GAMMA_MODEL + GAMMA_PAIR, 12),
                                ("mixing", GAMMA_MODEL + GAMMA_PAIR, 12)]:
        rc = main([sub, "--config", str(write_cfg(tmp_path, cfg_text)),
                   "--out", str(tmp_path / "gamma")])
        assert rc == 2 and not (tmp_path / "gamma").exists()
        assert capsys.readouterr().out == (
            f"error = config\nline {line}: gamma = 100.0 makes the norm weight "
            "l_N^(2 gamma) of n_modes = 4 overflow\n"
        )


def test_inadmissible_spectrum_exits_two_naming_the_bound(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[model]\nbeta = 1.5\n")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    text = capsys.readouterr().out
    assert rc == 2
    assert text == ("error = config\nline 2: inadmissible noise spectrum:\n"
                    "violation = beta_window\nbound = beta must lie in (alpha - 1/8, alpha]\n"
                    "value = 1.5\n")
    # k^(-2 beta) overflowed with a RuntimeWarning, a traceback under -W error
    rc = main(["simulate", "--config", str(write_cfg(tmp_path, BETA_OVERFLOW)),
               "--out", str(tmp_path)])
    assert rc == 2 and capsys.readouterr().out.splitlines()[:3] == [
        "error = config", "line 4: inadmissible noise spectrum:", "violation = beta_window"]


def run_exit_two(tmp_path, capsys, argv, cfg_text=None):
    """Run main, require exit 2 with no exception, return its stdout."""
    if cfg_text is not None:
        argv = argv + ["--config", str(write_cfg(tmp_path, cfg_text))]
    rc = main(argv + ["--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "Traceback" not in captured.out + captured.err
    return captured.out


def test_seed_outside_uint64_exits_two(tmp_path, capsys):
    text = run_exit_two(tmp_path, capsys, ["simulate"], "[model]\nseed = -1\n")
    assert text == "error = config\nline 2: seed must lie in [0, 2^64)\n"


def test_non_finite_t_final_and_nan_guard_exit_two(tmp_path, capsys):
    text = run_exit_two(tmp_path, capsys, ["simulate"], "[model]\nt_final = inf\n")
    assert text == "error = config\nline 2: t_final must be finite\n"
    # doeblin steps no model, but it refuses the configs simulate does
    cfg = f"[model]\nt_final = inf\n[doeblin]\nkernel = {KERNEL_FILE}\n"
    text = run_exit_two(tmp_path, capsys, ["doeblin"], cfg)
    assert text == "error = config\nline 2: t_final must be finite\n"
    text = run_exit_two(tmp_path, capsys, ["simulate"], "[model]\nblowup_guard = nan\n")
    assert text == "error = config\nline 2: blowup_guard must be positive\n"


def test_guard_whose_square_overflows_runs_judged_on_the_norm(tmp_path, capsys):
    # a guard above sqrt(float max) ~ 1.34e154 exited 2; now a drift-free start
    # of norm_0 2e200 aborts at its first step under a guard of 1e200, and one
    # of 9e199, whose square overflows too, decays to t_final
    cfg = write_cfg(tmp_path, "[model]\nn_modes = 2\ndt = 0.0625\nt_final = 2\npoly = none\n"
                              "blowup_guard = 1e200\n\n[ensemble]\nic1 = 9e199 0 0 0 0\n"
                              "ic2 = 2e200 0 0 0 0\nn_traj = 2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "failure = trajectory_abort", "trajectory = 2", "time = 0.0625",
        "trajectory = 3", "time = 0.0625",
    ]
    rows = [r.split(",") for r in body_lines(tmp_path / "out" / "trajectories.csv")[1:]]
    assert [(r[0], r[1], r[5]) for r in rows] == [
        (tid, t, "1" if tid in "23" and t != "0.0" else "0")
        for tid in "0123" for t in ("0.0", "1.0", "2.0")
    ]
    assert all(0 < float(r[2]) < 1e200 for r in rows if r[0] in "01" and r[1] != "0.0")
    # moments and mixing run under such a guard too, to their verdicts
    cfg = ("[model]\nn_modes = 2\ndt = 0.0625\nt_final = 4\nblowup_guard = 1e200\n\n"
           "[ensemble]\nic1 = zero\nic2 = scaled-random:1\nn_traj = 4\nn_boot = 2\n")
    for sub, summary in (("moments", "moments_summary.txt"), ("mixing", "mixing_summary.txt")):
        rc = main([sub, "--config", str(write_cfg(tmp_path, cfg)), "--out", str(tmp_path / sub)])
        assert rc in (0, 1) and (tmp_path / sub / summary).exists()
    capsys.readouterr()


def test_guard_whose_square_underflows_exits_two_naming_the_limit(tmp_path, capsys):
    # the guard's square was 0.0, so a start 10^10 times the guard never aborted
    cfg = "[model]\nn_modes = 2\nblowup_guard = 1e-200\n\n[ensemble]\nic1 = 1e-190 0 0 0 0\nn_traj = 2\n"
    for sub in ("simulate", "moments", "mixing"):
        text = run_exit_two(tmp_path, capsys, [sub], cfg)
        assert text == ("error = config\nline 3: blowup_guard = 1e-200 is below "
                        "1.4916681462400413e-154 = sqrt(smallest normal float), so its square "
                        "underflows\n")
    assert not (tmp_path / "out" / "trajectories.csv").exists()


def test_negative_n_boot_exits_two_with_its_line(tmp_path, capsys):
    cfg = (
        "[model]\nn_modes = 4\nt_final = 4\n\n"
        "[ensemble]\nic1 = zero\nic2 = scaled-random:1\nn_traj = 4\nn_boot = -3\n"
    )
    text = run_exit_two(tmp_path, capsys, ["mixing"], cfg)
    assert "error = config" in text
    assert "line 9: n_boot must be at least 0" in text


def test_mu0_length_mismatch_exits_two_naming_the_length(tmp_path, capsys):
    # the certificate used to be printed and written before the search checked mu0
    for mu0, message in [("0.5 0.25 0.25", "mu0 has 3 weights for a kernel on 2 states"),
                         ("0 1", "mu0 must be strictly positive on all states"),
                         ("0.25 0.25", "mu0 must be a probability measure"),
                         # their sum overflowed with a RuntimeWarning
                         ("1e308 1e308", "mu0 must be a probability measure")]:
        cfg = f"[doeblin]\nkernel = {KERNEL_FILE}\nmu0 = {mu0}\n"
        text = run_exit_two(tmp_path, capsys, ["doeblin"], cfg)
        assert text == f"error = config\nline 3: {message}\n"
        assert not (tmp_path / "out" / "certificate.txt").exists()


def test_doeblin_values_exit_two_naming_their_line(tmp_path, capsys):
    # each used to exit 2 without a line number, the empty kernel path with
    # the error of opening the config's directory
    for body, message in [
        (f"kernel = {KERNEL_FILE}\nm = 0", "line 3: m must be at least 1"),
        (f"kernel = {KERNEL_FILE}\nK = -1", "line 3: state -1 out of range 0..1"),
        (f"kernel = {KERNEL_FILE}\nK = 0 -1", "line 3: state -1 out of range 0..1"),
        ("kernel = ", "line 2: key 'kernel' expects a path"),
    ]:
        text = run_exit_two(tmp_path, capsys, ["doeblin"], f"[doeblin]\n{body}\n")
        assert text == f"error = config\n{message}\n"
    assert not (tmp_path / "out").exists()
    # a state past the kernel is known only once the kernel is read; simulate
    # used to refuse K = -1 but not this
    cfg = f"[doeblin]\nkernel = {KERNEL_FILE}\nK = 0 7\n"
    text = run_exit_two(tmp_path, capsys, ["doeblin"], cfg)
    assert text == "error = config\nline 3: state 7 out of range 0..1\n"


@pytest.mark.parametrize("m", ["100000", "100000000", "100000000000000000000"])
def test_m_whose_power_is_not_a_kernel_exits_two_naming_its_line(tmp_path, capsys, m):
    # P^m's row sums drift off 1 by about m eps, then overflow: m = 10^5 wrote
    # delta = 1.0000000000021467 and exited 0, m = 10^8 exited 2 with no line
    # ('delta must lie in (0, 1]'), m = 10^20 warned of matmul overflow
    cfg = f"[doeblin]\nkernel = {KERNEL_FILE}\nK = all\nm = {m}\n"
    text = run_exit_two(tmp_path, capsys, ["doeblin"], cfg)
    assert re.fullmatch(r"error = config\nline 4: P\^m in float64 is not a kernel: row 0"
                        r"( sums to \S+, not 1 within 1e-12|: kernel entries must be finite)\n",
                        text), text
    assert not (tmp_path / "out").exists()


def test_column_minima_summing_past_one_certify_delta_one(tmp_path, capsys):
    # P^m's rounding lifts the column minima's sum past 1 within _bad_row's
    # 1e-12: m = 10^4 certified delta = 1.0000000000002145
    cfg = write_cfg(tmp_path, f"[doeblin]\nkernel = {KERNEL_FILE}\nK = all\nm = 10000\n")
    out = tmp_path / "out"
    assert main(["doeblin", "--config", str(cfg), "--out", str(out)]) == 0
    assert "\ndelta = 1.0\n" in capsys.readouterr().out
    cert = parse_certificate((out / "certificate.txt").read_text())
    assert cert.delta == 1.0
    cert.validate(read_kernel(KERNEL_FILE))


def test_step_count_beyond_int64_exits_two(tmp_path, capsys):
    # 1e300 steps: the run used to start and never end
    text = run_exit_two(tmp_path, capsys, ["simulate"], "[model]\ndt = 1e-300\n")
    assert text == "error = config\nline 2: dt = 1e-300 makes more steps than int64 holds\n"


def test_non_finite_inputs_exit_two_naming_their_line(tmp_path, capsys):
    for sub, cfg, message in [
        # every row used to be written as aborted, with exit 0 and no failure line
        ("simulate", "[model]\nn_modes = 4\n\n[ensemble]\nic1 = nan 0 0 0 0 0 0 0 0\nn_traj = 2\n",
         "line 5: key 'ic1' lists a non-finite coefficient"),
        # simulate wrote nan norm_gamma cells; mixing blamed the trajectories
        ("simulate", "[model]\nn_modes = 4\n\n[ensemble]\nn_traj = 2\ngamma = nan\n",
         "line 6: gamma must be finite"),
        ("mixing", "[model]\nn_modes = 4\nt_final = 4\n\n[ensemble]\nic1 = zero\n"
         "ic2 = scaled-random:1\nn_traj = 4\ngamma = inf\n", "line 9: gamma must be finite"),
        ("moments", "[ensemble]\nn_traj = 2\np = nan\n", "line 3: p must be finite"),
        # an infinite report time ended in an OverflowError traceback
        ("mixing", "[model]\nn_modes = 2\nt_final = 4\n\n[ensemble]\nic1 = zero\n"
         "ic2 = scaled-random:1\nn_traj = 4\ntimes = 1 2 3 inf\n", "line 9: times must be finite"),
        # both reported a failed bound (exit 1) for an invalid input
        ("odecheck", "[odecheck]\nqs = 3\ncs = nan\ny0s = 1\nts = 1\n",
         "line 3: cs must be finite"),
        ("odecheck", "[odecheck]\nqs = 3\ncs = 1\ny0s = 1\nts = inf\n",
         "line 5: ts must be finite"),
        # the preset used to fail in scaled_random_field, with no line number
        ("simulate", "[model]\nn_modes = 4\n\n[ensemble]\nic1 = scaled-random:nan\nn_traj = 2\n",
         "line 5: key 'ic1' has a radius that is not finite and nonnegative"),
        ("mixing", "[model]\nn_modes = 4\nt_final = 4\n\n[ensemble]\nic1 = zero\n"
         "ic2 = scaled-random:-1\nn_traj = 4\n",
         "line 7: key 'ic2' has a radius that is not finite and nonnegative"),
        # the certificate was printed and written before the search rejected mu0
        ("doeblin", f"[doeblin]\nkernel = {KERNEL_FILE}\nmu0 = nan nan\n",
         "line 3: mu0 must be strictly positive on all states"),
        ("doeblin", f"[doeblin]\nkernel = {KERNEL_FILE}\nmu0 = inf 0\n",
         "line 3: mu0 must be strictly positive on all states"),
    ]:
        text = run_exit_two(tmp_path, capsys, [sub], cfg)
        assert text == f"error = config\n{message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sub, text, message", [
    ("odecheck", "[odecheck]\nqs = 3\ncs = 1 nan\n", "line 3: cs must be finite"),
    ("odecheck", "[odecheck]\ny0s = -inf\n", "line 2: y0s must be finite"),
    ("odecheck", "[odecheck]\nqs = 3\ncs = 1\nts = 0.5 inf\n", "line 4: ts must be finite"),
    ("doeblin", f"[doeblin]\nkernel = {KERNEL_FILE}\nmu0 = 0.5 nan\n",
     "line 3: mu0 must be strictly positive on all states"),
    ("doeblin", f"[doeblin]\nkernel = {KERNEL_FILE}\nmu0 = -0.5 1.5\n",
     "line 3: mu0 must be strictly positive on all states"),
], ids=["cs-nan", "y0s-neg-inf", "ts-inf", "mu0-nan", "mu0-negative"])
def test_grid_and_weight_values_are_refused_by_their_subcommand(tmp_path, capsys, sub, text,
                                                                message):
    # resolve_config refused each of them, under every subcommand
    assert run_exit_two(tmp_path, capsys, [sub], text) == f"error = config\n{message}\n"
    assert not (tmp_path / "out").exists()


def test_values_are_refused_only_by_the_subcommand_that_reads_them(tmp_path, capsys):
    # the config rows refused K, m, mu0, the [odecheck] grid and n_boot under
    # every subcommand; a K past the kernel was refused by doeblin alone
    cfg = write_cfg(tmp_path, (
        "[model]\nn_modes = 2\ndt = 0.0625\nt_final = 4\n\n"
        "[ensemble]\nic1 = zero\nic2 = scaled-random:1\nn_traj = 4\nn_boot = -3\n\n"
        f"[doeblin]\nkernel = {KERNEL_FILE}\nK = -1\nm = 0\nmu0 = nan nan\n\n"
        "[odecheck]\nqs = 4\ncs = 0\n"))
    for sub, refusal in [("simulate", None), ("moments", None),
                         ("mixing", "line 10: n_boot must be at least 0"),
                         ("doeblin", "line 16: mu0 must be strictly positive on all states"),
                         ("odecheck", "line 19: qs must be odd integers >= 3")]:
        rc = main([sub, "--config", str(cfg), "--out", str(tmp_path / sub)])
        out = capsys.readouterr().out
        if refusal is None:
            assert rc in (0, 1) and "error" not in out
            assert (tmp_path / sub).is_dir()
        else:
            assert rc == 2 and out == f"error = config\n{refusal}\n"
            assert not (tmp_path / sub).exists()
    # with n_boot mended, mixing runs too
    text = cfg.read_text().replace("n_boot = -3", "n_boot = 2")
    rc = main(["mixing", "--config", str(write_cfg(tmp_path, text)), "--out", str(tmp_path / "m")])
    assert rc in (0, 1) and (tmp_path / "m" / "mixing.csv").exists()
    capsys.readouterr()


@pytest.mark.parametrize("n_boot", ["1000000000000000", "100000000000000000000"])
def test_n_boot_past_memory_exits_two_before_stepping(tmp_path, capsys, monkeypatch, n_boot):
    # 10^15 raised _ArrayMemoryError (exit 1) once both starts had stepped, and
    # 10^20 exited 2 as 'error = validation' with numpy's message and no line
    monkeypatch.setattr("glmix.mixing.run_ensemble", lambda *a, **kw: pytest.fail("stepped"))
    cfg = ("[model]\nn_modes = 2\nt_final = 4\n\n"
           f"[ensemble]\nic1 = zero\nic2 = scaled-random:1\nn_traj = 4\nn_boot = {n_boot}\n")
    text = run_exit_two(tmp_path, capsys, ["mixing"], cfg)
    assert text == (f"error = config\nline 9: n_boot = {n_boot} makes a bootstrap table larger "
                    "than memory holds\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sub", ["simulate", "moments", "mixing", "doeblin", "odecheck"])
@pytest.mark.parametrize("rows, message", [
    ("[ensemble]\np = 0.5\n", "line 2: p must be at least 1"),
    ("[model]\nalpha = 2\n[ensemble]\ngamma = 3.0\n",
     "line 4: gamma = 3.0 exceeds the noise decay exponent alpha = 2.0"),
], ids=["p", "gamma"])
def test_p_below_one_and_gamma_above_alpha_name_their_line(tmp_path, capsys, sub, rows, message):
    # simulate, doeblin and odecheck ran; moments and mixing exited 2 with
    # 'error = validation' and no line number
    cfg = rows + f"[doeblin]\nkernel = {KERNEL_FILE}\n"
    text = run_exit_two(tmp_path, capsys, [sub], cfg)
    assert text == f"error = config\n{message}\n"
    assert not (tmp_path / "out").exists()


# moments and mixing took n_traj = 1 and one start from the config rows, and
# refused them later as 'error = validation' with no line number; simulate
# runs n_traj = 1 (test_simulate_writes_finite_norms_for_a_start_whose_squares_overflow)
ONE_TRAJ = "[model]\nn_modes = 2\n\n[ensemble]\nn_traj = 1\n"
ONE_START = "[model]\nn_modes = 2\nt_final = 4\n\n[ensemble]\nic1 = zero\nn_traj = 4\n"


@pytest.mark.parametrize("sub, cfg, message", [
    ("moments", ONE_TRAJ, "line 5: n_traj must be at least 2"),
    ("mixing", ONE_TRAJ + "ic1 = zero\nic2 = zero\n", "line 5: n_traj must be at least 2"),
    ("mixing", ONE_START, "line 6: mixing needs two initial conditions, ic1 and ic2"),
    ("mixing", ONE_START.replace("ic1", "ic3"),
     "line 6: mixing needs two initial conditions, ic1 and ic2"),
    ("mixing", "[model]\nn_modes = 2\nt_final = 4\n",
     "mixing needs two initial conditions, ic1 and ic2"),
], ids=["moments_n_traj", "mixing_n_traj", "mixing_ic1", "mixing_ic3", "mixing_default_start"])
def test_one_trajectory_or_one_mixing_start_names_its_line(tmp_path, capsys, sub, cfg, message):
    text = run_exit_two(tmp_path, capsys, [sub], cfg)
    assert text == f"error = config\n{message}\n"
    assert not (tmp_path / "out").exists()


SUBCOMMANDS = ["simulate", "moments", "mixing", "doeblin", "odecheck"]
# the line numbers below count from this header
REFUSED_MODEL = "[model]\nn_modes = 2\n"


@pytest.mark.parametrize("sub", SUBCOMMANDS)
@pytest.mark.parametrize("rows, message", [
    ("dt = 0.3\n", "line 3: dt must divide 1 exactly (1/dt integer)"),
    ("t_final = 0.5\n", "line 3: t_final must be at least 1"),
    ("seed = -1\n", "line 3: seed must lie in [0, 2^64)"),
    ("blowup_guard = 0\n", "line 3: blowup_guard must be positive"),
    ("alpha = 1\n", "line 3: inadmissible noise spectrum:\nviolation = alpha_floor\n"
                    "bound = alpha must be at least 2\nvalue = 1.0"),
    ("c1 = 0\n", "line 3: inadmissible noise spectrum:\nviolation = c1_positive\n"
                 "bound = c1 must be positive\nvalue = 0.0"),
    ("k_star = -1\n", "line 3: inadmissible noise spectrum:\nviolation = k_star_sign\n"
                      "bound = k_star must be nonnegative\nvalue = -1"),
    ("poly = 1 2 3\n", "line 3: need coefficients p_0..p_q with degree q >= 3"),
    # 1.0000000001 is within 1e-9 of step 64 of dt = 1/64, as 1.0 is: simulate
    # ran and echoed both, mixing refused them as a validation error
    ("dt = 0.015625\nt_final = 4\n[ensemble]\ntimes = 1 1.0000000001 2 3\n",
     "line 6: times lists 1.0 and 1.0000000001, both on step 64 of the grid"),
], ids=["dt", "t_final", "seed", "blowup_guard", "alpha", "c1", "k_star", "poly", "times"])
def test_refused_model_values_name_their_line_under_every_subcommand(
        tmp_path, capsys, sub, rows, message):
    # the library refused each as 'error = validation' with no line, under
    # simulate, moments and mixing only
    cfg = REFUSED_MODEL + rows + f"[doeblin]\nkernel = {KERNEL_FILE}\n"
    text = run_exit_two(tmp_path, capsys, [sub], cfg)
    assert text == f"error = config\n{message}\n"
    assert not (tmp_path / "out").exists()


@st.composite
def model_configs(draw):
    """A [model] section of one to three keys, each taking a value of the
    whole-config fuzz's pool (an integer key -1..3), then n_traj = 1, so that
    simulate runs in milliseconds, and a valid [doeblin] kernel."""
    ints = st.sampled_from(["-1", "0", "1", "2", "3"])
    value = st.sampled_from(ORDINARY + EXTREME)
    rows = {"n_modes": "2"}
    keys = ["n_modes", "dt", "t_final", "poly", "alpha", "beta", "c1", "c2", "k_star", "seed",
            "blowup_guard", "q0", "q2"]
    for key in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True)):
        if key == "poly":
            cubic = "0 -1 0 1".split()
            cubic[draw(st.integers(0, 3))] = draw(value)
            rows[key] = " ".join(cubic)
        else:
            rows[key] = draw(ints if key in ("n_modes", "k_star", "seed") else value)
    model = "".join(f"{key} = {v}\n" for key, v in rows.items())
    return f"[model]\n{model}[ensemble]\nn_traj = 1\n[doeblin]\nkernel = {KERNEL_FILE}\n"


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(model_configs())
@example(REFUSED_MODEL + f"dt = 0.3\n[doeblin]\nkernel = {KERNEL_FILE}\n")
def test_every_subcommand_refuses_the_model_configs_simulate_does(text):
    # doeblin and odecheck never built the model, so they ran on configs that
    # simulate refused
    printed = {}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_cfg(Path(tmp), text)
        for sub in ("simulate", "doeblin", "odecheck"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = main([sub, "--config", str(cfg), "--out", str(Path(tmp, sub))])
            printed[sub] = out.getvalue()
            if sub == "simulate" and rc != 2:
                return
            assert rc == 2 and not Path(tmp, sub).exists(), printed
    assert printed["simulate"].startswith("error = config\nline "), printed
    assert printed["doeblin"] == printed["odecheck"] == printed["simulate"]


def test_out_that_is_not_a_directory_is_refused_before_any_work(tmp_path, capsys):
    # odecheck printed its three case lines, then failed at its first write
    # with '[Errno 17] File exists'
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    for out in (afile, afile / "sub"):
        assert main(["odecheck", "--out", str(out)]) == 2
        assert capsys.readouterr().out == (
            f"error = validation\n--out {out}: {afile} exists and is not a directory\n")
    assert afile.read_text() == "kept\n"


def test_refused_runs_make_no_out_directory(tmp_path, capsys):
    # main made --out before dispatch, so each refusal left it behind, empty
    for sub, cfg in [("simulate", "[model]\ndt = 0.3\n"), ("moments", "[model]\nt_final = 0.5\n"),
                     ("moments", ONE_TRAJ), ("mixing", ONE_START)]:
        run_exit_two(tmp_path, capsys, [sub], cfg)
        assert not (tmp_path / "out").exists(), (sub, cfg)
    # a kernel with no common component: doeblin exits 1 having written nothing
    kernel = tmp_path / "identity.txt"
    kernel.write_text("2\n1.0 0.0\n0.0 1.0\n")
    cfg = write_cfg(tmp_path, f"[doeblin]\nkernel = {kernel}\n")
    assert main(["doeblin", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().out == "failure = no_common_component\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, named", [
    (["simulate", "--threads", "x"], "--threads"), (["simulate", "--threads", "0"], "--threads"),
    (["odecheck", "--threads", "-3"], "--threads"), (["bogus"], "bogus"),
    (["simulate", "--nope", "1"], "--nope"), ([], "command"),
], ids=["bad_value", "zero_threads", "negative_threads", "bad_subcommand", "bad_option",
        "no_subcommand"])
def test_bad_command_lines_exit_two_with_an_error_line(capsys, argv, named):
    # argparse raised SystemExit(2) out of main and printed only to stderr
    assert main(argv) == 2
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 and out[0] == "error = usage" and named in out[1]


def test_help_still_exits_zero(capsys):
    for argv in (["--help"], ["simulate", "--help"], ["doeblin", "--help"]):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: glmix")


def test_options_before_the_subcommand_run_as_after_it(tmp_path):
    configs = Path(__file__).parents[1] / "demos" / "configs"
    for sub, cfg, want in QUICK_START:
        if sub not in ("doeblin", "odecheck"):
            continue
        config = str(configs / f"{cfg}.cfg")
        after, before = tmp_path / "after" / sub, tmp_path / "before" / sub
        printed = []
        for argv in ([sub, "--config", config, "--out", str(after), "--threads", "2"],
                     ["--threads", "2", "--out", str(before), "--config", config, sub]):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert main(argv) == want
            printed.append([l for l in out.getvalue().splitlines() if not l.startswith("wrote = ")])
        assert printed[0] == printed[1]
        names = sorted(f.name for f in after.iterdir())
        assert names and sorted(f.name for f in before.iterdir()) == names
        for name in names:
            assert (before / name).read_bytes() == (after / name).read_bytes()


def test_report_times_off_the_grid_or_past_t_final_name_their_line(tmp_path, capsys):
    # each exited 2 with 'record time ... is not on the step grid' and no line
    model = "[model]\nt_final = 4\n\n[ensemble]\nic1 = zero\nic2 = scaled-random:1\nn_traj = 4\n"
    for times, message in [
        ("1 2 3 4.3", "line 8: times lists 4.3, which is not on the grid of dt = 0.00390625"),
        ("1 2 3 9", "line 8: times lists 9.0, outside 0..t_final = 4.0"),
        ("-1 1 2 3", "line 8: times lists -1.0, outside 0..t_final = 4.0"),
    ]:
        text = run_exit_two(tmp_path, capsys, ["mixing"], model + f"times = {times}\n")
        assert text == f"error = config\n{message}\n"


def test_t_final_off_the_dt_grid_is_named(tmp_path, capsys):
    # it was reported as 'record time 1.001 is not on the step grid'
    text = run_exit_two(tmp_path, capsys, ["moments"], "[model]\nt_final = 1.001\n")
    assert text == "error = config\nline 2: t_final must be a multiple of dt\n"


def test_modes_beyond_memory_exit_two(tmp_path, capsys):
    # 10^11 + 1 amplitudes need 745 GiB: numpy's allocation error used to escape;
    # past numpy's index range it raises ValueError, whose text named no setting
    for n_modes in ("100000000000", "9223372036854775807", "100000000000000000000000"):
        for sub in ("simulate", "moments", "mixing"):
            text = run_exit_two(tmp_path, capsys, [sub], f"[model]\nn_modes = {n_modes}\n")
            assert text == ("error = config\n"
                            f"line 2: n_modes = {n_modes} has more modes than memory holds\n")
    # the row refuses an n_modes below 1 for every subcommand, naming its line
    for sub in ("simulate", "moments", "mixing", "doeblin", "odecheck"):
        text = run_exit_two(tmp_path, capsys, [sub], "[model]\nn_modes = 0\n")
        assert text == "error = config\nline 2: n_modes must be at least 1\n"
    # the ids of a start's 10^11 trajectories need 745 GiB: numpy's allocation
    # error escaped as a traceback with exit code 1; for 2^63 - 1 numpy made no
    # ids, and every trajectory was reported aborted
    cfg = ("[model]\nn_modes = 2\ndt = 0.25\nt_final = 4.0\n\n"
           "[ensemble]\nic1 = zero\nic2 = zero\nn_traj = {}\n")
    for n_traj in ("100000000000", "9223372036854775807", "100000000000000000000000"):
        for sub in ("moments", "mixing"):
            text = run_exit_two(tmp_path, capsys, [sub], cfg.format(n_traj))
            assert text == ("error = config\n"
                            f"line 9: n_traj = {n_traj} has more trajectories than memory holds\n")
            assert not (tmp_path / "out").exists()


def test_integer_times_beyond_memory_exit_two(tmp_path, capsys):
    # 10^12 + 1 integer times need 7.28 TiB: numpy's allocation error used to escape;
    # at 1e300 numpy raises ValueError past its index range instead
    # the header is resolved before any work: no verdict or delta_prime line
    # comes before the error, and no file is written.  At 2^63 numpy made no
    # times, and odecheck wrote a header 'times = ' that does not rerun; the
    # model is now built first, and its steps do not fit in int64 either
    for t_final, message in [
        ("1e12", "t_final = 1000000000000.0 has more integer times than memory holds"),
        ("1e+300", "dt = 0.00390625 makes more steps than int64 holds"),
        ("9.223372036854776e+18", "dt = 0.00390625 makes more steps than int64 holds"),
    ]:
        cfg = f"[model]\nt_final = {t_final}\n[doeblin]\nkernel = {KERNEL_FILE}\n"
        for sub in ("odecheck", "doeblin", "simulate", "moments", "mixing"):
            text = run_exit_two(tmp_path, capsys, [sub], cfg)
            assert text == f"error = config\nline 2: {message}\n"
            assert not (tmp_path / "out").exists()


def parses_as_float(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


# one whitespace-free token that no float parser accepts
JUNK = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp")),
               min_size=1, max_size=6).filter(
    lambda tok: tok.split() == [tok] and not parses_as_float(tok))


@st.composite
def broken_kernel_texts(draw):
    """A kernel file of 1-4 states with one defect that makes it invalid.

    Returns the text and, for a row that is not a probability vector, the
    start of the error line that must name it; otherwise None.
    """
    n = draw(st.integers(1, 4))
    rows = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((n, n)) + 0.05
    rows /= rows.sum(axis=1, keepdims=True)
    lines = [str(n)] + [" ".join(repr(float(x)) for x in row) for row in rows]
    row = draw(st.integers(1, n))
    tokens = lines[row].split()
    col = draw(st.integers(0, n - 1))
    defect = draw(st.sampled_from(["count", "drop_row", "extra_row", "drop_token",
                                   "add_token", "junk_token", "bad_value", "junk_line",
                                   "empty", "row_sum", "negative", "non_finite"]))
    if defect == "count":
        lines[0] = draw(st.integers(-3, 6).filter(lambda m: m != n).map(str) | JUNK)
    elif defect == "drop_row":
        del lines[row]
    elif defect == "extra_row":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(lines[1:]) | JUNK))
    elif defect == "drop_token":
        lines[row] = " ".join(tokens[:col] + tokens[col + 1:])
    elif defect == "add_token":
        lines[row] = " ".join(tokens + [draw(JUNK | st.just("0.0"))])
    elif defect == "junk_token":
        tokens[col] = draw(JUNK)
        lines[row] = " ".join(tokens)
    elif defect == "bad_value":
        # each breaks the row sum, the sign or finiteness
        tokens[col] = draw(st.sampled_from(["0", "-0.5", "2.0", "nan", "-inf", "1e308"]))
        lines[row] = " ".join(tokens)
    elif defect == "junk_line":
        lines[row] = draw(st.text(st.characters(blacklist_categories=("Cs",)), min_size=1)
                          .map(lambda t: t.replace("\n", " ").replace("\r", " "))
                          .filter(lambda t: not all(map(parses_as_float, t.split()))))
    elif defect == "empty":
        return draw(st.sampled_from(["", "\n", "  \n\t\n"])), None
    else:
        # the file has no blank line, so row r of the matrix is line r + 2
        tokens[col], problem = {
            "row_sum": (repr(float(tokens[col]) + 0.5), " sums to "),
            "negative": ("-" + tokens[col], ": kernel entries must be nonnegative"),
            "non_finite": (draw(st.sampled_from(["nan", "inf", "-inf"])),
                           ": kernel entries must be finite"),
        }[defect]
        lines[row] = " ".join(tokens)
        return "\n".join(lines) + "\n", f"line {row + 1}: row {row - 1}{problem}"
    return "\n".join(lines) + "\n", None


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(broken_kernel_texts())
@example(("2\n0.5 0.5\nabc 1\n", None))
@example(("2\n0.5 0.5\n0.6 0.5\n", "line 3: row 1 sums to 1.1, not 1 within 1e-12"))
# the row sum overflowed with a RuntimeWarning
@example(("2\n0.5 0.5\n1e308 1e308\n", "line 3: row 1 sums to inf, not 1 within 1e-12"))
def test_broken_kernel_files_exit_two_without_a_traceback(case):
    text, row_error = case
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "k.txt").write_text(text, encoding="utf-8")
        cfg = write_cfg(Path(tmp), "[doeblin]\nkernel = k.txt\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["doeblin", "--config", str(cfg), "--out", str(Path(tmp, "out"))])
    assert rc == 2
    assert "error = validation" in out.getvalue().splitlines()
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if row_error is not None:
        assert row_error in out.getvalue()
