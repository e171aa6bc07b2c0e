"""End-to-end tests for the command-line driver.

Each test invokes glmix.cli.main directly with an argv list, captures stdout
through capsys, and works inside a pytest tmp_path.  Numeric expectations
are frozen from probe runs of the same deterministic pipelines (one random
stream per seed and trajectory id), so any drift in the simulator or the
certificate toolkit shows up here as a byte-level diff.
"""

import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
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


def test_cli_import_loads_no_scipy_but_the_modules_its_calls_use():
    # a fresh interpreter: the test process has scipy loaded already; a module
    # first imported inside a call would add its import time to the call
    code = (
        "import sys, glmix.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy'))); "
        "print([m in sys.modules for m in ('numpy.random', 'numpy.fft', 'locale')])"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(glmix.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert run.stdout.splitlines() == ["[]", "[True, True, True]"]


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
        "q,c,y0,t,y_final,forcing_integral,corrected_bound,literal_bound,"
        "corrected_holds,literal_holds"
    )
    assert len(rows) == 4
    for row in rows[1:]:
        fields = row.split(",")
        q, c, y0, t = int(fields[0]), float(fields[1]), float(fields[2]), float(fields[3])
        r = ode_comparison(q, c, y0, t)
        assert fields[4] == repr(r.y_final)
        assert fields[5] == repr(r.forcing_integral)
        assert fields[6] == repr(r.corrected_bound)
        assert fields[7] == repr(r.literal_bound)
        assert fields[8] == str(int(r.corrected_holds))
        assert fields[9] == str(int(r.literal_holds))
    # the unforced witness row: literal constant (q c t)^{-1/(q-1)} sits
    # below the true solution while the corrected bound clears it
    witness = rows[1].split(",")
    assert math.isclose(float(witness[7]), 1.5 ** -0.5, rel_tol=1e-12)
    assert float(witness[6]) == 1.0


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
    assert main(["simulate", "--config", str(cfg), "--out", str(out4),
                 "--seed", "99"]) == 0
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
def test_moments_out_of_float_range_exit_two_naming_p(tmp_path, capsys, rows, message):
    cfg = ("[model]\nn_modes = 4\ndt = 0.0625\n\n[ensemble]\nic1 = zero\n"
           "ic2 = scaled-random:1\nn_traj = 20\n" + rows)
    text = run_exit_two(tmp_path, capsys, ["moments"], cfg)
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
    assert "failure = missing_doeblin_section" in text


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
    # a repeated report time: mixing left its first column unwritten and
    # reported the NaN records as aborted trajectories
    cfg = write_cfg(tmp_path, "[model]\nn_modes = 4\ndt = 0.015625\nt_final = 4\n[ensemble]\n"
                              "ic1 = zero\nic2 = scaled-random:1.0\nn_traj = 50\ntimes = 1 2 3 3\n")
    rc = main(["mixing", "--config", str(cfg), "--out", str(tmp_path / "times")])
    assert rc == 2 and not (tmp_path / "times").exists()
    assert capsys.readouterr().out == "error = config\nline 9: times lists 3.0 twice\n"


def test_inadmissible_spectrum_exits_two_naming_the_bound(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[model]\nbeta = 1.5\n")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    text = capsys.readouterr().out
    assert rc == 2
    assert "error = validation" in text
    assert "violation = beta_window" in text
    assert "beta must lie in (alpha - 1/8, alpha]" in text


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
    for cfg_text, argv in [
        ("[model]\nseed = -1\n", ["simulate"]),
        (None, ["simulate", "--seed", "-1"]),
        (None, ["moments", "--seed", str(2**64)]),
    ]:
        text = run_exit_two(tmp_path, capsys, argv, cfg_text)
        assert "error = validation" in text
        assert "seed must lie in [0, 2^64)" in text


def test_non_finite_t_final_and_nan_guard_exit_two(tmp_path, capsys):
    text = run_exit_two(tmp_path, capsys, ["simulate"], "[model]\nt_final = inf\n")
    assert "error = validation" in text and "t_final must be finite" in text
    # doeblin never builds the model, but echoing t_final's times must not crash
    cfg = f"[model]\nt_final = inf\n[doeblin]\nkernel = {KERNEL_FILE}\n"
    text = run_exit_two(tmp_path, capsys, ["doeblin"], cfg)
    assert "error = validation" in text and "t_final must be finite" in text
    text = run_exit_two(tmp_path, capsys, ["simulate"], "[model]\nblowup_guard = nan\n")
    assert "error = validation" in text and "blowup_guard must be positive" in text


def test_guard_whose_square_overflows_exits_two_naming_the_limit(tmp_path, capsys):
    cfg = "[model]\nn_modes = 2\nblowup_guard = 1e200\n\n[ensemble]\nic1 = zero\nn_traj = 2\n"
    for sub in ("simulate", "moments", "mixing"):
        text = run_exit_two(tmp_path, capsys, [sub], cfg)
        assert "error = validation" in text
        assert "blowup_guard = 1e+200 exceeds 1.3407807929942596e+154 = sqrt(float max)" in text


def test_guard_whose_square_underflows_exits_two_naming_the_limit(tmp_path, capsys):
    # the guard's square was 0.0, so a start 10^10 times the guard never aborted
    cfg = "[model]\nn_modes = 2\nblowup_guard = 1e-200\n\n[ensemble]\nic1 = 1e-190 0 0 0 0\nn_traj = 2\n"
    for sub in ("simulate", "moments", "mixing"):
        text = run_exit_two(tmp_path, capsys, [sub], cfg)
        assert "error = validation" in text
        assert ("blowup_guard = 1e-200 is below 1.4916681462400413e-154 = "
                "sqrt(smallest normal float)") in text
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
        assert text == f"error = validation\n{message}\n"
        assert not (tmp_path / "out" / "certificate.txt").exists()


def test_doeblin_values_exit_two_naming_their_line(tmp_path, capsys):
    # each used to exit 2 without a line number, the empty kernel path with
    # the error of opening the config's directory
    for body, message in [
        (f"kernel = {KERNEL_FILE}\nm = 0", "line 3: m must be at least 1"),
        (f"kernel = {KERNEL_FILE}\nK = -1", "line 3: K must be at least 0"),
        (f"kernel = {KERNEL_FILE}\nK = 0 -1", "line 3: K must be at least 0"),
        ("kernel = ", "line 2: key 'kernel' expects a path"),
    ]:
        text = run_exit_two(tmp_path, capsys, ["doeblin"], f"[doeblin]\n{body}\n")
        assert text == f"error = config\n{message}\n"
    assert not (tmp_path / "out").exists()
    # a state past the kernel is known only once the kernel is read
    cfg = f"[doeblin]\nkernel = {KERNEL_FILE}\nK = 0 7\n"
    text = run_exit_two(tmp_path, capsys, ["doeblin"], cfg)
    assert text == "error = validation\nstate 7 out of range 0..1\n"


def test_step_count_beyond_int64_exits_two(tmp_path, capsys):
    # 1e300 steps: the run used to start and never end
    text = run_exit_two(tmp_path, capsys, ["simulate"], "[model]\ndt = 1e-300\n")
    assert "error = validation" in text
    assert "dt = 1e-300 makes more steps than int64 holds" in text


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
         "line 3: key 'mu0' lists a weight that is not finite and nonnegative"),
        ("doeblin", f"[doeblin]\nkernel = {KERNEL_FILE}\nmu0 = inf 0\n",
         "line 3: key 'mu0' lists a weight that is not finite and nonnegative"),
    ]:
        text = run_exit_two(tmp_path, capsys, [sub], cfg)
        assert text == f"error = config\n{message}\n"
    assert not (tmp_path / "out").exists()


def test_modes_beyond_memory_exit_two(tmp_path, capsys):
    # 10^11 + 1 amplitudes need 745 GiB: numpy's allocation error used to escape
    for sub in ("simulate", "moments", "mixing"):
        text = run_exit_two(tmp_path, capsys, [sub], "[model]\nn_modes = 100000000000\n")
        assert text == ("error = validation\n"
                        "n_modes = 100000000000 has more modes than memory holds\n")


def test_integer_times_beyond_memory_exit_two(tmp_path, capsys):
    # 10^12 + 1 integer times need 7.28 TiB: numpy's allocation error used to escape
    text = run_exit_two(tmp_path, capsys, ["simulate"], "[model]\nt_final = 1e12\n")
    assert "error = validation" in text
    assert "t_final = 1000000000000.0 has more integer times than memory holds" in text
    assert not (tmp_path / "out" / "trajectories.csv").exists()


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
