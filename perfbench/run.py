"""glmix benchmark: one workload, measured for --seconds, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (README.md gives each one's reason and layer shares):

  mixing-cubic   glmix mixing, cubic drift, --threads = cores available
  ou-simulate    glmix simulate, no drift (exact Ornstein-Uhlenbeck law), 1 thread
  doeblin-wells  glmix doeblin on a double-well kernel, K = all, m = 1

The program sees only the config (and kernel) files made here from --seed,
under .perfbench_work/.  Each call is one glmix.cli.main in a fresh process
(child.py).  A run makes calls, each after a set-up-only process, until the
next one would end after --seconds (at least MIN_CALLS, or one
pair when tracing).  --trace 0 reports the end-to-end metrics as medians
over the calls; --trace 1 alternates untraced and traced calls and reports
the per-layer metrics.  Metric names and units come from BENCHMARK.json.

Every call passes a correctness gate, and its output files must be
byte-identical to those of the first call of the run (traced ones too); a
traced call's exact counts must equal their closed forms.  A call that fails
counts in "failed".  The line before the result starts
with "record " and holds the machine, the load average around each call, the
per-call samples and the derived numbers (trajectory-steps/s, failed and
aborted fractions, traced layer shares).  Exit code 2, with no result line,
means the program could not be started at all.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracing import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
RUN_LIMIT_S = 170  # a run must end within 180 s, whatever its calls do
MIN_CALLS = 3

N_MODES = 32
N_SLOTS = 2 * N_MODES + 1  # coefficients, and normals drawn, per trajectory-step
DT = 1.0 / 256.0
BLOCK = 512  # run_ensemble's default block size
MIX_TRAJ = 1024  # two 512-trajectory blocks per start, so both threads work
MIX_T_FINAL = 4
MIX_BOOT = 200
OU_TRAJ = 10_000
OU_Q = 0.5  # q0..q3: every recorded coefficient column gets a Gaussian law
WELL_STATES = 64
WELL_SIGMA = 0.6


def _cores() -> int:
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# inputs, made from the seed
# ---------------------------------------------------------------------------


def _mixing_inputs(seed: int, work: Path) -> dict:
    cfg = work / "mixing.cfg"
    cfg.write_text(
        "[model]\n"
        f"n_modes = {N_MODES}\ndt = {DT!r}\nt_final = {MIX_T_FINAL}\n"
        "poly = 0.0 -1.0 0.0 1.0\n"
        f"seed = {seed}\n"
        "[ensemble]\n"
        "ic1 = zero\nic2 = scaled-random:100.0\n"
        f"n_traj = {MIX_TRAJ}\nn_boot = {MIX_BOOT}\n"
    )
    steps = round(MIX_T_FINAL / DT)
    return {"config": cfg, "steps": 2 * MIX_TRAJ * steps, "counts": {
        "noise.normals": 2 * MIX_TRAJ * steps * N_SLOTS,
        # one synthesis and one analysis per step of each block
        "field.fft_calls": 2 * steps * 2 * math.ceil(MIX_TRAJ / BLOCK),
        # per report time: the distance, two half-split floors, n_boot resamples
        "mixing.law_distance.calls": MIX_T_FINAL * (3 + MIX_BOOT),
        "doeblin.validate.calls": 0,
    }}


def _ou_inputs(seed: int, work: Path) -> dict:
    cfg = work / "ou.cfg"
    heads = "".join(f"q{k} = {OU_Q!r}\n" for k in range(4))
    cfg.write_text(
        "[model]\n"
        f"n_modes = {N_MODES}\ndt = {DT!r}\nt_final = 1.0\npoly = none\n"
        f"seed = {seed}\n{heads}"
        "[ensemble]\n"
        f"ic1 = scaled-random:1.0\nn_traj = {OU_TRAJ}\n"
    )
    steps = round(1.0 / DT)
    return {"config": cfg, "steps": OU_TRAJ * steps, "counts": {
        "noise.normals": OU_TRAJ * steps * N_SLOTS,
        "field.fft_calls": 0,
        "mixing.law_distance.calls": 0,
        "doeblin.validate.calls": 0,
    }}


def double_well_kernel(n: int, h: float, sigma: float) -> np.ndarray:
    """Grid on [-2, 2] of x -> x + h (x - x^3) + N(0, sigma^2), rows normalized."""
    x = np.linspace(-2.0, 2.0, n)
    drift = x + h * (x - x**3)
    w = np.exp(-0.5 * ((x[None, :] - drift[:, None]) / sigma) ** 2)
    return w / w.sum(axis=1, keepdims=True)


def _doeblin_inputs(seed: int, work: Path) -> dict:
    from glmix.doeblin import FiniteKernel, read_kernel, write_kernel

    # The seed moves only the step h: the search's work depends on sigma.
    h = 0.3 + 0.02 * np.random.default_rng(seed).uniform(-1.0, 1.0)
    path = work / "wells.txt"
    write_kernel(path, FiniteKernel(double_well_kernel(WELL_STATES, h, WELL_SIGMA)))
    cfg = work / "doeblin.cfg"
    # An absolute kernel path: the CLI resolves it against the working directory.
    cfg.write_text(f"[doeblin]\nkernel = {path.resolve()}\nK = all\nm = 1\nmu0 = uniform\n")
    return {"config": cfg, "steps": 0, "kernel": read_kernel(path), "counts": {
        "noise.normals": 0,
        "field.fft_calls": 0,
        "mixing.law_distance.calls": 0,
        # minorization, contraction_check, geometric_bound_check and
        # small_set_search each validate their certificate once
        "doeblin.validate.calls": 4,
    }}


# ---------------------------------------------------------------------------
# correctness gates: each returns the list of problems found
# ---------------------------------------------------------------------------


def _data_lines(path: Path) -> list[str]:
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


def _gate_ou(res: dict, out: Path, inputs: dict) -> list[str]:
    if res["exit_code"] != 0:
        return [f"exit code {res['exit_code']}"]
    lines = _data_lines(out / "trajectories.csv")
    names = lines[0].split(",")
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    if data.shape[0] != 2 * OU_TRAJ or np.any(data[:, names.index("aborted")] != 0):
        return [f"{data.shape[0]} rows or aborted rows in trajectories.csv"]
    first = names.index("aborted") + 1
    t = data[:, names.index("t")]
    x = data[t == 0.0][0, first:]
    end = data[t == 1.0][:, first:]
    k = np.array([0 if c == "c0" else int(c[1:]) for c in names[first:]])
    ell = 1.0 + 4.0 * math.pi**2 * k**2
    mean = np.exp(-ell) * x
    var = OU_Q**2 * -np.expm1(-2.0 * ell) / (2.0 * ell)
    n = end.shape[0]
    z_mean = (end.mean(axis=0) - mean) / np.sqrt(var / n)
    z_var = (end.var(axis=0, ddof=1) - var) / (var * math.sqrt(2.0 / (n - 1)))
    return [
        f"column {c}: |z| of mean {zm:.2f}, of variance {zv:.2f} (limit 4)"
        for c, zm, zv in zip(names[first:], z_mean, z_var)
        if abs(zm) > 4.0 or abs(zv) > 4.0
    ]


def _gate_mixing(res: dict, out: Path, inputs: dict) -> list[str]:
    code, printed = res["exit_code"], res["stdout"].splitlines()
    problems = []
    if code not in (0, 1):
        problems.append(f"exit code {code}")
    if not any(re.fullmatch(r"identifiable = [01]", ln) for ln in printed):
        problems.append("no verdict line")
    if code == 1 and "failure = mixing_rate" not in printed:
        problems.append("exit 1 without failure = mixing_rate")
    rows = _data_lines(out / "mixing.csv")[1:]
    d = np.array([float(r.split(",")[1]) for r in rows])
    if d.size != MIX_T_FINAL or not np.all(np.isfinite(d)) or np.any(d < 0.0):
        problems.append(f"mixing.csv distances {d.tolist()}")
    return problems


def _gate_doeblin(res: dict, out: Path, inputs: dict) -> list[str]:
    from glmix.doeblin import parse_certificate

    if res["exit_code"] != 0:
        return [f"exit code {res['exit_code']}"]
    kernel = inputs["kernel"]
    problems = []
    certs = {}
    for name in ("certificate.txt", "search_certificate.txt"):
        try:
            certs[name] = parse_certificate((out / name).read_text())
            certs[name].validate(kernel)
        except (OSError, ValueError) as err:
            problems.append(f"{name}: {err}")
    cert = certs.get("certificate.txt")
    delta = float(kernel.rows.min(axis=0).sum())
    if cert is not None and not math.isclose(cert.delta, delta, rel_tol=1e-12):
        problems.append(f"delta {cert.delta!r} != column-minimum sum {delta!r}")
    return problems


WORKLOADS = {
    "mixing-cubic": ("mixing", _cores(), ("mixing.csv", "mixing_summary.txt"),
                     _mixing_inputs, _gate_mixing),
    "ou-simulate": ("simulate", 1, ("trajectories.csv",), _ou_inputs, _gate_ou),
    "doeblin-wells": ("doeblin", 1, ("certificate.txt", "search_certificate.txt"),
                      _doeblin_inputs, _gate_doeblin),
}


# ---------------------------------------------------------------------------
# calls
# ---------------------------------------------------------------------------


def _spawn(work: Path, tag: str, request: dict, timeout: float) -> dict:
    """Run child.py once; its result, or {"error": ...} if it did not finish."""
    req_path = work / f"{tag}.request.json"
    res_path = work / f"{tag}.result.json"
    req_path.write_text(json.dumps(dict(request, result=str(res_path))))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    load_before = os.getloadavg()[0]
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(req_path),
             repr(time.clock_gettime(time.CLOCK_MONOTONIC))],
            env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"no result within {timeout:.0f} s"}
    if proc.returncode != 0 or not res_path.exists():
        return {"error": proc.stderr.strip()[-2000:] or f"exit {proc.returncode}"}
    res = json.loads(res_path.read_text())
    res["load_before"] = load_before
    res["load_after"] = os.getloadavg()[0]
    return res


class Run:
    """The calls of one run, their gate results and the reference outputs."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.name = workload
        self.subcommand, self.threads, self.artifacts, make_inputs, self.gate = (
            WORKLOADS[workload]
        )
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.inputs = make_inputs(seed, work)
        self.calls: list[dict] = []
        self.setup_samples: list[float] = []
        self.reference: dict[str, bytes] | None = None

    def setup_only(self) -> dict:
        tag = f"setup{len(self.setup_samples)}"
        return _spawn(self.work, tag, {"config": str(self.inputs["config"]),
                                       "setup_only": True, "trace": False},
                      self._time_left())

    def call(self, trace: bool) -> dict:
        tag = f"call{len(self.calls)}"
        out = self.work / tag
        res = _spawn(self.work, tag, {
            "config": str(self.inputs["config"]),
            "setup_only": False,
            "trace": trace,
            "spans": str(self.work / "spans.npz"),
            "argv": [self.subcommand, "--config", str(self.inputs["config"]),
                     "--out", str(out), "--threads", str(self.threads)],
        }, self._time_left())
        res["traced"] = trace
        res["problems"] = self._check(res, out)
        if trace and "error" not in res:
            res["layers"] = layer_metrics(self.work / "spans.npz", self.threads)
            res["layers"]["cli.bytes_written"] = sum(
                f.stat().st_size for f in out.iterdir()
            )
            res["layers"]["integrator.aborted_frac"] = (
                res["aborted"] / res["trajectories"] if res["trajectories"] else 0.0
            )
            res["problems"] += [
                f"{name} is {res['layers'][name]}, expected {want}"
                for name, want in self.inputs["counts"].items()
                if res["layers"][name] != want
            ]
        shutil.rmtree(out, ignore_errors=True)
        res.pop("stdout", None)
        self.calls.append(res)
        if "setup_s" in res:
            self.setup_samples.append(res["setup_s"])
        return res

    def _time_left(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def _check(self, res: dict, out: Path) -> list[str]:
        if "error" in res:
            return [res["error"].splitlines()[-1]]
        if "traceback" in res:
            return [res["traceback"].strip().splitlines()[-1]]
        try:
            problems = self.gate(res, out, self.inputs)
            outputs = {name: (out / name).read_bytes() for name in self.artifacts}
        except (OSError, ValueError, IndexError) as err:
            return [f"{type(err).__name__}: {err}"]
        if res["aborted"]:
            problems.append(f"{res['aborted']} trajectories aborted")
        if self.reference is None and not problems:
            self.reference = outputs
        elif self.reference is not None:
            problems += [f"{name} differs from the first call's"
                         for name in self.artifacts if outputs[name] != self.reference[name]]
        return problems


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cores_available": _cores(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "platform": platform.platform(),
    }


def _median(values) -> float:
    return float(statistics.median(values))


def measure(run: Run, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Make the calls of one run; return (metrics, derived numbers)."""
    start = time.monotonic()
    units = []
    while True:
        t0 = time.monotonic()
        # Set-up samples spread over the whole run (each call gives one more),
        # so that their median does not rest on one moment of a drifting machine.
        res = run.setup_only()
        if "setup_s" in res:
            run.setup_samples.append(res["setup_s"])
        if trace:
            run.call(trace=False)
        run.call(trace=trace)
        units.append(time.monotonic() - t0)
        enough = len(units) >= (1 if trace else MIN_CALLS)
        elapsed = time.monotonic() - start
        if (enough and elapsed + _median(units) > seconds) or (
            time.monotonic() + max(units) > run.deadline
        ):
            break

    good = [c for c in run.calls if "wall_s" in c]
    plain = [c for c in good if not c["traced"]]
    traced = [c for c in good if c["traced"]]
    derived = {
        "aborted_frac": sum(c["aborted"] for c in good)
        / max(1, sum(c["trajectories"] for c in good)),
    }
    if plain and run.inputs["steps"]:
        derived["traj_steps_per_s"] = run.inputs["steps"] / _median(
            [c["wall_s"] for c in plain])
    if not plain or not run.setup_samples or (trace and not traced):
        return {}, derived
    if not trace:
        metrics = {
            "wall_s": _median([c["wall_s"] for c in plain]),
            "setup_s": _median(run.setup_samples),
            "cpu_s": _median([c["cpu_s"] for c in plain]),
            "peak_rss_mb": _median([c["peak_rss_mb"] for c in plain]),
        }
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, derived

    # A layer the workload never calls reports 0.
    layers = {m: _median([c["layers"].get(m, 0.0) for c in traced])
              for m in PER_LAYER if m != "trace.overhead_s"}
    layers["trace.overhead_s"] = _median([c["wall_s"] for c in traced]) - _median(
        [c["wall_s"] for c in plain])
    self_times = {m: v for m, v in layers.items() if m.endswith(".self_s")}
    total = sum(self_times.values())
    derived["layer_shares"] = {m[: -len(".self_s")]: v / total
                               for m, v in self_times.items() if v > 0.0}
    exact = ("count", "bytes", "bytes_computed")
    return {m: {"value": round(layers[m]) if u in exact else layers[m], "unit": u}
            for m, u in PER_LAYER.items()}, derived


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import glmix  # noqa: F401
    except ImportError as err:
        print(f"cannot import glmix from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    load_before = os.getloadavg()
    run = Run(args.workload, args.seed % 2**63, work)
    # The first process in a fresh checkout also compiles the package; it
    # doubles as the check that the program starts at all.
    first = run.setup_only()
    if "error" in first:
        print(f"glmix does not start: {first['error']}", file=sys.stderr)
        return 2

    metrics, derived = measure(run, args.seconds, bool(args.trace))
    failed = sum(bool(c["problems"]) for c in run.calls)
    if not metrics:  # no call gave a result to measure
        failed = len(run.calls)
    derived["failed_frac"] = failed / len(run.calls)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "threads": run.threads, "machine": machine(),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "derived": derived, "setup_samples": run.setup_samples, "calls": run.calls,
    }
    for c in run.calls:
        for p in c["problems"]:
            print(f"call failed the gate: {p}", file=sys.stderr)
    print("record " + json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": len(run.calls),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
