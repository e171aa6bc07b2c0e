"""Run every workload over several seeds and summarise medians and spread.

Usage (from the repository root):

    python3 perfbench/sweep.py [--runs 10] [--first-seed 1] [--trace-runs 2]
                               [--label TEXT] [--out FILE] [--against FILE]

Every run uses the workloads and run_seconds of BENCHMARK.json.  Round r
runs each workload once with seed first-seed + r, rotating the
order of workloads, so slow drift of the machine spreads over all of them.
For each workload it prints every end-to-end metric by name and unit: the
median, the quartiles (statistics.quantiles(values, n=4)) and their distance
as a share of the median against the bound in BENCHMARK.json, and the
derived numbers (trajectory-steps/s, failed and aborted fractions).  Traced
runs follow: the per-layer medians, each layer's share of the summed self
time, and whether the counts (unit "count") agree across all traced runs.
--out writes the summary as JSON; --against compares the medians with the
medians of such a file (the metric's bound is the allowed worsening).
The exit code is 1 if a call failed its gate or a count differed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-2][len("record "):]), json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med}


def _print_row(name: str, unit: str, s: dict, bound=None) -> None:
    mark = ""
    if bound is not None:
        mark = f"  bound {bound:.2f} " + ("ok" if s["spread"] <= bound else "OVER")
    print(f"  {name:34s} {s['median']:14.6g} {unit:14s} "
          f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.3f}{mark}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace-runs", type=int, default=2)
    parser.add_argument("--label", default="", help="stored in the --out file")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in BENCH["workloads"]]
    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}

    runs = {w: [] for w in workloads}
    traced = {w: [] for w in workloads}
    machine = None
    for r in range(args.runs + args.trace_runs):
        trace = int(r >= args.runs)
        seed = args.first_seed + r
        shift = r % len(workloads)
        for w in workloads[shift:] + workloads[:shift]:
            record, result = run_once(w, seed, trace)
            machine = record["machine"]
            (traced if trace else runs)[w].append({"seed": seed, "record": record,
                                                   "result": result})
            print(f"{w} seed {seed} trace {trace}: attempted {result['attempted']} "
                  f"failed {result['failed']}", file=sys.stderr)

    summary = {"label": args.label, "machine": machine, "seconds": BENCH["run_seconds"],
               "workloads": {}}
    ok = True
    for w in workloads:
        entry = {"end_to_end": {}, "derived": {}, "per_layer": {}}
        print(f"\n{w}  ({len(runs[w])} runs, {len(traced[w])} traced)")
        if runs[w]:
            for name, bound in bounds.items():
                s = spread([x["result"]["metrics"][name]["value"] for x in runs[w]])
                entry["end_to_end"][name] = dict(s, bound=bound)
                _print_row(name, units[name], s, bound)
            attempted = sum(x["result"]["attempted"] for x in runs[w])
            failed = sum(x["result"]["failed"] for x in runs[w])
            entry["derived"]["failed_frac"] = failed / attempted
            entry["derived"]["aborted_frac"] = max(
                x["record"]["derived"]["aborted_frac"] for x in runs[w])
            print(f"  {'failed_frac':34s} {failed / attempted:14.6g} ratio "
                  f"         ({failed} of {attempted} calls)")
            print(f"  {'aborted_frac':34s} {entry['derived']['aborted_frac']:14.6g} ratio")
            rates = [x["record"]["derived"].get("traj_steps_per_s") for x in runs[w]]
            if None not in rates:
                s = spread(rates)
                entry["derived"]["traj_steps_per_s"] = s
                _print_row("traj_steps_per_s", "1/s", s)
        if traced[w]:
            layers = [x["result"]["metrics"] for x in traced[w]]
            for name in layers[0]:
                values = [m[name]["value"] for m in layers]
                entry["per_layer"][name] = statistics.median(values)
            shares = [x["record"]["derived"]["layer_shares"] for x in traced[w]]
            entry["layer_shares"] = {
                k: statistics.median(s.get(k, 0.0) for s in shares)
                for k in sorted(set().union(*shares), key=lambda k: -shares[0].get(k, 0.0))
            }
            entry["exact_counts"] = {n: sorted({m[n]["value"] for m in layers})
                                     for n, u in units.items() if u == "count"}
            agree = all(len(v) == 1 for v in entry["exact_counts"].values())
            ok &= agree
            print(f"  traced: exact counts {'agree' if agree else 'DIFFER'}: "
                  f"{entry['exact_counts']}")
            for k, v in entry["layer_shares"].items():
                print(f"    share {k:32s} {v:7.3f}")
        summary["workloads"][w] = entry

    if args.against:
        old = json.loads(args.against.read_text())["workloads"]
        print("\nmedians against", args.against)
        for w, entry in summary["workloads"].items():
            for name, s in entry["end_to_end"].items():
                base = old.get(w, {}).get("end_to_end", {}).get(name)
                if base:
                    change = s["median"] / base["median"] - 1.0
                    verdict = "ok" if change <= bounds[name] else "WORSE"
                    print(f"  {w:14s} {name:12s} {change:+.3f} (bound {bounds[name]}) {verdict}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    ok &= all(x["result"]["failed"] == 0 for w in workloads for x in runs[w] + traced[w])
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
