"""Command-line driver: simulate | moments | mixing | doeblin | odecheck.

One parser reads the subcommand and the options --config, --out and
--threads, which may come before or after it.  Every subcommand reads one
configuration file (all keys optional, see the config module), writes its
outputs under --out with the fully resolved configuration echoed as '#'
comment lines in each file header, and prints a machine-readable
key = value account of what happened; every value in them is written by
field.fmt_value.  --out is made by the first file written, so a run that
writes none leaves no directory.  Exit 0: every enabled check passed; 1: a
check failed (the output files are still written); 2: a bad command line
(error = usage), a refused config value (error = config naming its line
before any output; the model, gamma, p and times under all five
subcommands, any other value under the one that reads it), or a bad kernel
file, --out or float range (error = validation).

--threads counts the ensemble workers of simulate, moments and mixing.
numpy's BLAS starts on one thread unless OMP_NUM_THREADS,
OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or MKL_NUM_THREADS is set, as no
glmix hot path calls threaded BLAS; export OPENBLAS_NUM_THREADS=<cores> for
doeblin kernels of about 1000 states or more.  No thread setting changes an
output byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import locale  # argparse's gettext imports it when main builds the parser
import os
from pathlib import Path

# set before numpy loads its BLAS, whose idle worker threads otherwise spin
# on spare cores after the import and after each threaded call; OpenBLAS,
# MKL and BLIS read it, and a user's own thread variable still wins
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np

from .config import ConfigError, RunConfig, resolve_config
from .doeblin import (
    certificate_text,
    condition_b,
    contraction_check,
    geometric_bound_check,
    minorization,
    read_kernel,
    search_weights,
    small_set_search,
)
from .field import SettingError, block_text, csv_text
from .integrator import (
    BLOCK_ROWS,
    ensemble_workers,
    ode_comparison,
    run_ensemble,
    write_trajectory_csv,
)
from .mixing import EnsembleSpec, mixing_report, moment_bound, report_csv, report_summary

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's own prints to stderr and exits 2
        raise argparse.ArgumentError(None, message)


def _worker_count(text: str) -> int:
    """--threads: a whole number of at least 1."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a whole number of at least 1")
    return n


def _write(path: Path, header_lines: list[str], body: str) -> None:
    """Write the '#' header block and body; --out is made by the first write."""
    text = "".join(f"# {h}\n" for h in header_lines) + body
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _ensemble_spec(cfg: RunConfig) -> EnsembleSpec:
    ics = [cfg.ic_array(i) for i in range(len(cfg.ics))]
    return EnsembleSpec(ics, cfg.n_traj, cfg.model, cfg.gamma, cfg.p)


def _cmd_simulate(cfg: RunConfig, header: list[str], out: Path, threads: int) -> int:
    # one block per pool worker: each chunk's rows are written before the next
    # chunk is stepped, so memory does not grow with n_traj
    chunk = ensemble_workers(threads) * BLOCK_ROWS
    aborted = []

    def chunks():
        for i in range(len(cfg.ics)):
            x = cfg.ic_array(i)
            end = (i + 1) * cfg.n_traj
            for lo in range(i * cfg.n_traj, end, chunk):
                ids = np.arange(lo, min(lo + chunk, end), dtype=np.int64)
                ens = run_ensemble(x, cfg.model, ids, threads=threads)
                for j in np.flatnonzero(ens.aborted):
                    aborted.append((int(ens.traj_ids[j]), float(ens.abort_times[j])))
                yield ens
                del ens  # written; freed before the next chunk is stepped

    path = out / "trajectories.csv"
    write_trajectory_csv(path, chunks(), cfg.gamma, header)
    print(f"wrote = {path}")
    if aborted:
        print("failure = trajectory_abort")
        for tid, t in aborted:
            print(block_text({"trajectory": tid, "time": t}), end="")
        return 1
    return 0


def _report(header: list[str], out: Path, name: str, csv: str, summary: str) -> None:
    """Write <name>.csv and <name>_summary.txt, then print the summary."""
    _write(out / f"{name}.csv", header, csv)
    _write(out / f"{name}_summary.txt", header, summary)
    print(summary, end="")
    print(f"wrote = {out / name}.csv")


def _cmd_moments(cfg: RunConfig, header: list[str], out: Path, threads: int) -> int:
    spec = _ensemble_spec(cfg)
    table = moment_bound(spec, threads=threads)
    csv = csv_text(["ic", "t", "estimate", "stderr", "n_traj", "n_aborted"], [
        (i, table.t, est, se, table.n_traj, aborted)
        for i, (est, se, aborted) in enumerate(zip(table.estimate, table.stderr, table.n_aborted))
    ])
    summary = block_text({
        "max_ratio": table.max_ratio, "ratio_ok": table.ratio_ok,
        "ci_overlap_ok": table.ci_overlap_ok, "uniform": table.uniform,
    })
    _report(header, out, "moments", csv, summary)
    if not table.uniform:
        print("failure = moment_uniformity")
        return 1
    return 0


def _cmd_mixing(cfg: RunConfig, header: list[str], out: Path, threads: int) -> int:
    spec = _ensemble_spec(cfg)
    report = mixing_report(spec, cfg.resolved_times(), cfg.n_boot, threads=threads)
    _report(header, out, "mixing", report_csv(report), report_summary(report))
    if not (report.fit.identifiable and report.fit.ci_low > 0.0):
        print("failure = mixing_rate")
        return 1
    return 0


def _cmd_doeblin(cfg: RunConfig, header: list[str], out: Path, threads: int) -> int:
    if cfg.doeblin_kernel is None:
        raise ConfigError("doeblin requires a [doeblin] section with a kernel key")
    kernel = read_kernel(cfg.doeblin_kernel)
    # checked before any certificate is printed or written
    mu0 = search_weights(
        kernel, np.full(kernel.n, 1.0 / kernel.n) if cfg.doeblin_mu0 is None else cfg.doeblin_mu0
    )
    k_set = list(range(kernel.n)) if cfg.doeblin_K is None else cfg.doeblin_K
    cert = minorization(kernel, k_set, cfg.doeblin_m)
    if cert is None:
        print("failure = no_common_component")
        return 1
    dprime = condition_b(kernel, k_set)
    print(block_text({"delta_prime": dprime}), end="")
    if cert.m == 1 and dprime > 0.0:
        cert = dataclasses.replace(cert, delta_prime=dprime)
    block = certificate_text(cert)
    _write(out / "certificate.txt", header, block)
    print(block, end="")
    if cert.delta_prime is not None:
        print(block_text({"contraction_factor": contraction_check(kernel, cert)}), end="")
        gap = geometric_bound_check(kernel, cert)
        if gap is not None:  # None: a vacuous bound, or mu_* not resolvable in float64
            print(block_text({"geometric_gap": gap}), end="")
    search = small_set_search(kernel, mu0)
    if search is None:
        print("search = none")
    else:
        block = certificate_text(search)
        _write(out / "search_certificate.txt", header, block)
        print(f"search = found\n{block}", end="")
    print(f"wrote = {out / 'certificate.txt'}")
    return 0


def _cmd_odecheck(cfg: RunConfig, header: list[str], out: Path, threads: int) -> int:
    # solved before any line is printed, so a refusal prints only its error
    grid = [(q, c, y0, t, ode_comparison(q, c, y0, t)) for q, c, y0, t in
            itertools.product(cfg.ode_qs, cfg.ode_cs, cfg.ode_y0s, cfg.ode_ts)]
    rows, bad = [], 0
    for q, c, y0, t, r in grid:
        rows.append((q, c, y0, t, r.y_final, r.corrected_bound, r.literal_bound,
                     r.corrected_holds, r.literal_holds))
        print(block_text({"q": q, "c": c, "y0": y0, "t": t, "corrected_holds": r.corrected_holds,
                          "literal_holds": r.literal_holds}, sep=" "), end="")
        bad += not r.corrected_holds
    _write(out / "odecheck.csv", header, csv_text(
        ["q", "c", "y0", "t", "y_final", "corrected_bound", "literal_bound",
         "corrected_holds", "literal_holds"], rows))
    print(f"wrote = {out / 'odecheck.csv'}")
    if bad:
        print(block_text({"failure": "corrected_bound", "count": bad}), end="")
        return 1
    return 0


# each takes (cfg, header, out, threads); doeblin and odecheck run on one thread
_COMMANDS = {"simulate": _cmd_simulate, "moments": _cmd_moments, "mixing": _cmd_mixing,
             "doeblin": _cmd_doeblin, "odecheck": _cmd_odecheck}


def main(argv=None) -> int:
    parser = _Parser(
        prog="glmix",
        description="Spectral Ginzburg-Landau simulator and finite-state "
        "minorization toolkit",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", default=None, help="configuration file path")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--threads", type=_worker_count, default=1,
                        help="ensemble workers of simulate, moments and mixing (BLAS starts on "
                        "one thread unless a thread variable is set); no thread setting "
                        "changes an output byte")
    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentError as err:
        print("error = usage")
        print(str(err))
        return 2

    try:
        text = Path(args.config).read_text() if args.config else ""
        cfg = resolve_config(text)
        if args.config:
            cfg.anchor_paths(args.config)
        header = [f"glmix {args.command}"] + cfg.resolved_lines()  # before any work
        out = Path(args.out)  # made when the first file is written
        nearest = next(p for p in (out, *out.parents) if p.exists())
        if not nearest.is_dir():
            raise ValueError(f"--out {out}: {nearest} exists and is not a directory")
        return _COMMANDS[args.command](cfg, header, out, args.threads)
    except (ValueError, OSError) as err:
        if isinstance(err, SettingError):  # refused after resolve_config, which names its own
            err = cfg.refusal(err)
        print("error = config" if isinstance(err, ConfigError) else "error = validation")
        print(err)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
