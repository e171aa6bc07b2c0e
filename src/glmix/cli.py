"""Command-line driver: simulate | moments | mixing | doeblin | odecheck.

Every subcommand reads one configuration file (all keys optional, see the
config module), writes its outputs under --out with the fully resolved
configuration echoed as '#' comment lines in each file header, and prints a
machine-readable key = value account of what happened.  Exit codes: 0 when
every enabled check passed, 1 when a check failed (the output files are
still written), 2 for configuration or validation errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import locale  # argparse's gettext imports it when main builds the parser
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, resolve_config
from .doeblin import (
    WeightedMeasure,
    certificate_text,
    condition_b,
    contraction_check,
    geometric_bound_check,
    minorization,
    read_kernel,
    search_weights,
    small_set_search,
)
from .field import fmt_float
from .integrator import (
    BLOCK_ROWS,
    ensemble_workers,
    ode_comparison,
    run_ensemble,
    write_trajectory_csv,
)
from .mixing import EnsembleSpec, mixing_report, moment_bound, report_csv, report_summary

__all__ = ["main"]


def _header(cfg: RunConfig, subcommand: str) -> list[str]:
    return [f"glmix {subcommand}"] + cfg.resolved_lines()


def _write(path: Path, header_lines: list[str], body: str) -> None:
    text = "".join(f"# {h}\n" for h in header_lines) + body
    path.write_text(text)


def _ensemble_spec(cfg: RunConfig) -> EnsembleSpec:
    params = cfg.params()  # before the starts: it rejects n_modes too large to allocate
    return EnsembleSpec(
        initial_conditions=[cfg.ic_array(i) for i in range(len(cfg.ics))],
        n_traj=cfg.n_traj,
        params=params,
        gamma=cfg.gamma,
        p=cfg.p,
    )


def _cmd_simulate(cfg: RunConfig, out: Path, threads: int) -> int:
    params = cfg.params()
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
                ens = run_ensemble(x, params, ids, threads=threads)
                for j in np.flatnonzero(ens.aborted):
                    aborted.append((int(ens.traj_ids[j]), float(ens.abort_times[j])))
                yield ens
                del ens  # written; freed before the next chunk is stepped

    path = out / "trajectories.csv"
    write_trajectory_csv(path, chunks(), cfg.gamma, _header(cfg, "simulate"))
    print(f"wrote = {path}")
    if aborted:
        print("failure = trajectory_abort")
        for tid, t in aborted:
            print(f"trajectory = {tid}")
            print(f"time = {fmt_float(t)}")
        return 1
    return 0


def _cmd_moments(cfg: RunConfig, out: Path, threads: int) -> int:
    spec = _ensemble_spec(cfg)
    table = moment_bound(spec, t=cfg.t_final, threads=threads)
    body = ["ic,t,estimate,stderr,n_traj,n_aborted"]
    for e in table.entries:
        body.append(
            f"{e.ic_index},{fmt_float(e.t)},{fmt_float(e.estimate)},{fmt_float(e.stderr)},"
            f"{e.n_traj},{e.n_aborted}"
        )
    _write(out / "moments.csv", _header(cfg, "moments"), "\n".join(body) + "\n")
    verdict = table.uniformity
    summary = [
        f"max_ratio = {fmt_float(verdict.max_ratio)}",
        f"ratio_ok = {int(verdict.ratio_ok)}",
        f"ci_overlap_ok = {int(verdict.ci_overlap_ok)}",
        f"uniform = {int(verdict.uniform)}",
    ]
    _write(out / "moments_summary.txt", _header(cfg, "moments"), "\n".join(summary) + "\n")
    print("\n".join(summary))
    print(f"wrote = {out / 'moments.csv'}")
    if not verdict.uniform:
        print("failure = moment_uniformity")
        return 1
    return 0


def _cmd_mixing(cfg: RunConfig, out: Path, threads: int) -> int:
    spec = _ensemble_spec(cfg)
    report = mixing_report(
        spec, times=cfg.resolved_times(), n_boot=cfg.n_boot, threads=threads
    )
    _write(out / "mixing.csv", _header(cfg, "mixing"), report_csv(report))
    summary = report_summary(report)
    _write(out / "mixing_summary.txt", _header(cfg, "mixing"), summary)
    print(summary, end="")
    print(f"wrote = {out / 'mixing.csv'}")
    if not (report.fit.identifiable and report.fit.ci_low > 0.0):
        print("failure = mixing_rate")
        return 1
    return 0


def _cmd_doeblin(cfg: RunConfig, out: Path) -> int:
    if cfg.doeblin_kernel is None:
        print("failure = missing_doeblin_section")
        return 2
    kernel = read_kernel(cfg.doeblin_kernel)
    mu0 = WeightedMeasure(
        np.full(kernel.n, 1.0 / kernel.n)
        if cfg.doeblin_mu0 == "uniform"
        else np.array([float(tok) for tok in cfg.doeblin_mu0.split()])
    )
    search_weights(kernel, mu0)  # before any certificate is printed or written
    k_set = (
        list(range(kernel.n))
        if cfg.doeblin_K == "all"
        else [int(tok) for tok in cfg.doeblin_K.split()]
    )
    failures = []
    cert = minorization(kernel, k_set, cfg.doeblin_m)
    if cert is None:
        print("failure = no_common_component")
        return 1
    dprime = condition_b(kernel, k_set)
    print(f"delta_prime = {fmt_float(dprime)}")
    if cert.m == 1 and dprime > 0.0:
        cert = dataclasses.replace(cert, delta_prime=dprime)
    block = certificate_text(cert)
    _write(out / "certificate.txt", _header(cfg, "doeblin"), block)
    print(block, end="")
    if cert.delta_prime is not None:
        eps = cert.delta * cert.delta_prime
        try:
            worst = contraction_check(kernel, cert)
            print(f"contraction_factor = {fmt_float(worst)}")
        except ValueError as err:
            failures.append(("contraction", str(err)))
        if 0.0 < eps < 1.0:
            try:
                gap = geometric_bound_check(kernel, cert, n=50)
                print(f"geometric_gap = {fmt_float(gap)}")
            except ValueError as err:
                failures.append(("geometric_bound", str(err)))
    search = small_set_search(kernel, mu0)
    if search is None:
        print("search = none")
    else:
        _write(out / "search_certificate.txt", _header(cfg, "doeblin"), certificate_text(search))
        print("search = found")
        print(certificate_text(search), end="")
    print(f"wrote = {out / 'certificate.txt'}")
    for tag, message in failures:
        print(f"failure = {tag}")
        print(message)
    return 1 if failures else 0


def _cmd_odecheck(cfg: RunConfig, out: Path) -> int:
    rows = ["q,c,y0,t,y_final,forcing_integral,corrected_bound,literal_bound,"
            "corrected_holds,literal_holds"]
    bad = 0
    for q in cfg.ode_qs:
        for c in cfg.ode_cs:
            for y0 in cfg.ode_y0s:
                for t in cfg.ode_ts:
                    r = ode_comparison(q, c, y0, t)
                    rows.append(
                        f"{q},{fmt_float(c)},{fmt_float(y0)},{fmt_float(t)},{fmt_float(r.y_final)},"
                        f"{fmt_float(r.forcing_integral)},{fmt_float(r.corrected_bound)},"
                        f"{fmt_float(r.literal_bound)},{int(r.corrected_holds)},"
                        f"{int(r.literal_holds)}"
                    )
                    print(
                        f"q = {q} c = {fmt_float(c)} y0 = {fmt_float(y0)} t = {fmt_float(t)} "
                        f"corrected_holds = {int(r.corrected_holds)} "
                        f"literal_holds = {int(r.literal_holds)}"
                    )
                    if not r.corrected_holds:
                        bad += 1
    _write(out / "odecheck.csv", _header(cfg, "odecheck"), "\n".join(rows) + "\n")
    print(f"wrote = {out / 'odecheck.csv'}")
    if bad:
        print("failure = corrected_bound")
        print(f"count = {bad}")
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="glmix",
        description="Spectral Ginzburg-Landau simulator and finite-state "
        "minorization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "moments", "mixing", "doeblin", "odecheck"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="configuration file path")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--threads", type=int, default=1, help="ensemble worker threads")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text() if args.config else ""
        cfg = resolve_config(text)
        if args.config:
            cfg.anchor_paths(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "simulate":
            return _cmd_simulate(cfg, out, args.threads)
        if args.command == "moments":
            return _cmd_moments(cfg, out, args.threads)
        if args.command == "mixing":
            return _cmd_mixing(cfg, out, args.threads)
        if args.command == "doeblin":
            return _cmd_doeblin(cfg, out)
        return _cmd_odecheck(cfg, out)
    except ConfigError as err:
        print("error = config")
        print(str(err))
        return 2
    except (ValueError, OSError) as err:
        print("error = validation")
        print(str(err))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
