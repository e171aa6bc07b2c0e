"""One glmix CLI call in a fresh process, with what it cost.

Usage: python3 perfbench/child.py REQUEST.json SPAWNED_AT

run.py starts this script once per call.  SPAWNED_AT is the CLOCK_MONOTONIC
reading taken just before the process was started, so setup_s covers the
interpreter start, the numpy/scipy/glmix imports, resolve_config and
params() or the kernel read.  The call itself is one ``glmix.cli.main``,
traced when the request asks for it.  The result goes to the JSON file the
request names; nothing is printed.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _probe_aborts(tally: dict) -> None:
    """Read abort flags off each run_ensemble result (two calls per run)."""
    import glmix.cli as cli
    import glmix.mixing as mixing

    def probed(fn):
        def call(*args, **kwargs):
            ens = fn(*args, **kwargs)
            tally["trajectories"] += int(ens.aborted.size)
            tally["aborted"] += int(ens.aborted.sum())
            return ens

        return call

    cli.run_ensemble = probed(cli.run_ensemble)
    mixing.run_ensemble = probed(mixing.run_ensemble)


def main() -> int:
    req = json.loads(Path(sys.argv[1]).read_text())
    spawned_at = float(sys.argv[2])

    import glmix.cli
    from glmix.config import resolve_config
    from glmix.doeblin import read_kernel

    cfg = resolve_config(Path(req["config"]).read_text())
    if cfg.doeblin_kernel is not None:
        read_kernel(cfg.doeblin_kernel)
    else:
        cfg.params()
    result = {"setup_s": _clock() - spawned_at}

    if not req["setup_only"]:
        run = glmix.cli.main
        tracer = None
        if req["trace"]:
            from tracing import ROOT_SPAN, Tracer

            tracer = Tracer()
            tracer.install()
            run = tracer.wrap(ROOT_SPAN, run)
        tally = {"trajectories": 0, "aborted": 0}
        _probe_aborts(tally)
        stdout = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                code = run(req["argv"])
        except Exception:
            code = None
            result["traceback"] = traceback.format_exc()
        wall = time.perf_counter() - t0
        usage = resource.getrusage(resource.RUSAGE_SELF)
        if tracer is not None:
            tracer.save(req["spans"])
        result.update(
            exit_code=code,
            stdout=stdout.getvalue(),
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            **tally,
        )
    Path(req["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
