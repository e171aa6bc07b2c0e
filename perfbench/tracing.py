"""Spans around the calls into each glmix module, for the traced run.

A Tracer replaces the names that calling modules look up with timed
wrappers.  ``from .field import coeffs_to_values`` binds
``glmix.integrator.coeffs_to_values``, so that is the name patched, not the
one in ``glmix.field``; methods are patched on their class.  Normal draws
are timed through a proxy that the wrapped
``glmix.integrator.trajectory_generator`` returns.  Nothing in the package
is edited and the untraced run never imports this module.

A span records its id, name, start, end, parent span and thread.  Spans
stay in memory and are written to one ``.npz`` file when the call ends;
``layer_metrics`` turns that file into the per-layer metrics.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time

import numpy as np

ROOT_SPAN = "cli.main"


def _grid_out(args, out):
    """(rows, grid points) of a synthesis call, read from its output."""
    return out.size // out.shape[-1], out.shape[-1]


def _grid_in(args, out):
    """(rows, grid points) of an analysis call, read from its input."""
    values = np.asarray(args[0])
    return values.size // values.shape[-1], values.shape[-1]


def _normals(args, out):
    return 0, out.size


class _GeneratorProxy:
    """Generator stand-in whose standard_normal calls are spans."""

    def __init__(self, gen, tracer: "Tracer"):
        self._gen = gen
        self.standard_normal = tracer.wrap(
            "noise.standard_normal", gen.standard_normal, work=_normals
        )

    def __getattr__(self, attr):
        return getattr(self._gen, attr)


class Tracer:
    """Records spans in memory; ``install`` patches the glmix call sites."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        # The open run_ensemble span: parent of spans its worker threads open.
        self._fanout_parent = -1

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, work=None, fans_out: bool = False):
        """Timed stand-in for fn; work(args, result) gives (rows, count)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else self._fanout_parent
            stack.append(sid)
            if fans_out:
                outer, self._fanout_parent = self._fanout_parent, sid
            out = None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = time.perf_counter()
                if fans_out:
                    self._fanout_parent = outer
                stack.pop()
                rows, count = work(args, out) if work and out is not None else (0, 0)
                self.spans.append(
                    (sid, name, t0, t1, parent, threading.get_ident(), rows, count)
                )

        return traced

    def install(self) -> None:
        import glmix.cli as cli
        import glmix.doeblin as doeblin
        import glmix.field as field
        import glmix.integrator as integrator
        import glmix.mixing as mixing

        stepper = integrator.ExponentialEulerStepper
        targets = [
            (cli, "resolve_config", "config.resolve_config", {}),
            (cli, "run_ensemble", "integrator.run_ensemble", {"fans_out": True}),
            (mixing, "run_ensemble", "integrator.run_ensemble", {"fans_out": True}),
            (stepper, "step_block", "integrator.step_block", {}),
            (stepper, "nonlinearity", "integrator.nonlinearity", {}),
            (stepper, "blown_up", "integrator.blown_up", {}),
            (integrator, "coeffs_to_values", "field.coeffs_to_values", {"work": _grid_out}),
            (integrator, "values_to_coeffs", "field.values_to_coeffs", {"work": _grid_in}),
            (integrator, "sup_norm_values", "field.sup_norm_values", {}),
            (field.DriftPolynomial, "__call__", "field.poly_eval", {}),
            (cli, "write_trajectory_csv", "cli.write", {}),
            (cli, "_write", "cli.write", {}),
            (cli, "mixing_report", "mixing.mixing_report", {}),
            (mixing, "law_distance", "mixing.law_distance", {}),
            (mixing, "observables", "mixing.observables", {}),
            (mixing, "fit_rate", "mixing.fit_rate", {}),
            (cli, "read_kernel", "doeblin.read_kernel", {}),
            (cli, "minorization", "doeblin.minorization", {}),
            (cli, "contraction_check", "doeblin.contraction_check", {}),
            (cli, "geometric_bound_check", "doeblin.geometric_bound_check", {}),
            (cli, "small_set_search", "doeblin.small_set_search", {}),
            (doeblin, "invariant_measure", "doeblin.invariant_measure", {}),
            (doeblin.SmallSetCertificate, "validate", "doeblin.validate", {}),
        ]
        for owner, attr, name, kwargs in targets:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), **kwargs))
        make_generator = self.wrap(
            "noise.trajectory_generator", integrator.trajectory_generator
        )
        integrator.trajectory_generator = lambda seed, tid: _GeneratorProxy(
            make_generator(seed, tid), self
        )

    def save(self, path) -> None:
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        threads = {}
        cols = list(zip(*self.spans))
        np.savez(
            path,
            names=np.array(names, dtype=str),
            span=np.array(cols[0], dtype=np.int64),
            name=np.array([index[n] for n in cols[1]], dtype=np.int64),
            start=np.array(cols[2], dtype=float),
            end=np.array(cols[3], dtype=float),
            parent=np.array(cols[4], dtype=np.int64),
            thread=np.array([threads.setdefault(t, len(threads)) for t in cols[5]], dtype=np.int64),
            rows=np.array(cols[6], dtype=np.int64),
            count=np.array(cols[7], dtype=np.int64),
        )


def _union_length(starts: np.ndarray, ends: np.ndarray) -> float:
    order = np.argsort(starts)
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in zip(starts[order], ends[order]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(path, threads: int) -> dict:
    """Per-layer metrics from one saved span file.

    ``<span name>.self_s`` is a span's duration minus the part of it that
    child spans cover, summed over all spans of that name.
    trace.overhead_s, cli.bytes_written and integrator.aborted_frac need the
    untraced call, the output files or the abort flags; the caller adds them.
    """
    d = np.load(path)
    names = [str(n) for n in d["names"]]
    name, start, end, parent = d["name"], d["start"], d["end"], d["parent"]
    thread, rows, count = d["thread"], d["rows"], d["count"]
    n = name.size
    pos = np.full(int(d["span"].max()) + 1, -1, dtype=np.int64)
    pos[d["span"]] = np.arange(n)
    dur = end - start

    has_parent = parent >= 0
    ppos = np.where(has_parent, pos[np.where(has_parent, parent, 0)], -1)
    cross = has_parent & (thread != thread[np.maximum(ppos, 0)])
    # Children on the parent's thread nest and never overlap, so their time
    # adds up; children on other threads overlap and are merged as intervals.
    same = has_parent & ~cross
    covered = np.bincount(ppos[same], weights=dur[same], minlength=n)
    for p in np.unique(ppos[cross]):
        kids = ppos == p
        covered[p] = _union_length(start[kids], end[kids])
    self_time = dur - covered

    def by_name(label):
        return name == names.index(label) if label in names else np.zeros(n, dtype=bool)

    out = {f"{label}.self_s": float(self_time[by_name(label)].sum()) for label in names}
    out["noise.normals"] = int(count[by_name("noise.standard_normal")].sum())
    fft = by_name("field.coeffs_to_values") | by_name("field.values_to_coeffs")
    grid = count[fft]
    out["field.fft_calls"] = int(fft.sum())
    out["field.fft_points"] = int(grid.max()) if grid.size else 0
    # A real FFT of n points per row reads or writes n float64 values and
    # n // 2 + 1 complex128 values.
    out["field.fft_bytes"] = int((rows[fft] * ((grid // 2 + 1) * 16 + grid * 8)).sum())
    ens = by_name("integrator.run_ensemble")
    ens_children = np.isin(ppos, np.flatnonzero(ens))
    busy = float(dur[ens_children].sum())
    out["integrator.parallel_efficiency"] = (
        busy / (float(dur[ens].sum()) * threads) if ens.any() else 0.0
    )
    out["mixing.law_distance.calls"] = int(by_name("mixing.law_distance").sum())
    out["doeblin.validate.calls"] = int(by_name("doeblin.validate").sum())
    root = by_name(ROOT_SPAN)
    out["trace.wall_s"] = float(dur[root].sum())
    out["trace.uncovered_share"] = (
        float(self_time[root].sum()) / out["trace.wall_s"] if root.any() else 0.0
    )
    return out
