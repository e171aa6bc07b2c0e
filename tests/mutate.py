"""Mutation testing: can the tests of a module notice a one-token change to it?

    python tests/mutate.py doeblin [--jobs 2]
    python tests/mutate.py src/glmix/field.py -- tests/test_field.py -k sup

A mutant is the module with one operator or constant changed:

- a comparison swapped: < and <=, > and >=, == and != into each other;
- a boolean operator swapped, and into or and or into and, or a not dropped;
- an arithmetic operator swapped, + into - and - into +, += and -= too;
- a numeric constant c made c + 1 and 2c (one mutant when the two agree,
  none when both equal c).

Each mutant is written into a fresh temporary copy of src/, put first on
PYTHONPATH, and the test selection runs on it under pytest -x with a
timeout; the checkout is never written.  Subprocesses that tests start take
PYTHONPATH from glmix.__file__, so they import the mutant too.  pytest runs
in the temporary directory with bytecode writing off, so neither its cache,
hypothesis's example database nor a .pyc lands in the checkout.  A mutant is
killed when the selection fails, errors (an import the mutant breaks
included) or runs past the timeout; it survives when every selected test
passes.  Each survivor is printed with its line and change.

The selection must pass on the unchanged copy first; the timeout is four
times that run plus 30 s.  A named module (doeblin, mixing, integrator or
config) takes its unit-test file and the test_cli.py tests of the
subcommands that run it; any other module needs its pytest arguments after
--.  This is not part of the tier-1 suite (pytest does not collect it): a
module takes minutes.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# module -> pytest arguments: its unit tests, then the CLI tests of the
# subcommands that run it (-k also matches the unit file's name)
SELECTIONS = {
    "doeblin": ["tests/test_doeblin.py", "tests/test_cli.py", "-k",
                "doeblin or kernel or m_whose or column_minima or mu0"],
    "mixing": ["tests/test_mixing.py", "tests/test_cli.py", "-k",
               "mixing or moments or whole_ensemble or n_boot or p_below or norms_whose "
               "or no_guard"],
    "integrator": ["tests/test_integrator.py", "tests/test_cli.py", "-k",
                   "integrator or simulate or odecheck or guard or whole_ensemble or diverge "
                   "or noise_that or step_count or t_final or seed"],
    "config": ["tests/test_config.py", "tests/test_cli.py", "-k",
               "config or line or refuse or header or exit_two or out_that"],
}

_COMPARE_SWAP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
                 ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
_ARITH_SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add}
_SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
           ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-", ast.And: "and", ast.Or: "or"}


@dataclass(frozen=True)
class Mutant:
    line: int
    change: str  # e.g. "< -> <=", "1.0 -> 2.0", "not dropped"
    source: str  # the whole mutated module


def _offsets(data: bytes) -> list[int]:
    """Byte offset of the start of each line, 1-based by index (ast's
    col_offset counts UTF-8 bytes)."""
    starts = [0, 0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def _skipped(tree: ast.AST) -> set[int]:
    """ids of nodes never mutated: annotations (strings under
    `from __future__ import annotations`), f-strings and __all__."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots += [a.annotation for a in (*node.args.args, *node.args.kwonlyargs,
                                             *node.args.posonlyargs) if a.annotation]
            roots.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
        elif isinstance(node, ast.JoinedStr):
            roots.append(node)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            roots.append(node)
    return {id(n) for root in roots if root is not None for n in ast.walk(root)}


def _variants(node: ast.AST):
    """(change, replacement node) pairs for one mutable expression node."""
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in _COMPARE_SWAP:
                new = _COMPARE_SWAP[type(op)]
                ops = node.ops[:i] + [new()] + node.ops[i + 1:]
                yield (f"{_SYMBOL[type(op)]} -> {_SYMBOL[new]}",
                       ast.Compare(left=node.left, ops=ops, comparators=node.comparators))
    elif isinstance(node, ast.BoolOp):
        new = ast.Or if isinstance(node.op, ast.And) else ast.And
        yield (f"{_SYMBOL[type(node.op)]} -> {_SYMBOL[new]}",
               ast.BoolOp(op=new(), values=node.values))
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield "not dropped", node.operand
    elif isinstance(node, ast.BinOp) and type(node.op) in _ARITH_SWAP:
        new = _ARITH_SWAP[type(node.op)]
        yield (f"{_SYMBOL[type(node.op)]} -> {_SYMBOL[new]}",
               ast.BinOp(left=node.left, op=new(), right=node.right))
    elif (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
          and not isinstance(node.value, bool)):
        seen = {node.value}
        for value in (node.value + 1, 2 * node.value):
            if value not in seen:
                seen.add(value)
                yield f"{node.value!r} -> {value!r}", ast.Constant(value)


def mutants(source: str) -> list[Mutant]:
    """Every single-change mutant of source, in source order.

    An expression is replaced by the parenthesized unparse of its mutated
    node, so the rest of the file keeps its bytes; an augmented assignment
    has its operator token rewritten in place."""
    tree = ast.parse(source)
    skip = _skipped(tree)
    data = source.encode()
    starts = _offsets(data)
    out = []
    for node in ast.walk(tree):
        if id(node) in skip or not hasattr(node, "lineno"):
            continue
        lo = starts[node.lineno] + node.col_offset
        hi = starts[node.end_lineno] + node.end_col_offset
        if isinstance(node, ast.AugAssign) and type(node.op) in _ARITH_SWAP:
            # the operator token sits between the target and the value
            t_end = starts[node.target.end_lineno] + node.target.end_col_offset
            v_start = starts[node.value.lineno] + node.value.col_offset
            old = _SYMBOL[type(node.op)] + "="
            new = _SYMBOL[_ARITH_SWAP[type(node.op)]] + "="
            at = data.index(old.encode(), t_end, v_start)
            text = (data[:at] + new.encode() + data[at + len(old):]).decode()
            out.append(Mutant(node.lineno, f"{old} -> {new}", text))
            continue
        for change, replacement in _variants(node):
            text = "(" + ast.unparse(replacement) + ")"
            mutated = data[:lo] + text.encode() + data[hi:]
            out.append(Mutant(node.lineno, change, mutated.decode()))
    out.sort(key=lambda m: m.line)  # stable: one line's mutants keep walk order
    return out


def _run_pytest(src: Path, module_rel: Path, text: str | None, pytest_args: list[str],
                timeout: float) -> tuple[str, float]:
    """Run the selection on a temporary copy of src with module_rel replaced
    by text (unchanged if None); ("passed" | "failed" | "error" | "timeout",
    seconds)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / src.name
        shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
        if text is not None:
            (copy / module_rel).write_text(text)
        path = os.pathsep.join(filter(None, [str(copy), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=path)
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "-W", "error::RuntimeWarning", *pytest_args]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL, start_new_session=True)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:  # timed out or interrupted
                os.killpg(proc.pid, signal.SIGKILL)  # the tests' own subprocesses too
                proc.wait()
    seconds = time.perf_counter() - t0
    return "timeout" if code is None else {0: "passed", 1: "failed"}.get(code, "error"), seconds


def run(module: Path, pytest_args: list[str], src: Path = REPO / "src", jobs: int = 1,
        out=sys.stdout) -> list:
    """Run every mutant of module (a file under src) against pytest_args,
    whose paths are absolute or relative to the repo root; a list of
    (Mutant, "survived" | "killed (failed|error|timeout)", seconds)."""
    module, src = Path(module).resolve(), Path(src).resolve()
    rel = module.relative_to(src)
    args = [str(REPO / a) if a.startswith("tests/") else a for a in pytest_args]
    outcome, base = _run_pytest(src, rel, None, args, 3600.0)
    if outcome != "passed":
        raise SystemExit(f"the selection does not pass on the unchanged module ({outcome})")
    timeout = 4.0 * base + 30.0
    todo = mutants(module.read_text())
    print(f"{module.name}: {len(todo)} mutants, selection {base:.1f} s, timeout {timeout:.0f} s",
          file=out, flush=True)
    source_lines = module.read_text().splitlines()

    def one(m: Mutant):
        outcome, seconds = _run_pytest(src, rel, m.source, args, timeout)
        if outcome == "passed":
            print(f"SURVIVED {module.name}:{m.line}: {m.change}    "
                  f"{source_lines[m.line - 1].strip()}", file=out, flush=True)
        return m, ("survived" if outcome == "passed" else f"killed ({outcome})"), seconds

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(one, todo))
    killed = sum(r[1] != "survived" for r in results)
    print(f"{module.name}: killed {killed}, survived {len(results) - killed} of {len(results)}",
          file=out, flush=True)
    return results


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # everything after -- goes to pytest untouched, options included
    cut = argv.index("--") if "--" in argv else len(argv)
    argv, pytest_args = argv[:cut], argv[cut + 1:]
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        usage="%(prog)s module [--jobs N] [-- pytest arguments]")
    parser.add_argument("module", help="doeblin, mixing, integrator, config, or a path under src/")
    parser.add_argument("--jobs", type=int, default=1, help="mutants run at once")
    args = parser.parse_args(argv)
    if args.module in SELECTIONS:
        module, selection = REPO / "src" / "glmix" / f"{args.module}.py", SELECTIONS[args.module]
    else:
        module, selection = Path(args.module), []
    selection = pytest_args or selection
    if not selection:
        parser.error(f"{args.module} has no named selection: give pytest arguments after --")
    run(module, selection, jobs=args.jobs)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
