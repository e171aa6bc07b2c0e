"""tests/mutate.py on a toy module: its mutants, its verdicts, and a clean tree."""

import hashlib
import io
from pathlib import Path

import mutate

TOY = '''\
"""A toy module."""

assert not None


def step(n):
    if n > 0:
        n = n - 1
    return n


def small(x):
    return x < 10


def either(a, b, c):
    b += c
    return a and not b


def same(a, b):
    return a == b or a >= 2.5
'''

# (line, change) of every mutant, in source order; the constant 0 has one
# mutant, since 2 * 0 = 0
WANT = [
    (3, "not dropped"),
    (7, "> -> >="), (7, "0 -> 1"),
    (8, "- -> +"), (8, "1 -> 2"),
    (13, "< -> <="), (13, "10 -> 11"), (13, "10 -> 20"),
    (17, "+= -> -="),
    (18, "and -> or"), (18, "not dropped"),
    (22, "or -> and"), (22, "== -> !="), (22, ">= -> >"), (22, "2.5 -> 3.5"), (22, "2.5 -> 5.0"),
]


def test_each_site_gets_each_of_its_changes_once():
    found = mutate.mutants(TOY)
    assert [(m.line, m.change) for m in found] == WANT
    assert len({m.source for m in found}) == len(found)
    for m in found:
        compile(m.source, "toy.py", "exec")
        changed = [(a, b) for a, b in zip(TOY.splitlines(), m.source.splitlines()) if a != b]
        assert len(changed) == 1 and changed[0][0] == TOY.splitlines()[m.line - 1]
    by_change = {(m.line, m.change): m.source.splitlines()[m.line - 1] for m in found}
    assert by_change[(3, "not dropped")] == "assert (None)"
    assert by_change[(7, "> -> >=")] == "    if (n >= 0):"
    assert by_change[(8, "- -> +")] == "        n = (n + 1)"
    assert by_change[(13, "10 -> 20")] == "    return x < (20)"
    assert by_change[(17, "+= -> -=")] == "    b -= c"
    assert by_change[(18, "and -> or")] == "    return (a or not b)"
    assert by_change[(18, "not dropped")] == "    return a and (b)"
    assert by_change[(22, "or -> and")] == "    return (a == b and a >= 2.5)"
    assert by_change[(22, "== -> !=")] == "    return (a != b) or a >= 2.5"
    assert by_change[(22, ">= -> >")] == "    return a == b or (a > 2.5)"
    assert by_change[(22, "2.5 -> 5.0")] == "    return a == b or a >= (5.0)"


def tree_bytes(root):
    return {p: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_verdicts_and_a_checkout_left_byte_identical(tmp_path):
    # the toy's first nine lines: each kind of verdict at the fewest runs
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "toy.py").write_text("".join(TOY.splitlines(keepends=True)[:9]))
    (tmp_path / "test_toy.py").write_text(
        "import toy\n\n\n"
        "def test_toy():\n"
        "    assert toy.step(3) == 2 and toy.step(0) == 0\n")
    before = tree_bytes(tmp_path)
    out = io.StringIO()
    # the plugins alone would take most of each toy run.  No toy
    # mutant runs long, so the timeout, four times the clean run plus 30 s,
    # is never reached.
    results = mutate.run(tmp_path / "src" / "toy.py",
                        [str(tmp_path / "test_toy.py"), "-p", "no:hypothesispytest",
                         "-p", "no:benchmark"], src=tmp_path / "src", jobs=2, out=out)
    assert tree_bytes(tmp_path) == before
    verdict = {(m.line, m.change): v for m, v, _ in results}
    # a failed import is an error, and step(3), step(0) do not tell n > 0 from n > 1
    assert verdict == {
        (3, "not dropped"): "killed (error)",
        (7, "> -> >="): "killed (failed)", (7, "0 -> 1"): "survived",
        (8, "- -> +"): "killed (failed)", (8, "1 -> 2"): "killed (failed)",
    }
    text = out.getvalue()
    assert "SURVIVED toy.py:7: 0 -> 1    if n > 0:" in text
    assert text.splitlines()[-1] == "toy.py: killed 4, survived 1 of 5"


def test_a_run_past_the_timeout_is_cut_and_its_mutant_killed(tmp_path, monkeypatch):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "toy.py").write_text(TOY)
    (tmp_path / "test_sleep.py").write_text(
        "import time\n\n\n"
        "def test_sleep():\n"
        "    time.sleep(60)\n")
    before = tree_bytes(tmp_path)
    outcome, seconds = mutate._run_pytest(
        tmp_path / "src", Path("toy.py"), None,
        [str(tmp_path / "test_sleep.py"), "-p", "no:hypothesispytest"], timeout=0.5)
    assert outcome == "timeout" and seconds < 30.0
    assert tree_bytes(tmp_path) == before
    # the clean run passes and every mutant's run times out
    monkeypatch.setattr(mutate, "_run_pytest", lambda src, rel, text, args, timeout:
                        ("passed" if text is None else "timeout", 0.1))
    results = mutate.run(tmp_path / "src" / "toy.py", [], src=tmp_path / "src",
                         out=io.StringIO())
    assert {v for _, v, _ in results} == {"killed (timeout)"}


def test_the_named_modules_have_selections_and_mutants():
    root = Path(mutate.__file__).parents[1]
    for name, args in mutate.SELECTIONS.items():
        assert (root / args[0]).name == f"test_{name}.py"
        assert mutate.mutants((root / "src" / "glmix" / f"{name}.py").read_text())


def test_command_line_passes_everything_after_the_dashes_to_pytest(monkeypatch):
    calls = []
    monkeypatch.setattr(mutate, "run", lambda *args, **kw: calls.append((args, kw)))
    mutate.main(["src/glmix/field.py", "--", "tests/test_field.py", "-k", "sup"])
    mutate.main(["config", "--jobs", "2"])
    assert calls == [
        ((Path("src/glmix/field.py"), ["tests/test_field.py", "-k", "sup"]),
         {"jobs": 1}),
        ((mutate.REPO / "src" / "glmix" / "config.py",
          mutate.SELECTIONS["config"]), {"jobs": 2}),
    ]
