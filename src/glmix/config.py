"""Line-oriented run configuration: [section] headers and key = value pairs.

The format is deliberately flat so any language can parse it: blank lines
and '#' comments are ignored, a line is either a [section] header or a
single key = value pair, and values are scalars or space-separated lists.
Parsing reports the offending line number.  A parsed configuration resolves
every default, and resolved_lines() renders it back in canonical form (repr
floats, fixed key order), so the header block a run writes into its outputs
is sufficient to regenerate the run exactly.

Each plain key is declared once, as a RunConfig field with its section,
default, reader and writer, and the key table _SECTIONS is built from those
fields; the library objects a run builds hold no defaults of their own.
Two keys follow a pattern: q<k> in [model] overrides the noise amplitude
of mode k (0 <= k <= n_modes), and ic<k> in [ensemble] is a start: 'zero',
'scaled-random:R', or an explicit list of 2 n_modes + 1 coefficients.
Each index appears once (q1 and q01 clash).  resolve_config builds the
model, RunConfig.model, and checks gamma, p and the report times against
it, so all five subcommands refuse the same configs.  The rows of n_boot,
[doeblin] K, m and mu0 and the [odecheck] grid only parse: the library call
that reads such a value checks it, so only the subcommand that reads it
refuses it.  Either way the check lives in the library, and
RunConfig.refusal names the line of the key it refuses.
RunConfig.anchor_paths, which the CLI calls, resolves a relative [doeblin]
kernel path against the config file's directory.

The 'scaled-random:R' preset is the fixed pseudo-random direction scaled to
norm R in the gamma = 1 topology; it does not depend on the run seed.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field as dataclass_field, fields
from pathlib import Path

import numpy as np

from .field import DriftPolynomial, SettingError, block_text, fmt_value, scaled_random_field
from .integrator import SimulationParams, integer_times, record_steps
from .mixing import check_weighting
from .noise import NoiseSpectrum

__all__ = ["ConfigError", "RunConfig", "resolve_config"]


class ConfigError(ValueError):
    """Configuration problem, with a line number when one applies."""


@dataclass
class _Section:
    lineno: int
    entries: dict  # key -> (value string, line number)


def parse_config_text(text: str) -> dict[str, _Section]:
    """Split config text into sections of raw key/value strings."""
    sections: dict[str, _Section] = {}
    current: _Section | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise ConfigError(f"line {lineno}: malformed section header {raw.strip()!r}")
            name = line[1:-1].strip()
            if name in sections:
                raise ConfigError(f"line {lineno}: duplicate section [{name}]")
            current = _Section(lineno, {})
            sections[name] = current
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in current.entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        current.entries[key] = (value, lineno)
    return sections


def _parse_scalar(kind, value: str, lineno, key: str):
    try:
        return kind(value)  # int or float
    except ValueError:
        raise ConfigError(f"line {lineno}: key {key!r} expects a {kind.__name__}, "
                          f"got {value!r}") from None


def _parse_list(kind, value: str, lineno, key: str) -> list:
    toks = value.split()
    if not toks:
        raise ConfigError(f"line {lineno}: key {key!r} expects a nonempty list")
    return [_parse_scalar(kind, tok, lineno, key) for tok in toks]


def _row(kind, many=False, word=None, check=None):
    """(reader, writer) of an int or float, or of a nonempty list of them if
    many; word, if given, stands for None.  check(values, lineno, key) vets
    what was read, raising ConfigError."""

    def read(value, lineno, key):
        if value == word:
            return None
        out = (_parse_list if many else _parse_scalar)(kind, value, lineno, key)
        if check is not None:
            check(out if many else [out], lineno, key)
        return out

    return read, lambda value: word if value is None else fmt_value(value)


def _finite(values, lineno, key):
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"line {lineno}: {key} must be finite")


def _at_least_one(values, lineno, key):
    if min(values) < 1:
        raise ConfigError(f"line {lineno}: {key} must be at least 1")


def _path(value, lineno, key):
    if not value:
        raise ConfigError(f"line {lineno}: key {key!r} expects a path")
    return value


def _setting(section: str, default, rw, key: str | None = None):
    """A RunConfig field: key (the field's name if None) of [section], read
    and written by the (reader, writer) pair rw.  A reader takes (value
    text, line number, key) and returns the value or raises ConfigError
    naming the line; a writer turns the value into its canonical text."""
    meta = {"section": section, "key": key, "rw": rw}
    if isinstance(default, list):
        return dataclass_field(default_factory=default.copy, metadata=meta)
    return dataclass_field(default=default, metadata=meta)


@dataclass
class RunConfig:
    """Fully resolved run settings, each declared once: a field made by
    _setting is a plain key; q_overrides and ics hold q<k> and ic<k>."""

    n_modes: int = _setting("model", 32, _row(int))
    dt: float = _setting("model", 1.0 / 256.0, _row(float))
    t_final: float = _setting("model", 1.0, _row(float))
    poly: list | None = _setting(  # None: no drift polynomial
        "model", [0.0, -1.0, 0.0, 1.0], _row(float, many=True, word="none"))
    alpha: float = _setting("model", 2.0, _row(float))
    beta: float = _setting("model", 2.0, _row(float))
    c1: float = _setting("model", 1.0, _row(float))
    c2: float = _setting("model", 1.0, _row(float))
    k_star: int = _setting("model", 3, _row(int))
    seed: int = _setting("model", 1234, _row(int))
    blowup_guard: float = _setting("model", 1e12, _row(float))
    q_overrides: dict = dataclass_field(default_factory=dict)
    ics: list = dataclass_field(default_factory=lambda: ["zero"])
    n_traj: int = _setting("ensemble", 100, _row(int, check=_at_least_one))
    gamma: float = _setting("ensemble", 1.0, _row(float, check=_finite))
    p: float = _setting("ensemble", 2.0, _row(float, check=_finite))
    # written from resolved_times()
    times: list = _setting("ensemble", [], _row(float, many=True, check=_finite))
    n_boot: int = _setting("ensemble", 200, _row(int))
    doeblin_kernel: str | None = _setting("doeblin", None, (_path, fmt_value), "kernel")
    doeblin_K: list | None = _setting(  # None: all states
        "doeblin", None, _row(int, many=True, word="all"), "K")
    doeblin_m: int = _setting("doeblin", 1, _row(int), "m")
    doeblin_mu0: list | None = _setting(  # None: uniform
        "doeblin", None, _row(float, many=True, word="uniform"), "mu0")
    ode_qs: list = _setting("odecheck", [3, 5, 7], _row(int, many=True), "qs")
    ode_cs: list = _setting("odecheck", [1.0], _row(float, many=True), "cs")
    ode_y0s: list = _setting("odecheck", [10.0], _row(float, many=True), "y0s")
    ode_ts: list = _setting("odecheck", [0.5], _row(float, many=True), "ts")
    # key -> line number of each key the file sets, q<k> and ic<k> as the
    # header writes them (no two sections share a key)
    lines: dict = dataclass_field(default_factory=dict, compare=False, repr=False)
    model: SimulationParams | None = dataclass_field(  # params(), as resolve_config built it
        default=None, init=False, compare=False, repr=False)

    def anchor_paths(self, config_path) -> None:
        """Resolve a relative [doeblin] kernel against the directory of the
        config file it was read from; absolute, so headers rerun anywhere."""
        if self.doeblin_kernel is not None and not Path(self.doeblin_kernel).is_absolute():
            self.doeblin_kernel = str((Path(config_path).parent / self.doeblin_kernel).resolve())

    def spectrum(self) -> NoiseSpectrum:
        return NoiseSpectrum.default(
            self.n_modes, alpha=self.alpha, beta=self.beta, c1=self.c1, c2=self.c2,
            k_star=self.k_star, overrides=self.q_overrides,
        )

    def params(self) -> SimulationParams:
        poly = None if self.poly is None else DriftPolynomial(self.poly)
        return SimulationParams(
            spectrum=self.spectrum(), dt=self.dt, t_final=self.t_final, poly=poly,
            seed=self.seed, blowup_guard=self.blowup_guard,
        )

    def refusal(self, err: SettingError) -> ConfigError:
        """err naming the line of the first of its keys the file sets."""
        keys = (err.key,) if isinstance(err.key, str) else err.key
        line = next((f"line {self.lines[k]}: " for k in keys if k in self.lines), "")
        return ConfigError(f"{line}{err}")

    def resolved_times(self) -> list[float]:
        return [float(t) for t in (self.times or integer_times(self.t_final)[1:])]

    def ic_array(self, i: int) -> np.ndarray:
        spec = self.ics[i]
        n_slots = 2 * self.n_modes + 1
        if spec == "zero":
            return np.zeros(n_slots)
        if spec.startswith("scaled-random:"):
            target = float(spec.partition(":")[2])
            return scaled_random_field(self.n_modes, target, gamma=1.0)
        return np.array([float(tok) for tok in spec.split()])

    def resolved_lines(self) -> list[str]:
        """Canonical config text, one entry per line, sections separated."""
        lines = []
        for name, rows in _SECTIONS.items():
            if name == "doeblin" and self.doeblin_kernel is None:
                continue
            starts = self.ics if name == "ensemble" else []  # before the plain keys
            values = {f"ic{j + 1}": ic for j, ic in enumerate(starts)}
            values.update(
                (key, write(self.resolved_times() if key == "times" else getattr(self, attr)))
                for key, (attr, _, write) in rows.items())
            if name == "model":
                values.update((f"q{k}", v) for k, v in sorted(self.q_overrides.items()))
            lines += ["", f"[{name}]", *block_text(values).splitlines()]
        return lines[1:]


# Every plain key: section -> {key: (RunConfig attribute, reader, writer)},
# in header order.  q<k> and ic<k> need n_modes, so resolve_config reads them
# after every plain key; the header has them after the [model] keys and
# before the [ensemble] keys.
_SECTIONS: dict[str, dict] = {}
for _f in fields(RunConfig):
    if _f.metadata:
        _SECTIONS.setdefault(_f.metadata["section"], {})[_f.metadata["key"] or _f.name] = (
            _f.name, *_f.metadata["rw"])
_PATTERN_KEYS = {"model": re.compile(r"q(\d+)"), "ensemble": re.compile(r"ic(\d+)")}


def _canonical_ic(value: str, lineno: int, key: str, n_modes: int) -> str:
    if value == "zero":
        return "zero"
    if value.startswith("scaled-random:"):
        radius = _parse_scalar(float, value.partition(":")[2], lineno, key)
        if not 0 <= radius < math.inf:  # NaN included
            raise ConfigError(f"line {lineno}: key {key!r} has a radius that is "
                              "not finite and nonnegative")
        return "scaled-random:" + fmt_value(radius)
    coeffs = _parse_list(float, value, lineno, key)
    if len(coeffs) != 2 * n_modes + 1:
        raise ConfigError(
            f"line {lineno}: key {key!r} lists {len(coeffs)} coefficients, "
            f"expected {2 * n_modes + 1} for n_modes = {n_modes}"
        )
    if not all(map(math.isfinite, coeffs)):
        raise ConfigError(f"line {lineno}: key {key!r} lists a non-finite coefficient")
    return fmt_value(coeffs)


def resolve_config(text: str) -> RunConfig:
    """Parse and fully resolve a configuration, applying every default."""
    sections = parse_config_text(text)
    for name, sec in sections.items():
        if name not in _SECTIONS:
            raise ConfigError(f"line {sec.lineno}: unknown section [{name}]")

    cfg = RunConfig()
    indexed = {name: {} for name in _PATTERN_KEYS}  # k -> (value, line, key) of q<k>, ic<k>
    for name, rows in _SECTIONS.items():
        sec = sections.get(name)
        if sec is None:
            continue
        for key, (value, lineno) in sec.entries.items():
            if key in rows:
                cfg.lines[key] = lineno
                attr, read, _ = rows[key]
                setattr(cfg, attr, read(value, lineno, key))
                continue
            mm = name in _PATTERN_KEYS and _PATTERN_KEYS[name].fullmatch(key)
            if not mm:
                raise ConfigError(f"line {lineno}: unknown key {key!r} in [{name}]")
            k = int(mm.group(1))
            if k in indexed[name]:
                _, first, other = indexed[name][k]
                raise ConfigError(f"line {lineno}: key {key!r} repeats index {k} "
                                  f"of {other!r} on line {first}")
            indexed[name][k] = (value, lineno, key)
        if name == "doeblin" and "kernel" not in sec.entries:
            raise ConfigError(f"line {sec.lineno}: [doeblin] requires a kernel path")

    for k, (value, lineno, key) in indexed["model"].items():
        cfg.q_overrides[k] = _parse_scalar(float, value, lineno, key)
        cfg.lines[f"q{k}"] = lineno
        if k > cfg.n_modes:
            raise ConfigError(f"line {lineno}: {key} override is outside 0..n_modes "
                              f"= {cfg.n_modes}")
    try:
        cfg.model = cfg.params()
        check_weighting(cfg.gamma, cfg.p, cfg.model)
        record_steps(cfg.times, cfg.model)  # the default integer times are on the grid
    except SettingError as err:
        raise cfg.refusal(err) from None
    starts = [start for _, start in sorted(indexed["ensemble"].items())]
    if starts:
        cfg.ics = [_canonical_ic(*start, cfg.n_modes) for start in starts]
    cfg.lines.update((f"ic{j + 1}", lineno) for j, (_, lineno, _) in enumerate(starts))
    return cfg
