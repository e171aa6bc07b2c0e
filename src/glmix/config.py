"""Line-oriented run configuration: [section] headers and key = value pairs.

The format is deliberately flat so any language can parse it: blank lines
and '#' comments are ignored, a line is either a [section] header or a
single key = value pair, and values are scalars or space-separated lists.
Parsing reports the offending line number.  A parsed configuration resolves
every default, and resolved_lines() renders it back in canonical form (repr
floats, fixed key order), so the header block a run writes into its outputs
is sufficient to regenerate the run exactly.

Sections and keys:

  [model]    n_modes, dt, t_final, poly (coefficients p_0..p_q or 'none'),
             alpha, beta, c1, c2, k_star, seed, blowup_guard, and per-mode
             amplitude overrides q0, q1, ...
  [ensemble] ic1, ic2, ... (each 'zero', 'scaled-random:R', or an explicit
             coefficient list), n_traj, gamma, p, times, n_boot
  [doeblin]  kernel (path; load_config and the CLI resolve a relative one
             against the config file's directory), K ('all' or index
             list), m, mu0 ('uniform' or a weight list)
  [odecheck] qs, cs, y0s, ts

The 'scaled-random:R' preset is the fixed pseudo-random direction scaled to
norm R in the gamma = 1 topology; it does not depend on the run seed.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from .field import DriftPolynomial, fmt_float, scaled_random_field
from .integrator import SimulationParams, integer_times
from .noise import NoiseSpectrum

__all__ = ["ConfigError", "RunConfig", "resolve_config", "load_config"]


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
        if kind is int:
            return int(value)
        if kind is float:
            return float(value)
    except ValueError:
        pass
    raise ConfigError(
        f"line {lineno}: key {key!r} expects a {kind.__name__}, got {value!r}"
    )


def _parse_list(kind, value: str, lineno, key: str) -> list:
    toks = value.split()
    if not toks:
        raise ConfigError(f"line {lineno}: key {key!r} expects a nonempty list")
    return [_parse_scalar(kind, tok, lineno, key) for tok in toks]


class _Block:
    """Typed view over one section with unknown-key detection."""

    def __init__(self, name: str, sections: dict[str, _Section], known, patterns=()):
        self.name = name
        self.section = sections.get(name)
        if self.section is not None:
            for key, (_, lineno) in self.section.entries.items():
                if key in known or any(re.fullmatch(p, key) for p in patterns):
                    continue
                raise ConfigError(f"line {lineno}: unknown key {key!r} in [{name}]")

    def raw(self, key: str):
        if self.section is None:
            return None
        return self.section.entries.get(key)

    def scalar(self, key: str, kind, default):
        item = self.raw(key)
        if item is None:
            return default
        return _parse_scalar(kind, item[0], item[1], key)

    def list(self, key: str, kind, default):
        item = self.raw(key)
        if item is None:
            return default
        return _parse_list(kind, item[0], item[1], key)

    def text(self, key: str, default):
        item = self.raw(key)
        return default if item is None else item[0]


@dataclass
class RunConfig:
    """Fully resolved run settings; see the module docstring for the keys."""

    # model
    n_modes: int = 32
    dt: float = 1.0 / 256.0
    t_final: float = 1.0
    poly: list | None = dataclass_field(default_factory=lambda: [0.0, -1.0, 0.0, 1.0])
    alpha: float = 2.0
    beta: float = 2.0
    c1: float = 1.0
    c2: float = 1.0
    k_star: int = 3
    seed: int = 1234
    blowup_guard: float = 1e12
    q_overrides: dict = dataclass_field(default_factory=dict)
    # ensemble
    ics: list = dataclass_field(default_factory=lambda: ["zero"])
    n_traj: int = 100
    gamma: float = 1.0
    p: float = 2.0
    times: list = dataclass_field(default_factory=list)
    n_boot: int = 200
    # doeblin (optional)
    doeblin_kernel: str | None = None
    doeblin_K: str = "all"
    doeblin_m: int = 1
    doeblin_mu0: str = "uniform"
    # odecheck
    ode_qs: list = dataclass_field(default_factory=lambda: [3, 5, 7])
    ode_cs: list = dataclass_field(default_factory=lambda: [1.0])
    ode_y0s: list = dataclass_field(default_factory=lambda: [10.0])
    ode_ts: list = dataclass_field(default_factory=lambda: [0.5])

    def anchor_paths(self, config_path) -> None:
        """Resolve a relative [doeblin] kernel against the directory of the
        config file it was read from; absolute, so headers rerun anywhere."""
        if self.doeblin_kernel is not None and not Path(self.doeblin_kernel).is_absolute():
            self.doeblin_kernel = str((Path(config_path).parent / self.doeblin_kernel).resolve())

    def spectrum(self) -> NoiseSpectrum:
        spectrum = NoiseSpectrum.default(
            self.n_modes, alpha=self.alpha, beta=self.beta,
            c1=self.c1, c2=self.c2, k_star=self.k_star,
        )
        q = spectrum.q.copy()
        for kk, val in self.q_overrides.items():
            if not 0 <= kk <= self.n_modes:
                raise ConfigError(f"q{kk} override is outside 0..n_modes")
            q[kk] = val
        return dataclasses.replace(spectrum, q=q)

    def params(self) -> SimulationParams:
        poly = None if self.poly is None else DriftPolynomial(self.poly)
        return SimulationParams(
            n_modes=self.n_modes, dt=self.dt, t_final=self.t_final, poly=poly,
            spectrum=self.spectrum(), seed=self.seed, blowup_guard=self.blowup_guard,
        )

    def resolved_times(self) -> list[float]:
        if self.times:
            return [float(t) for t in self.times]
        return [float(t) for t in integer_times(self.t_final)[1:]]

    def ic_array(self, i: int) -> np.ndarray:
        spec = self.ics[i]
        n_slots = 2 * self.n_modes + 1
        if spec == "zero":
            return np.zeros(n_slots)
        if spec.startswith("scaled-random:"):
            target = float(spec.partition(":")[2])
            return scaled_random_field(self.n_modes, target, gamma=1.0).coeffs
        return np.array([float(tok) for tok in spec.split()])

    def resolved_lines(self) -> list[str]:
        """Canonical config text, one entry per line, sections separated."""
        lines = [
            "[model]",
            f"n_modes = {self.n_modes}",
            f"dt = {fmt_float(self.dt)}",
            f"t_final = {fmt_float(self.t_final)}",
            "poly = " + ("none" if self.poly is None else " ".join(fmt_float(c) for c in self.poly)),
            f"alpha = {fmt_float(self.alpha)}",
            f"beta = {fmt_float(self.beta)}",
            f"c1 = {fmt_float(self.c1)}",
            f"c2 = {fmt_float(self.c2)}",
            f"k_star = {self.k_star}",
            f"seed = {self.seed}",
            f"blowup_guard = {fmt_float(self.blowup_guard)}",
        ]
        lines += [f"q{k} = {fmt_float(v)}" for k, v in sorted(self.q_overrides.items())]
        lines += ["", "[ensemble]"]
        lines += [f"ic{j + 1} = {spec}" for j, spec in enumerate(self.ics)]
        lines += [
            f"n_traj = {self.n_traj}",
            f"gamma = {fmt_float(self.gamma)}",
            f"p = {fmt_float(self.p)}",
            "times = " + " ".join(fmt_float(t) for t in self.resolved_times()),
            f"n_boot = {self.n_boot}",
        ]
        if self.doeblin_kernel is not None:
            lines += [
                "",
                "[doeblin]",
                f"kernel = {self.doeblin_kernel}",
                f"K = {self.doeblin_K}",
                f"m = {self.doeblin_m}",
                f"mu0 = {self.doeblin_mu0}",
            ]
        lines += [
            "",
            "[odecheck]",
            "qs = " + " ".join(str(q) for q in self.ode_qs),
            "cs = " + " ".join(fmt_float(c) for c in self.ode_cs),
            "y0s = " + " ".join(fmt_float(y) for y in self.ode_y0s),
            "ts = " + " ".join(fmt_float(t) for t in self.ode_ts),
        ]
        return lines


def _canonical_ic(value: str, lineno: int, key: str, n_modes: int) -> str:
    if value == "zero":
        return "zero"
    if value.startswith("scaled-random:"):
        tail = value.partition(":")[2]
        return "scaled-random:" + fmt_float(_parse_scalar(float, tail, lineno, key))
    coeffs = _parse_list(float, value, lineno, key)
    if len(coeffs) != 2 * n_modes + 1:
        raise ConfigError(
            f"line {lineno}: key {key!r} lists {len(coeffs)} coefficients, "
            f"expected {2 * n_modes + 1} for n_modes = {n_modes}"
        )
    return " ".join(fmt_float(c) for c in coeffs)


def _canonical_mu0(value: str, lineno: int) -> str:
    if value == "uniform":
        return "uniform"
    return " ".join(fmt_float(w) for w in _parse_list(float, value, lineno, "mu0"))


def _canonical_K(value: str, lineno: int) -> str:
    if value == "all":
        return "all"
    return " ".join(str(k) for k in _parse_list(int, value, lineno, "K"))


def resolve_config(text: str) -> RunConfig:
    """Parse and fully resolve a configuration, applying every default."""
    sections = parse_config_text(text)
    known_sections = {"model", "ensemble", "doeblin", "odecheck"}
    for name, sec in sections.items():
        if name not in known_sections:
            raise ConfigError(f"line {sec.lineno}: unknown section [{name}]")

    defaults = RunConfig()
    model = _Block("model", sections, {
        "n_modes", "dt", "t_final", "poly", "alpha", "beta", "c1", "c2",
        "k_star", "seed", "blowup_guard",
    }, patterns=(r"q\d+",))
    cfg = RunConfig(
        n_modes=model.scalar("n_modes", int, defaults.n_modes),
        dt=model.scalar("dt", float, defaults.dt),
        t_final=model.scalar("t_final", float, defaults.t_final),
        alpha=model.scalar("alpha", float, defaults.alpha),
        beta=model.scalar("beta", float, defaults.beta),
        c1=model.scalar("c1", float, defaults.c1),
        c2=model.scalar("c2", float, defaults.c2),
        k_star=model.scalar("k_star", int, defaults.k_star),
        seed=model.scalar("seed", int, defaults.seed),
        blowup_guard=model.scalar("blowup_guard", float, defaults.blowup_guard),
    )
    poly_raw = model.raw("poly")
    if poly_raw is not None:
        value, lineno = poly_raw
        cfg.poly = None if value == "none" else _parse_list(float, value, lineno, "poly")
    if model.section is not None:
        for key, (value, lineno) in model.section.entries.items():
            mm = re.fullmatch(r"q(\d+)", key)
            if mm:
                cfg.q_overrides[int(mm.group(1))] = _parse_scalar(float, value, lineno, key)

    ensemble = _Block("ensemble", sections, {"n_traj", "gamma", "p", "times", "n_boot"},
                      patterns=(r"ic\d+",))
    cfg.n_traj = ensemble.scalar("n_traj", int, defaults.n_traj)
    cfg.gamma = ensemble.scalar("gamma", float, defaults.gamma)
    cfg.p = ensemble.scalar("p", float, defaults.p)
    cfg.times = ensemble.list("times", float, [])
    cfg.n_boot = ensemble.scalar("n_boot", int, defaults.n_boot)
    ic_items = []
    if ensemble.section is not None:
        for key, (value, lineno) in ensemble.section.entries.items():
            mm = re.fullmatch(r"ic(\d+)", key)
            if mm:
                ic_items.append((int(mm.group(1)), value, lineno, key))
    if ic_items:
        cfg.ics = [
            _canonical_ic(value, lineno, key, cfg.n_modes)
            for _, value, lineno, key in sorted(ic_items)
        ]

    doeblin = _Block("doeblin", sections, {"kernel", "K", "m", "mu0"})
    if doeblin.section is not None:
        kernel = doeblin.raw("kernel")
        if kernel is None:
            raise ConfigError(
                f"line {doeblin.section.lineno}: [doeblin] requires a kernel path"
            )
        cfg.doeblin_kernel = kernel[0]
        k_raw = doeblin.raw("K")
        cfg.doeblin_K = "all" if k_raw is None else _canonical_K(k_raw[0], k_raw[1])
        cfg.doeblin_m = doeblin.scalar("m", int, 1)
        mu_raw = doeblin.raw("mu0")
        cfg.doeblin_mu0 = "uniform" if mu_raw is None else _canonical_mu0(mu_raw[0], mu_raw[1])

    ode = _Block("odecheck", sections, {"qs", "cs", "y0s", "ts"})
    cfg.ode_qs = ode.list("qs", int, defaults.ode_qs)
    cfg.ode_cs = ode.list("cs", float, defaults.ode_cs)
    cfg.ode_y0s = ode.list("y0s", float, defaults.ode_y0s)
    cfg.ode_ts = ode.list("ts", float, defaults.ode_ts)

    for key, least in (("n_traj", 1), ("n_boot", 0)):  # the defaults pass
        if getattr(cfg, key) < least:
            raise ConfigError(f"line {ensemble.raw(key)[1]}: {key} must be at least {least}")
    return cfg


def load_config(path) -> RunConfig:
    """Read and resolve a config file, its kernel path anchored to the file."""
    with open(path) as fh:
        cfg = resolve_config(fh.read())
    cfg.anchor_paths(path)
    return cfg
