"""Tests for the line-oriented run configuration and its canonical form."""

import numpy as np
import pytest

from glmix.config import ConfigError, RunConfig, load_config, resolve_config
from glmix.field import scaled_random_field
from glmix.noise import NoiseSpectrum


def test_empty_text_resolves_to_defaults():
    cfg = resolve_config("")
    assert cfg == RunConfig()
    assert cfg.n_modes == 32 and cfg.dt == 1.0 / 256.0 and cfg.t_final == 1.0
    assert cfg.poly == [0.0, -1.0, 0.0, 1.0]
    assert cfg.ics == ["zero"] and cfg.n_traj == 100
    assert cfg.ode_qs == [3, 5, 7] and cfg.ode_ts == [0.5]
    assert cfg.doeblin_kernel is None


def test_resolved_lines_round_trip_is_canonical():
    text = """
# comment survives nothing; only structure matters
[model]
n_modes = 8
dt = 0.015625
t_final = 2
beta = 1.9375
q2 = 0.5
q10 = 0.125

[ensemble]
ic2 = scaled-random:100
ic1 = zero
n_traj = 40
gamma = 0.5
times = 1 2

[odecheck]
qs = 3 5
"""
    cfg = resolve_config(text)
    lines = cfg.resolved_lines()
    again = resolve_config("\n".join(lines))
    assert again == cfg
    assert again.resolved_lines() == lines
    # canonical ordering and formatting facts
    assert "q2 = 0.5" in lines and lines.index("q2 = 0.5") < lines.index("q10 = 0.125")
    assert "ic1 = zero" in lines and "ic2 = scaled-random:100.0" in lines
    assert "beta = 1.9375" in lines
    assert "times = 1.0 2.0" in lines


def test_parse_error_line_numbers():
    with pytest.raises(ConfigError, match="line 1: malformed section header"):
        resolve_config("[model\n")
    with pytest.raises(ConfigError, match=r"line 3: duplicate section \[model\]"):
        resolve_config("[model]\nn_modes = 4\n[model]\n")
    with pytest.raises(ConfigError, match="line 2: expected 'key = value'"):
        resolve_config("[model]\nnonsense\n")
    with pytest.raises(ConfigError, match="line 1: key outside any"):
        resolve_config("n_modes = 4\n")
    with pytest.raises(ConfigError, match="line 2: empty key"):
        resolve_config("[model]\n= 3\n")
    with pytest.raises(ConfigError, match="line 3: duplicate key 'dt'"):
        resolve_config("[model]\ndt = 0.5\ndt = 0.25\n")
    with pytest.raises(ConfigError, match="line 2: unknown key 'bogus'"):
        resolve_config("[model]\nbogus = 1\n")
    with pytest.raises(ConfigError, match=r"line 1: unknown section \[junk\]"):
        resolve_config("[junk]\n")
    with pytest.raises(ConfigError, match="expects a int"):
        resolve_config("[model]\nn_modes = eight\n")
    with pytest.raises(ConfigError, match="expects a float"):
        resolve_config("[model]\ndt = tiny\n")
    with pytest.raises(ConfigError, match="nonempty list"):
        resolve_config("[ensemble]\ntimes =\n")
    with pytest.raises(ConfigError, match=r"\[doeblin\] requires a kernel path"):
        resolve_config("[doeblin]\nm = 2\n")
    with pytest.raises(ConfigError, match="n_traj must be at least 1"):
        resolve_config("[ensemble]\nn_traj = 0\n")


def test_ic_canonicalization_and_errors():
    cfg = resolve_config("[model]\nn_modes = 1\n[ensemble]\nic1 = 1 0.5 0.25\n")
    assert cfg.ics == ["1.0 0.5 0.25"]
    assert np.array_equal(cfg.ic_array(0), [1.0, 0.5, 0.25])
    with pytest.raises(ConfigError, match="lists 3 coefficients, expected 5 for n_modes = 2"):
        resolve_config("[model]\nn_modes = 2\n[ensemble]\nic1 = 1 0.5 0.25\n")
    cfg = resolve_config("[ensemble]\nic1 = scaled-random:50\nic2 = zero\n")
    assert np.array_equal(cfg.ic_array(0), scaled_random_field(32, 50.0, 1.0).coeffs)
    assert np.array_equal(cfg.ic_array(1), np.zeros(65))


def test_spectrum_matches_default_and_overrides():
    cfg = resolve_config("")
    spec = cfg.spectrum()
    base = NoiseSpectrum.default(32)
    assert np.array_equal(spec.q, base.q)
    assert (spec.alpha, spec.beta, spec.c1, spec.c2, spec.k_star) == (2.0, 2.0, 1.0, 1.0, 3)
    cfg = resolve_config("[model]\nn_modes = 8\nq5 = 0.5\nq0 = 0.25\n")
    q = cfg.spectrum().q
    assert q[5] == 0.5 and q[0] == 0.25
    assert q[4] == 4.0**-4.0
    bad = resolve_config("[model]\nn_modes = 8\nq80 = 0.5\n")
    with pytest.raises(ConfigError, match="outside"):
        bad.spectrum()


def test_poly_none_and_params():
    cfg = resolve_config("[model]\npoly = none\n")
    assert cfg.poly is None
    assert "poly = none" in cfg.resolved_lines()
    params = cfg.params()
    assert params.poly is None and params.n_modes == 32
    default_params = resolve_config("").params()
    assert default_params.poly is not None
    assert list(default_params.poly.coeffs) == [0.0, -1.0, 0.0, 1.0]
    assert default_params.seed == 1234


def test_resolved_times():
    assert resolve_config("").resolved_times() == [1.0]
    cfg = resolve_config("[model]\nt_final = 3\n")
    assert cfg.resolved_times() == [1.0, 2.0, 3.0]
    cfg = resolve_config("[ensemble]\ntimes = 0.5 1.5\n")
    assert cfg.resolved_times() == [0.5, 1.5]


def test_doeblin_section_canonicalization():
    text = "[doeblin]\nkernel = data/k.txt\nK = 1 0\nm = 2\nmu0 = 0.5 0.5\n"
    cfg = resolve_config(text)
    assert cfg.doeblin_kernel == "data/k.txt"
    assert cfg.doeblin_K == "1 0"
    assert cfg.doeblin_m == 2 and cfg.doeblin_mu0 == "0.5 0.5"
    lines = cfg.resolved_lines()
    assert "[doeblin]" in lines and "kernel = data/k.txt" in lines
    # defaults when only the kernel is given
    cfg = resolve_config("[doeblin]\nkernel = k.txt\n")
    assert cfg.doeblin_K == "all" and cfg.doeblin_m == 1
    assert cfg.doeblin_mu0 == "uniform"
    # no doeblin block in canonical output when absent
    assert "[doeblin]" not in resolve_config("").resolved_lines()


def test_load_config(tmp_path, monkeypatch):
    path = tmp_path / "run.cfg"
    path.write_text("[model]\nn_modes = 4\nseed = 9\n")
    cfg = load_config(path)
    assert cfg.n_modes == 4 and cfg.seed == 9
    # a relative kernel path is read against the config file, not the
    # working directory: config in cfg/, kernel in data/, read from elsewhere
    (tmp_path / "cfg").mkdir()
    (tmp_path / "data").mkdir()
    (tmp_path / "work").mkdir()
    kernel = tmp_path / "data" / "k.txt"
    (tmp_path / "cfg" / "run.cfg").write_text("[doeblin]\nkernel = ../data/k.txt\n")
    monkeypatch.chdir(tmp_path / "work")
    cfg = load_config("../cfg/run.cfg")
    assert cfg.doeblin_kernel == str(kernel.resolve())
    # an absolute path is kept as written
    (tmp_path / "cfg" / "abs.cfg").write_text(f"[doeblin]\nkernel = {kernel}\n")
    assert load_config("../cfg/abs.cfg").doeblin_kernel == str(kernel)
