"""Tests for the spectral field layer against independent oracles.

The oracle routes (direct trigonometric summation, rectangle-rule analysis,
dense finite differences with Richardson extrapolation, and coefficient
convolution for polynomials) live in oracles.py and share no code with the
package transforms.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.fft import next_fast_len

import oracles
from glmix.field import (
    DriftPolynomial,
    block_text,
    coeffs_to_values,
    csv_text,
    dealias_points,
    eigenvalues,
    fmt_float,
    fmt_value,
    mode_numbers,
    norm_gamma,
    scaled_random_field,
    sup_norm_values,
    values_to_coeffs,
)
from glmix.config import RunConfig
from glmix.integrator import ExponentialEulerStepper


def random_field(n_modes, rng, scale=1.0):
    return scale * rng.standard_normal(2 * n_modes + 1)


def nonlinearity(pc, u):
    """Coefficients of N(u) = u - P(u) as the stepper evaluates them, through
    the dealiasing grid."""
    params = RunConfig(n_modes=u.size // 2, poly=pc).params()
    return ExponentialEulerStepper(params).nonlinearity(u)


def test_mode_numbers_and_eigenvalues_layout():
    k = mode_numbers(3)
    assert list(k) == [0, 1, 1, 2, 2, 3, 3]
    ell = eigenvalues(3)
    assert ell[0] == 1.0
    assert np.allclose(ell[1:3], 1.0 + 4.0 * np.pi**2)
    # cached arrays are write-protected
    with pytest.raises(ValueError):
        eigenvalues(3)[0] = 2.0


def test_eigenvalues_match_fd_richardson_oracle():
    ell = eigenvalues(6)
    for k in range(1, 7):
        lam = oracles.fd_eigenvalue_richardson(k)
        assert np.isclose(ell[2 * k - 1], lam, rtol=1e-7)


def test_norm_gamma_zero_and_basis_cases():
    assert norm_gamma(np.zeros(17), 7.0) == 0.0
    e1 = np.eye(17)[1]  # e_1^cos
    assert norm_gamma(e1, 0.0) == 1.0
    # gamma = 1 on e_1 equals l_1 = 1 + 4 pi^2, cross-checked by the FD oracle
    l1 = norm_gamma(e1, 1.0)
    assert np.isclose(l1, 1.0 + 4.0 * np.pi**2, rtol=1e-14)
    assert np.isclose(l1, oracles.fd_eigenvalue_richardson(1), rtol=1e-8)
    assert np.isclose(l1, 40.4784, rtol=1e-4)
    for e in np.eye(17):
        assert np.isclose(norm_gamma(e, 0.0), 1.0)


def test_norm_gamma_parseval_and_quadrature():
    rng = np.random.default_rng(11)
    for _ in range(10):
        u = random_field(6, rng)
        # Parseval: the H-norm is the plain coefficient two-norm
        assert np.isclose(
            norm_gamma(u, 0.0) ** 2, float(np.sum(u**2)), rtol=1e-12
        )
        # and equals the W^{1,2} quadrature of the synthesized function
        assert np.isclose(
            norm_gamma(u, 0.0), oracles.h_norm_by_quadrature(u), rtol=1e-10
        )


def test_norm_gamma_one_equals_h_norm_of_lu():
    # ||u||_1 = ||Lu|| with Lu = u - u'' synthesized explicitly and measured
    # by quadrature of (Lu)^2 + (Lu')^2
    rng = np.random.default_rng(12)
    xs = np.arange(4096) / 4096
    for _ in range(5):
        u = random_field(4, rng)
        lu = oracles.synthesize(u, xs) - oracles.synthesize(u, xs, 2)
        lup = oracles.synthesize(u, xs, 1) - oracles.synthesize(u, xs, 3)
        quad = float(np.sqrt(np.mean(lu * lu + lup * lup)))
        assert np.isclose(norm_gamma(u, 1.0), quad, rtol=1e-10)


def test_norm_gamma_monotone_in_gamma():
    rng = np.random.default_rng(13)
    for _ in range(20):
        u = random_field(10, rng)
        g1, g2 = sorted(rng.uniform(-1.0, 3.0, size=2))
        assert norm_gamma(u, g1) <= norm_gamma(u, g2) * (1.0 + 1e-12)


def test_apply_semigroup_against_fd_time_stepping():
    # e^{-Lt} acts on coefficients as the factors e^{-l_k t}, from which the
    # stepper's decay is built; mode k decays as under u_t = u_xx - u
    for k in (1, 2):
        got = np.exp(-eigenvalues(8) * 0.05)[2 * k - 1]
        assert np.isclose(got, oracles.fd_heat_decay(k, 0.05), rtol=2e-2)
    # closed-form spot value from the one-unit decay of mode 1
    c = np.exp(-eigenvalues(8) * 1.0)[1]
    assert np.isclose(c, np.exp(-(1.0 + 4.0 * np.pi**2)), rtol=1e-12)
    assert np.isclose(c, 2.63e-18, rtol=5e-3)


def test_smoothing_norm_check_cases():
    # smoothing: ||e^{-Lt} u||_{gamma+sigma} <= t^{-sigma} ||u||_gamma for
    # sigma in (0, 1/2], on zero, on every slot's basis vector and on random
    # fields
    zero = np.zeros(17) * np.exp(-eigenvalues(8) * 0.3)
    assert norm_gamma(zero, 1.25) <= 0.3**-0.25 * norm_gamma(np.zeros(17), 1.0)
    basis = np.eye(17)
    for t in (0.01, 0.1, 1.0):
        decayed = basis * np.exp(-eigenvalues(8) * t)
        for e, v in zip(basis, decayed):
            assert norm_gamma(v, 0.5) <= t**-0.5 * norm_gamma(e, 0.0) * (1.0 + 1e-12)
    rng = np.random.default_rng(16)
    for _ in range(25):
        u = random_field(12, rng)
        t = float(rng.uniform(0.005, 2.0))
        gamma = float(rng.uniform(-1.0, 2.0))
        sigma = float(rng.uniform(1e-3, 0.5))
        lhs = norm_gamma(u * np.exp(-eigenvalues(12) * t), gamma + sigma)
        assert lhs <= t**-sigma * norm_gamma(u, gamma) * (1.0 + 1e-12)


def test_grid_round_trip_minimal_and_oversampled():
    rng = np.random.default_rng(17)
    for n_modes in (1, 4, 9):
        u = random_field(n_modes, rng)
        for n_points in (2 * n_modes + 1, 2 * n_modes + 2, 8 * n_modes + 5):
            back = values_to_coeffs(coeffs_to_values(u, n_modes, n_points), n_modes)
            assert np.allclose(back, u, rtol=1e-12, atol=1e-13)
    with pytest.raises(ValueError):
        coeffs_to_values(random_field(4, rng), 4, 8)
    with pytest.raises(ValueError):
        values_to_coeffs(np.zeros(8), 4)


@st.composite
def grid_cases(draw):
    """(n_modes, n_points, coefficients): 1 to 3 rows of 2N + 1 coefficients
    in [-1, 1] at one scale from 1e-150 to 1e150, some of them zero."""
    n_modes = draw(st.integers(1, 40), label="n_modes")
    n_points = draw(st.integers(2 * n_modes + 1, 8 * n_modes + 64), label="n_points")
    rows = draw(st.integers(1, 3), label="rows")
    unit = draw(arrays(float, (rows, 2 * n_modes + 1), elements=st.floats(-1.0, 1.0)))
    return n_modes, n_points, unit * 10.0 ** draw(st.integers(-150, 150), label="exponent")


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(case=grid_cases())
def test_grid_round_trip_holds_at_every_size_and_scale(case):
    """values_to_coeffs(coeffs_to_values(u)) returns u to within the FFT's
    rounding, and NaN-filled output and work arrays change no bit.

    Synthesis writes slot k into its rfft bin scaled by s_k (s_0 = M, s_k =
    (M / 2) sqrt(2 / l_k)), and analysis divides by it again.  The real FFT
    pair on M points is backward stable: the round trip moves the full
    spectrum X by at most c eps log2(M) ||X||_2, c a small constant (below 1
    on 20,000 random cases; 4 is allowed).  Slot k then moves by at most
    that over s_k, which also covers the eps |u_k| of the two scalings."""
    n_modes, n_points, u = case
    back = values_to_coeffs(coeffs_to_values(u, n_modes, n_points), n_modes)
    scale = np.sqrt(2.0 / eigenvalues(n_modes)) * (0.5 * n_points)
    scale[0] = n_points
    spec = u * scale
    top = np.abs(spec).max(axis=-1, keepdims=True)
    top[top == 0.0] = 1.0
    # ||X||_2, scaled so that no square overflows; the full spectrum holds
    # bins 1..N twice, as conjugate pairs
    unit = spec / top
    norm = top * np.sqrt(2.0 * np.sum(unit**2, axis=-1, keepdims=True) - unit[:, :1] ** 2)
    bound = 4.0 * np.finfo(float).eps * math.log2(n_points) * norm / scale
    assert np.all(np.abs(back - u) <= bound)
    # output and work arrays that hold NaN give the allocating results bitwise
    values = coeffs_to_values(u, n_modes, n_points)
    half = (u.shape[0], n_points // 2 + 1)
    out = np.full((u.shape[0], n_points), np.nan)
    spectrum = np.full(half, complex(np.nan, np.nan))
    assert coeffs_to_values(u, n_modes, n_points, out=out, spectrum=spectrum) is out
    assert np.array_equal(out, values)
    coeffs = np.full(u.shape, np.nan)
    spectrum = np.full(half, complex(np.nan, np.nan))
    assert values_to_coeffs(values, n_modes, out=coeffs, spectrum=spectrum) is coeffs
    assert np.array_equal(coeffs, values_to_coeffs(values, n_modes))


def test_coeffs_to_values_matches_direct_summation():
    rng = np.random.default_rng(18)
    u = random_field(5, rng)
    m = 32
    xs = np.arange(m) / m
    values = coeffs_to_values(u, 5, m)
    assert np.allclose(values, oracles.synthesize(u, xs), atol=1e-12)
    # constant field synthesizes to the constant
    const = np.array([2.5, 0, 0, 0, 0, 0, 0])
    assert np.allclose(coeffs_to_values(const, 3, 16), 2.5)
    # a pure cosine mode samples to the cosine with amplitude sqrt(2/l_k)
    e2 = np.eye(11)[3]  # e_2^cos
    amp = np.sqrt(2.0 / (1.0 + 16.0 * np.pi**2))
    assert np.allclose(coeffs_to_values(e2, 5, 32), amp * np.cos(4 * np.pi * xs),
                       atol=1e-14)


def test_values_to_coeffs_matches_rectangle_analysis():
    rng = np.random.default_rng(19)
    u = random_field(6, rng)
    values = oracles.synthesize(u, np.arange(29) / 29)
    got = values_to_coeffs(values, 6)
    assert np.allclose(got, u, atol=1e-12)
    assert np.allclose(got, oracles.rectangle_analysis(values, 6), atol=1e-12)


def test_eval_polynomial_constant_cube():
    const = np.array([2.0] + [0.0] * 8)
    out = nonlinearity([0.0, 0.0, 0.0, 1.0], const)
    assert np.isclose(out[0], 2.0 - 8.0, rtol=1e-13)
    assert np.allclose(out[1:], 0.0, atol=1e-13)


def test_eval_polynomial_cosine_cube_identity():
    # physical cos(2 pi xi) cubed is (3/4) cos(2 pi xi) + (1/4) cos(6 pi xi)
    n_modes = 4
    s = oracles.synth_scale(n_modes)
    coeffs = np.zeros(2 * n_modes + 1)
    coeffs[1] = 1.0 / s[1]
    out = nonlinearity([0, 0, 0, 1.0], coeffs)
    expect = np.zeros(2 * n_modes + 1)
    expect[1] = 0.75 / s[1]
    expect[5] = 0.25 / s[5]
    assert np.allclose(out, coeffs - expect, atol=1e-13)
    # brute-force dense-grid projection oracle agrees
    xs = np.arange(512) / 512
    brute = oracles.rectangle_analysis(np.cos(2 * np.pi * xs) ** 3, n_modes)
    assert np.allclose(out, coeffs - brute, atol=1e-12)


def test_eval_polynomial_matches_convolution_oracle():
    rng = np.random.default_rng(20)
    for n_modes in range(2, 9):
        for _ in range(6):
            u = random_field(n_modes, rng)
            pc = rng.standard_normal(4)
            pc[3] = abs(pc[3]) + 0.1
            got = nonlinearity(pc, u)
            want = oracles.poly_by_convolution(pc, u)
            assert np.allclose(got, u - want, atol=1e-10)
            # (q+1)N+1 points is the smallest exact grid: on (q+1)N points the
            # top product mode qN aliases onto mode N, and only there
            for m in (4 * n_modes + 1, 4 * n_modes):
                vals = coeffs_to_values(u, n_modes, m)
                back = values_to_coeffs(np.polyval(pc[::-1], vals), n_modes)
                err = np.abs(back - want)
                assert np.all(err[:-2] <= 1e-10)
                assert (np.max(err[-2:]) <= 1e-10) == (m % 2 == 1)
    assert dealias_points(32, 3) == 135


def test_dealias_points_is_scipys_next_fast_len():
    for degree in (3, 5, 7):
        for n_modes in range(1, 257):
            m = max((degree + 1) * n_modes + 1, 4)
            assert dealias_points(n_modes, degree) == next_fast_len(m, real=True)


def test_eval_polynomial_higher_degrees_match_convolution():
    rng = np.random.default_rng(21)
    for degree in (5, 7):
        pc = np.zeros(degree + 1)
        pc[1] = -1.0
        pc[degree] = 1.0
        for _ in range(4):
            u = random_field(3, rng, scale=0.7)
            got = nonlinearity(pc, u)
            want = oracles.poly_by_convolution(pc, u)
            assert np.allclose(got, u - want, atol=1e-10)


def test_drift_polynomial_validation_and_evaluation():
    with pytest.raises(ValueError):
        DriftPolynomial([0.0, 1.0, 2.0])  # degree 2
    with pytest.raises(ValueError):
        DriftPolynomial([0.0, 1.0])  # too short
    with pytest.raises(ValueError):
        DriftPolynomial([0.0, 0.0, 0.0, -1.0])  # nonpositive leading
    with pytest.raises(ValueError):
        DriftPolynomial([0.0, 0.0, 0.0, 0.0, 0.5])  # even degree 4
    with pytest.raises(ValueError):
        DriftPolynomial([0.0, np.nan, 0.0, 1.0])
    # the fused in-place y - P(y) agrees with y - P(y) by np.polyval within
    # the Horner error bound, r the coefficients of y - P(y)
    ys = np.linspace(-3.0, 3.0, 603).reshape(3, 201)
    for pc in ([0.0, -1.0, 0.0, 1.0], [0.0, -1.5, 0.3, -0.7, 0.2, 1.0], [0.5, -1.0, 0.25, 2.0]):
        p = DriftPolynomial(pc)
        r = -np.array(pc)
        r[1] += 1.0
        bound = 16 * np.finfo(float).eps * np.polyval(np.abs(r[::-1]), np.abs(ys))
        out = np.full_like(ys, np.nan)
        assert p.nonlinearity(ys, out) is out
        assert np.all(np.abs(out - (ys - np.polyval(pc[::-1], ys))) <= bound)
        assert np.array_equal(p.nonlinearity(ys), out)


def test_sup_norm_cases():
    assert sup_norm_values(np.zeros(13), 6) == 0.0
    const = np.array([-1.75, 0, 0, 0, 0, 0, 0])
    assert np.isclose(sup_norm_values(const, 3), 1.75, rtol=1e-14)
    # pure cosine of physical amplitude A peaks at a grid point, so the grid
    # maximum is exact there
    n_modes = 6
    s = oracles.synth_scale(n_modes)
    coeffs = np.zeros(2 * n_modes + 1)
    coeffs[2 * 3 - 1] = 2.0 / s[2 * 3 - 1]
    assert np.isclose(sup_norm_values(coeffs, n_modes), 2.0, rtol=1e-6)
    # the 8-points-per-mode grid against a direct 128-points-per-mode one
    rng = np.random.default_rng(22)
    for _ in range(10):
        u = random_field(8, rng)
        coarse = sup_norm_values(u, 8)
        fine = float(np.max(np.abs(coeffs_to_values(u, 8, 128 * 8))))
        assert coarse <= fine * (1.0 + 1e-12)
        assert coarse >= fine * 0.97


def test_sup_norm_values_matches_scalar_version():
    rng = np.random.default_rng(23)
    block = rng.standard_normal((7, 11))
    batched = sup_norm_values(block, 5)
    single = [sup_norm_values(row, 5) for row in block]
    assert np.allclose(batched, single, rtol=1e-14)


def test_scaled_random_field_deterministic_and_normed():
    a = scaled_random_field(16, 100.0)
    b = scaled_random_field(16, 100.0)
    assert np.array_equal(a, b)
    assert np.isclose(norm_gamma(a, 1.0), 100.0, rtol=1e-12)
    # does not depend on (and does not disturb) the global legacy RNG
    np.random.seed(12345)
    c = scaled_random_field(16, 100.0)
    assert np.array_equal(a, c)
    # the preset is the same raw draw at every target, only rescaled
    d = scaled_random_field(16, 10.0)
    assert np.allclose(10.0 * d, a * 1.0, rtol=1e-12)
    assert np.isclose(norm_gamma(scaled_random_field(16, 7.0, gamma=0.5), 0.5), 7.0)
    assert np.all(scaled_random_field(16, 0.0) == 0.0)
    with pytest.raises(ValueError):
        scaled_random_field(16, -1.0)


def test_coeffs_to_values_batched_shapes():
    rng = np.random.default_rng(24)
    block = rng.standard_normal((4, 3, 9))
    vals = coeffs_to_values(block, 4, 16)
    assert vals.shape == (4, 3, 16)
    back = values_to_coeffs(vals, 4)
    assert np.allclose(back, block, atol=1e-12)
    # output and work arrays give bitwise the allocating results, whatever
    # the work array held before
    for coeffs in (block, block[1, 2]):
        want = coeffs_to_values(coeffs, 4, 16)
        spectrum = np.full(coeffs.shape[:-1] + (9,), np.nan, dtype=complex)
        out = np.empty_like(want)
        assert coeffs_to_values(coeffs, 4, 16, out=out, spectrum=spectrum) is out
        assert np.array_equal(out, want)
        want = values_to_coeffs(out, 4)
        spectrum.fill(np.nan)
        coeffs_out = np.empty_like(want)
        assert values_to_coeffs(out, 4, out=coeffs_out, spectrum=spectrum) is coeffs_out
        assert np.array_equal(coeffs_out, want)


def test_fmt_value_is_the_one_writing_rule():
    # a bool is an int, and numpy's bool and integer scalars are neither
    cases = [
        (True, "1"), (False, "0"), (np.True_, "1"), (np.False_, "0"),
        (7, "7"), (np.int64(-12), "-12"), (np.int64(2**63 - 1), "9223372036854775807"),
        (0.1, fmt_float(0.1)), (np.float64(1e300), fmt_float(1e300)),
        (math.nan, fmt_float(math.nan)), (-math.inf, fmt_float(-math.inf)),
        (-0.0, fmt_float(-0.0)), (np.float64(-0.0), "-0.0"),
        ("scaled-random:1.0", "scaled-random:1.0"), ("", ""),
        ((0, 2, 5), "0 2 5"), ([], ""), (np.array([0.5, -0.0, 2.0]), "0.5 -0.0 2.0"),
        (np.array([3, 4], dtype=np.int64), "3 4"),
    ]
    for value, text in cases:
        assert fmt_value(value) == text, value
    assert fmt_float(-math.inf) == "-inf" and fmt_float(math.nan) == "nan"


def test_renderers_write_every_value_by_fmt_value():
    rows = [(0, 1.0, np.float64(0.25), np.int64(3), np.False_), (1, 2.0, math.nan, 0, True)]
    assert csv_text(["i", "t", "d", "n", "ok"], rows) == (
        "i,t,d,n,ok\n0,1.0,0.25,3,0\n1,2.0,nan,0,1\n")
    values = {"K": (0, 1), "m": 1, "nu": np.array([0.5, 0.5]), "ok": np.True_, "method": "ols"}
    assert block_text(values) == "K = 0 1\nm = 1\nnu = 0.5 0.5\nok = 1\nmethod = ols\n"
    assert block_text(values, sep=" ") == "K = 0 1 m = 1 nu = 0.5 0.5 ok = 1 method = ols\n"
