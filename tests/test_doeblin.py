"""Tests for the finite-state minorization and coupling toolkit.

The worked 2-state kernel [[0.9, 0.1], [0.2, 0.8]] threads through most
cases because every quantity of interest is computable by hand there.
"""

import contextlib
import dataclasses
import io
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from glmix.cli import main
from glmix.doeblin import (
    FiniteKernel,
    SmallSetCertificate,
    certificate_text,
    condition_b,
    contraction_check,
    drift_condition_check,
    geometric_bound_check,
    invariant_measure,
    minorization,
    parse_certificate,
    read_kernel,
    small_set_search,
    write_kernel,
)
from glmix.field import SettingError

WORKED = [[0.9, 0.1], [0.2, 0.8]]


def random_kernel(rng, n):
    rows = rng.random((n, n)) + 0.05
    return FiniteKernel(rows / rows.sum(axis=1, keepdims=True))


def test_kernel_validation_and_protection():
    # invariant_measure reads the largest singular value, so a kernel has a state
    for rows in ([[0.5, 0.5]], np.zeros((0, 0))):
        with pytest.raises(ValueError, match="nonempty square"):
            FiniteKernel(rows)
    with pytest.raises(ValueError, match="finite"):
        FiniteKernel([[np.inf, 0.0], [0.5, 0.5]])
    with pytest.raises(ValueError, match="nonnegative"):
        FiniteKernel([[1.5, -0.5], [0.5, 0.5]])
    with pytest.raises(ValueError, match="row 1 sums to"):
        FiniteKernel([[0.5, 0.5], [0.6, 0.5]])
    # rows must sum to 1 within 1e-12
    FiniteKernel([[0.5, 0.5 + 0.5e-12], [0.5, 0.5 - 0.5e-12]])
    with pytest.raises(ValueError, match="row 0 sums to"):
        FiniteKernel([[0.5, 0.5 + 1.5e-12], [0.5, 0.5]])
    kernel = FiniteKernel(WORKED)
    assert kernel.n == 2
    with pytest.raises(ValueError):
        kernel.rows[0, 0] = 0.0


def test_certificate_nu_validation():
    for weights in ([0.25, 0.75], np.array([0.25, 0.75])):
        cert = SmallSetCertificate(K=(0,), m=1, delta=0.5, nu=weights)
        assert cert.nu.dtype == float and np.array_equal(cert.nu, [0.25, 0.75])
        with pytest.raises(ValueError):
            cert.nu[0] = 1.0
    for weights, match in (([[1.0]], "vector"), ([np.nan, 1.0], "nonnegative"),
                           ([-0.1, 1.1], "nonnegative"), ([0.25, 0.25], "probability"),
                           ([np.inf, 0.0], "probability"), ([1e308, 1e308], "probability"),
                           ([0.5, 0.5 + 1.5e-9], "probability")):
        with pytest.raises(ValueError, match=match):
            SmallSetCertificate(K=(0,), m=1, delta=0.5, nu=weights)
    # nu sums to 1 within 1e-9
    SmallSetCertificate(K=(0,), m=1, delta=0.5, nu=[0.5, 0.5 + 0.5e-9])


def test_certificate_field_validation():
    nu = [0.5, 0.5]
    with pytest.raises(ValueError, match="sorted distinct"):
        SmallSetCertificate(K=(1, 0), m=1, delta=0.5, nu=nu)
    with pytest.raises(ValueError, match="positive integer"):
        SmallSetCertificate(K=(0,), m=0, delta=0.5, nu=nu)
    with pytest.raises(ValueError, match="delta"):
        SmallSetCertificate(K=(0,), m=1, delta=0.0, nu=nu)
    with pytest.raises(ValueError, match="delta"):
        SmallSetCertificate(K=(0,), m=1, delta=1.5, nu=nu)
    with pytest.raises(ValueError, match="probability"):
        SmallSetCertificate(K=(0,), m=1, delta=0.5, nu=[0.5, 0.1])
    for delta_prime in (1.0 + 0.5e-12, 1.0 + 1e-9):
        SmallSetCertificate(K=(0,), m=1, delta=1.0, nu=nu, delta_prime=delta_prime)
    for delta_prime in (0.0, 1.0 + 1.5e-9, 1.5):
        with pytest.raises(ValueError, match="delta_prime"):
            SmallSetCertificate(K=(0,), m=1, delta=0.5, nu=nu, delta_prime=delta_prime)


def test_certificate_validate_rejects_false_claims():
    kernel = FiniteKernel(WORKED)
    nu = [0.5, 0.5]
    good = SmallSetCertificate(K=(0, 1), m=1, delta=0.2, nu=nu)
    good.validate(kernel)
    bad = SmallSetCertificate(K=(0, 1), m=1, delta=0.9, nu=nu)
    with pytest.raises(ValueError, match="minorization fails at"):
        bad.validate(kernel)
    overclaim = SmallSetCertificate(K=(0,), m=1, delta=0.2, nu=nu, delta_prime=0.5)
    with pytest.raises(ValueError, match="return probability fails"):
        overclaim.validate(kernel)
    short = SmallSetCertificate(K=(0,), m=1, delta=0.2, nu=[1.0])
    with pytest.raises(ValueError, match="length"):
        short.validate(kernel)
    # either claim may overstate the kernel by 1e-12: P(0, 1) = 0 against
    # delta nu(1) = 1e-12, and P(0, K) = 0 against delta_prime = 1e-12
    tight = FiniteKernel([[1.0, 0.0], [0.5, 0.5]])
    SmallSetCertificate(K=(0,), m=1, delta=1.0, nu=[1.0 - 1e-12, 1e-12]).validate(tight)
    SmallSetCertificate(K=(1,), m=1, delta=0.5, nu=[0.0, 1.0], delta_prime=1e-12).validate(tight)


def test_validate_messages_print_plain_floats():
    kernel = FiniteKernel([[0.5, 0.5], [0.1, 0.9]])
    bad = SmallSetCertificate(K=(0, 1), m=1, delta=1.0, nu=[0.5, 0.5])
    with pytest.raises(ValueError) as err:
        bad.validate(kernel)
    assert str(err.value) == (
        "minorization fails at x = 1, y = 0: P^1(x,y) = 0.1 < delta nu(y) = 0.5"
    )
    overclaim = SmallSetCertificate(K=(1,), m=1, delta=0.1, nu=[1.0, 0.0],
                                    delta_prime=0.95)
    with pytest.raises(ValueError) as err:
        overclaim.validate(kernel)
    assert str(err.value) == "return probability fails at x = 0: P(x,K) = 0.5 < delta_prime = 0.95"


def test_minorization_worked_example():
    kernel = FiniteKernel(WORKED)
    cert = minorization(kernel, k=(0, 1), m=1)
    # column minima are (0.2, 0.1); the float sum carries one ulp of noise
    assert cert.delta == 0.30000000000000004
    assert np.allclose(cert.nu, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-15)
    assert cert.K == (0, 1) and cert.m == 1 and cert.delta_prime is None
    single = minorization(kernel, k=[0], m=1)
    assert single.delta == 1.0
    assert np.array_equal(single.nu, [0.9, 0.1])


def test_minorization_identical_rows_and_none():
    row = [0.3, 0.5, 0.2]
    kernel = FiniteKernel([row, row, row])
    cert = minorization(kernel, k=range(3), m=1)
    assert cert.delta == 1.0
    assert np.allclose(cert.nu, row, rtol=1e-15)
    identity = FiniteKernel(np.eye(2))
    assert minorization(identity, k=(0, 1), m=1) is None
    with pytest.raises(SettingError, match="^m must be at least 1$") as err:
        minorization(kernel, k=(0,), m=0)
    assert err.value.key == "m"
    with pytest.raises(ValueError, match="out of range"):
        minorization(kernel, k=(5,), m=1)
    with pytest.raises(ValueError, match="nonempty"):
        minorization(kernel, k=(), m=1)


def test_minorization_is_maximal_over_candidates():
    # any valid pair (delta~, nu~) satisfies delta~ nu~(y) <= colmin(y), so
    # delta~ <= min_y colmin(y)/nu~(y) <= sum colmin = delta
    rng = np.random.default_rng(8)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        kernel = random_kernel(rng, n)
        k = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        m = int(rng.integers(1, 3))
        cert = minorization(kernel, k=k, m=m)
        assert cert is not None
        colmin = np.linalg.matrix_power(kernel.rows, m)[k, :].min(axis=0)
        for _ in range(25):
            candidate = rng.random(n) + 1e-3
            candidate /= candidate.sum()
            feasible = float(np.min(colmin / candidate))
            assert feasible <= cert.delta + 1e-12
        # the returned nu itself achieves delta exactly
        achieved = float(np.min(colmin / cert.nu[colmin > 0]))
        assert np.isclose(achieved, cert.delta, rtol=1e-12)


def test_each_power_of_a_kernel_is_computed_once(monkeypatch):
    # minorization computed P^m, then its validate computed it again
    calls = []
    matrix_power = np.linalg.matrix_power
    monkeypatch.setattr(np.linalg, "matrix_power",
                        lambda a, m: calls.append(m) or matrix_power(a, m))
    kernel = FiniteKernel(oracles.double_well_rows(64))
    cert = minorization(kernel, range(kernel.n), 64)
    assert calls == [64]
    cert.validate(kernel)
    assert calls == [64]
    assert not kernel.power(64).flags.writeable
    one = minorization(kernel, range(kernel.n), 1)
    one = dataclasses.replace(one, delta_prime=condition_b(kernel, range(kernel.n)))
    contraction_check(kernel, one)
    contraction_check(kernel, one)
    assert calls == [64, 1, 2]
    # matrix_power(P, 2) is P @ P, so contraction_check reads the same bytes
    assert np.array_equal(kernel.power(2), kernel.rows @ kernel.rows)


def test_condition_b_cases():
    kernel = FiniteKernel(WORKED)
    assert condition_b(kernel, k=(0, 1)) == 1.0
    assert condition_b(kernel, k=(0,)) == 0.2
    stuck = FiniteKernel([[1.0, 0.0], [1.0, 0.0]])
    assert condition_b(stuck, k=(1,)) == 0.0
    # each row sums to 1 within 1e-12, but its part on K (all but state 8)
    # sums in another order and rounds one ulp past 1 + 1e-12; glmix doeblin
    # still makes that delta_prime a certificate
    row = [0.1, 0.4, 0.05 + 1e-12, 0.05, 0.05, 0.05, 0.05, 0.2, 0.0, 0.05]
    edge = FiniteKernel([row] * len(row))
    k = (0, 1, 2, 3, 4, 5, 6, 7, 9)
    dprime = condition_b(edge, k)
    assert dprime > 1.0 + 1e-12
    cert = dataclasses.replace(minorization(edge, k, 1), delta_prime=dprime)
    cert.validate(edge)
    assert geometric_bound_check(edge, cert) is None


def test_contraction_check_worked_example():
    kernel = FiniteKernel(WORKED)
    base = minorization(kernel, k=(0, 1), m=1)
    cert = SmallSetCertificate(K=base.K, m=1, delta=base.delta, nu=base.nu,
                               delta_prime=condition_b(kernel, base.K))
    worst = contraction_check(kernel, cert)
    assert abs(worst - 0.49) < 1e-12
    assert worst <= 1.0 - cert.delta * cert.delta_prime + 1e-12


def test_contraction_check_identical_rows_and_errors():
    row = [0.25, 0.25, 0.5]
    kernel = FiniteKernel([row, row, row])
    base = minorization(kernel, k=range(3), m=1)
    cert = SmallSetCertificate(K=base.K, m=1, delta=0.999, nu=base.nu,
                               delta_prime=1.0)
    assert contraction_check(kernel, cert) == 0.0
    with pytest.raises(ValueError, match="delta_prime"):
        contraction_check(kernel, base)
    two_step = SmallSetCertificate(K=base.K, m=2, delta=0.5, nu=base.nu,
                                   delta_prime=1.0)
    with pytest.raises(ValueError, match="one-step"):
        contraction_check(kernel, two_step)


def test_contraction_check_soundness_on_random_kernels():
    rng = np.random.default_rng(17)
    pair_rng = np.random.default_rng(18)
    kernels = [random_kernel(rng, int(rng.integers(2, 7))) for _ in range(300)]
    for kernel in kernels + [double_well_kernel(64)]:
        base = minorization(kernel, k=range(kernel.n), m=1)
        cert = SmallSetCertificate(K=base.K, m=1, delta=base.delta, nu=base.nu,
                                   delta_prime=1.0)
        worst = contraction_check(kernel, cert)
        assert 0.0 <= worst <= 1.0 - base.delta + 1e-12
        # no pair of probability measures contracts worse than the Dirac pairs
        ratios = oracles.random_pair_ratios(pair_rng, kernel.rows @ kernel.rows, 20)
        assert ratios.max() <= worst + 1e-12


def test_invariant_measure_cases():
    kernel = FiniteKernel(WORKED)
    mu = invariant_measure(kernel)
    assert np.allclose(mu, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
    row = [0.1, 0.6, 0.3]
    const = FiniteKernel([row, row, row])
    assert np.allclose(invariant_measure(const), row, atol=1e-14)
    with pytest.raises(ValueError, match="not unique"):
        invariant_measure(FiniteKernel(np.eye(3)))
    block = FiniteKernel([
        [0.5, 0.5, 0.0, 0.0],
        [0.5, 0.5, 0.0, 0.0],
        [0.0, 0.0, 0.5, 0.5],
        [0.0, 0.0, 0.5, 0.5],
    ])
    with pytest.raises(ValueError, match="not unique"):
        invariant_measure(block)
    # two states swapping at rate e: P^T - I has singular values 2e and 0,
    # and the second counts as zero at or below 1e-12
    for e, unique in ((0.75e-12, True), (0.4e-12, False)):
        swap = FiniteKernel([[1.0 - e, e], [e, 1.0 - e]])
        if unique:
            assert np.allclose(invariant_measure(swap), 0.5, atol=1e-3)
        else:
            with pytest.raises(ValueError, match="not unique"):
                invariant_measure(swap)
    # with 500 states, 498 of them entering state 0, the zero threshold is
    # n eps s_max = 2.5e-12, above 1e-12: the swap's 1.4e-12 counts as zero
    big = np.zeros((500, 500))
    big[2:, 0] = 1.0
    big[:2, :2] = [[1.0 - 1e-12, 1e-12], [1e-12, 1.0 - 1e-12]]
    with pytest.raises(ValueError, match="not unique"):
        invariant_measure(FiniteKernel(big))
    rng = np.random.default_rng(4)
    for _ in range(50):
        k = random_kernel(rng, int(rng.integers(2, 8)))
        mu = invariant_measure(k)
        assert np.max(np.abs(mu @ k.rows - mu)) <= 1e-12
        assert np.isclose(mu.sum(), 1.0, atol=1e-12)
    # state 0 is transient: the SVD leaves weights of order 1e-17, of either
    # sign, that are rounding and read 0
    for _ in range(50):
        rows = rng.random((4, 4)) + 0.05
        rows[:, 0] = 0.0
        mu = invariant_measure(FiniteKernel(rows / rows.sum(axis=1, keepdims=True)))
        assert mu[0] == 0.0 and np.isclose(mu.sum(), 1.0, atol=1e-12)
    # a weight of 1.5e-15 is mass, not rounding
    a = 7.5e-16
    assert invariant_measure(FiniteKernel([[1.0 - a, a], [0.5, 0.5]]))[1] > 1e-15
    # a transient state left at rate 1e-6 reads about +-3e-12 or more: what
    # is returned is never negative, and a negative weight is refused even
    # where its residual is about 3e-17
    refused = 0
    for _ in range(20):
        rows = rng.random((4, 4)) + 0.05
        rows[:, 0] = 0.0
        rows /= rows.sum(axis=1, keepdims=True)
        rows[0] = [1.0 - 1e-6, 1e-6, 0.0, 0.0]
        k = FiniteKernel(rows)
        try:
            mu = invariant_measure(k)
        except RuntimeError:
            refused += 1
            continue
        assert np.all(mu >= 0.0) and np.max(np.abs(mu @ k.rows - mu)) <= 1e-12
    assert refused


def test_geometric_bound_worked_example():
    kernel = FiniteKernel(WORKED)
    base = minorization(kernel, k=(0, 1), m=1)
    cert = SmallSetCertificate(K=base.K, m=1, delta=base.delta, nu=base.nu,
                               delta_prime=1.0)
    worst = geometric_bound_check(kernel, cert)
    assert worst <= 1e-9
    # decided at k = 50, from state 1: (4/3) 0.7^50 - 2 (0.7)^25 exactly
    r = Fraction(7, 10) ** 25
    assert abs(worst - float(Fraction(4, 3) * r * r - 2 * r)) < 1e-15
    # fifty steps of a 0.7-per-two-steps contraction land well inside 1e-3
    mu_star = invariant_measure(kernel)
    p50 = np.linalg.matrix_power(kernel.rows, 50)
    assert np.abs(p50 - mu_star[None, :]).sum(axis=1).max() < 1e-3


def test_geometric_bound_validation():
    row = [0.5, 0.5]
    const = FiniteKernel([row, row])
    # 1 - delta delta_prime outside (0, 1) leaves no bound to check: it is 0,
    # below 0, or 1 where the product is too small to change it (a 3-cycle
    # with 1e-20 off the cycle, whose mu_* is uniform and resolved)
    for delta_prime in (1.0, 1.0 + 0.5e-12):
        cert = SmallSetCertificate(K=(0, 1), m=1, delta=1.0, nu=row, delta_prime=delta_prime)
        assert geometric_bound_check(const, cert) is None
    e = 1e-20
    cycle = FiniteKernel([[e, 1.0 - 2 * e, e], [e, e, 1.0 - 2 * e], [1.0 - 2 * e, e, e]])
    assert np.allclose(invariant_measure(cycle), 1.0 / 3.0)
    assert geometric_bound_check(cycle, one_step_certificate(cycle)) is None
    kernel = FiniteKernel(WORKED)
    two_step = SmallSetCertificate(K=(0, 1), m=2, delta=0.3,
                                   nu=[0.5, 0.5],
                                   delta_prime=1.0)
    with pytest.raises(ValueError, match="one-step"):
        geometric_bound_check(kernel, two_step)


def test_geometric_bound_is_none_where_float64_cannot_resolve_mu_star():
    # delta delta' = 4e-13 > 0 makes mu_* unique, but two singular values of
    # P^T - I sit near 2e-14 and invariant_measure rejects the kernel
    a, e = 0.4999999999999, 1e-13
    kernel = FiniteKernel([[a, a, e, e], [a, a, e, e], [e, e, a, a], [e, e, a, a]])
    cert = dataclasses.replace(minorization(kernel, range(4), 1), delta_prime=1.0)
    with pytest.raises(ValueError, match="not unique"):
        invariant_measure(kernel)
    assert geometric_bound_check(kernel, cert) is None


def one_step_certificate(kernel):
    """The K = all, m = 1 certificate with delta_prime that glmix doeblin checks."""
    states = range(kernel.n)
    return dataclasses.replace(minorization(kernel, states, 1),
                               delta_prime=condition_b(kernel, states))


def test_geometric_bound_by_p_squared_matches_the_every_step_loop():
    # the oracle steps P^k by one product by P over all 51 k, and
    # geometric_bound_check by P^2 over the even k alone.  Where k = 0
    # decides, both read the Dirac rows and must agree byte for byte.
    # Elsewhere, with u = 2^-53 and gamma = n u / (1 - n u): a computed row
    # of P^k is within k gamma of the exact one in l1 by either route (each
    # product by a stochastic matrix adds at most gamma to a row of mass
    # about 1, and does not grow an earlier error; P^2 itself is one
    # product), and the distance to mu_* and the gap round by at most
    # 4 gamma more for n >= 2, so the routes' even-k gaps differ by at most
    # 2 (50 + 4) gamma.  An odd k exceeds the even k below it by at most
    # r = ||mu_* P - mu_*||, which is not exactly 0 in float64, at the same
    # bound.  So the two worst gaps differ by at most r + 2 (50 + 4) gamma.
    rng = np.random.default_rng(12)
    decided_at = []
    for trial in range(90):
        n = int(rng.integers(2, 13))
        lazy = (0.0, 0.9, 0.99)[trial % 3]  # a lazier chain is decided at k = 0
        rows = rng.random((n, n)) + 0.05
        kernel = FiniteKernel(lazy * np.eye(n) + (1.0 - lazy) * rows / rows.sum(axis=1)[:, None])
        cert = one_step_certificate(kernel)
        gap = geometric_bound_check(kernel, cert)
        mu = invariant_measure(kernel)
        want, k = oracles.geometric_gap_every_step(kernel.rows, mu, cert.delta * cert.delta_prime)
        decided_at.append(k)
        if k == 0:
            assert gap == want, (trial, gap, want)
        else:
            u = np.finfo(float).eps / 2.0
            gamma = n * u / (1.0 - n * u)
            r = np.abs(mu @ kernel.rows - mu).sum()
            assert abs(gap - want) <= r + 2 * (50 + 4) * gamma, (trial, k, gap, want)
    # both cases are exercised: the dense chains are decided at k = 50
    assert 0 in decided_at and 50 in decided_at


@pytest.mark.parametrize("n", [64, 256])
def test_geometric_bound_on_double_wells_keeps_its_bytes(n):
    # the printed geometric_gap there is decided at k = 0 (-2 min mu_*)
    kernel = FiniteKernel(oracles.double_well_rows(n))
    cert = one_step_certificate(kernel)
    want, k = oracles.geometric_gap_every_step(
        kernel.rows, invariant_measure(kernel), cert.delta * cert.delta_prime)
    assert k == 0
    assert geometric_bound_check(kernel, cert) == want


def test_small_set_search_worked_two_state():
    kernel = FiniteKernel(WORKED)
    cert = small_set_search(kernel, mu0=[0.5, 0.5])
    assert cert.K == (0,) and cert.m == 2
    assert cert.delta == 0.03125
    assert np.array_equal(cert.nu, [1.0, 0.0])
    assert oracles.search_path(kernel.rows, np.array([0.5, 0.5]), cert) == (0, 0, 0)


def test_small_set_search_uniform_rows():
    row = [0.25, 0.25, 0.25, 0.25]
    kernel = FiniteKernel([row] * 4)
    mu0 = np.full(4, 0.25)
    # densities are 1 everywhere: every path ties, the first one wins
    cert = small_set_search(kernel, mu0)
    assert cert.K == (0,) and np.array_equal(cert.nu, [1.0, 0.0, 0.0, 0.0])
    assert cert.delta == 0.25 * 0.25 / 8.0


def test_small_set_search_on_a_strong_diagonal():
    # the density threshold keeps only same-state pairs, so the only
    # S-paths stay at one state
    rows = np.full((4, 4), 0.01) + np.diag(np.full(4, 0.96))
    kernel = FiniteKernel(rows)
    mu0 = np.full(4, 0.25)
    cert = small_set_search(kernel, mu0)
    assert cert.K == (0,) and cert.nu[0] == 1.0
    assert cert.delta == 0.25 * 0.25 / 8.0


def test_small_set_search_always_finds_at_singleton_refinement():
    # each row must exceed mu0/2 somewhere (the total masses are 1 vs 1/2),
    # so singleton cells always admit a composable pair of density edges;
    # even a heavily skewed mu0 yields a certificate
    kernel = FiniteKernel([[0.4, 0.6], [0.4, 0.6]])
    cert = small_set_search(kernel, [0.99, 0.01])
    assert cert is not None
    cert.validate(kernel)
    assert cert.delta == 0.01 * 0.01 / 8.0


def test_small_set_search_mu0_validation():
    kernel = FiniteKernel(WORKED)
    with pytest.raises(ValueError, match="strictly positive"):
        small_set_search(kernel, [1.0, 0.0])
    # a length mismatch is named as such, not as a positivity failure
    with pytest.raises(ValueError, match="mu0 has 3 weights for a kernel on 2 states"):
        small_set_search(kernel, [0.5, 0.25, 0.25])
    with pytest.raises(ValueError, match="probability"):
        small_set_search(kernel, [0.5, 0.4])
    # a NaN weight used to pass both checks and reach the search
    with pytest.raises(ValueError, match="strictly positive"):
        small_set_search(kernel, [0.5, np.nan])
    with pytest.raises(ValueError, match="probability"):
        small_set_search(kernel, [0.5, np.inf])
    # the weights sum to 1 within 1e-9
    small_set_search(kernel, [0.5, 0.5 + 0.5e-9])
    with pytest.raises(ValueError, match="probability"):
        small_set_search(kernel, [0.5, 0.5 + 1.5e-9])


def test_small_set_search_soundness_on_random_kernels():
    rng = np.random.default_rng(12)
    for _ in range(100):
        kernel = random_kernel(rng, 5)
        mu0 = rng.random(5) + 0.2
        mu0 /= mu0.sum()
        cert = small_set_search(kernel, mu0)
        assert cert is not None
        # an S-path a -> b -> c with mu0(b) mu0(c) / 8 == delta
        path = oracles.search_path(kernel.rows, mu0, cert)
        assert path is not None
        # independent recount of the density-level two-step bound
        p2_density = (kernel.rows @ kernel.rows) / mu0[None, :]
        support = np.flatnonzero(cert.nu > 0)
        assert np.all(
            p2_density[np.ix_(cert.K, support)] >= mu0[path[1]] / 8.0 - 1e-12
        )
        # nu is mu0 conditioned on its support
        assert np.allclose(
            cert.nu[support], mu0[support] / mu0[support].sum(), rtol=1e-12
        )


def metrized_twenty_state():
    """A 20-state chain whose two-step structure favors two fat states.

    States 0 and 2 carry mass 0.3 under mu0 but their mutual two-step links
    are cut, so the best path stays at state 0 and delta is 0.3^2 / 8.
    """
    n = 20
    mu0 = np.full(n, 0.38 / 17.0)
    mu0[0] = mu0[2] = 0.3
    mu0[1] = 0.02
    band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 2
    band[0, 2] = band[2, 0] = False
    rows = mu0[None, :] * np.where(band, 1.0, 0.05)
    rows /= rows.sum(axis=1, keepdims=True)
    return FiniteKernel(rows), mu0


def test_small_set_search_prefers_the_fat_states():
    kernel, mu0 = metrized_twenty_state()
    cert = small_set_search(kernel, mu0)
    assert cert is not None
    assert np.isclose(cert.delta, 0.3 * 0.3 / 8.0, rtol=1e-12)


def search_instance(seed, n, density, weights):
    """A kernel and mu0 for comparing the search with the triple scan.

    Kernels are dense (density 1), or put their mass on a sparse pattern.
    mu0 is uniform, where many paths tie; skewed; or 1e-200 on about half
    the states, where delta can underflow to 0 on every path.
    """
    rng = np.random.default_rng(seed)
    pattern = rng.random((n, n)) < density
    pattern[np.arange(n), rng.integers(0, n, n)] |= ~pattern.any(axis=1)
    rows = pattern * (rng.random((n, n)) + 0.05)
    rows /= rows.sum(axis=1, keepdims=True)
    mu0 = np.full(n, 1.0 / n) if weights == "uniform" else rng.random(n) ** 3 + 0.01
    if weights == "tiny":
        mu0[rng.random(n) < 0.5] = 1e-200
    mu0 /= mu0.sum()
    return rows, mu0


@st.composite
def search_instances(draw):
    return search_instance(
        seed=draw(st.integers(0, 2**32 - 1)),
        n=draw(st.integers(2, 10)),
        density=draw(st.sampled_from([0.15, 0.4, 1.0])),
        weights=draw(st.sampled_from(["uniform", "skewed", "tiny"])),
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(search_instances())
@example((np.full((2, 2), 0.5), np.array([1e-200, 1.0])))  # every delta underflows
def test_small_set_search_matches_the_cell_scan(instance):
    rows, mu0 = instance
    kernel = FiniteKernel(rows)
    want = oracles.small_set_search_reference(
        kernel.rows, mu0, [np.array([x]) for x in range(kernel.n)])
    got = small_set_search(kernel, mu0)
    if want is None:
        assert got is None
        return
    assert len(got.K) == 1 and np.count_nonzero(got.nu) == 1 and got.nu.max() == 1.0
    k, delta, nu, v_mass, e_mass = want
    text = certificate_text(SmallSetCertificate(K=k, m=2, delta=delta, nu=nu))
    assert certificate_text(got) == text
    _, b, c = oracles.search_path(kernel.rows, mu0, got)
    assert mu0[b] == v_mass and mu0[c] == e_mass


def double_well_kernel(n):
    return FiniteKernel(oracles.double_well_rows(n))


@pytest.mark.parametrize("n", [256, 512])
def test_doeblin_toolkit_at_hundreds_of_states(n):
    kernel = double_well_kernel(n)
    t0 = time.monotonic()
    mu = invariant_measure(kernel)
    assert np.max(np.abs(mu @ kernel.rows - mu)) <= 1e-12
    base = minorization(kernel, k=range(n), m=1)
    cert = dataclasses.replace(base, delta_prime=condition_b(kernel, base.K))
    assert contraction_check(kernel, cert) <= 1.0 - cert.delta * cert.delta_prime
    mu0 = np.full(n, 1.0 / n)
    found = small_set_search(kernel, mu0)
    found.validate(kernel)
    # independent recount of the two-step density bound behind the certificate
    dens = (kernel.rows @ kernel.rows) / mu0[None, :]
    support = np.flatnonzero(found.nu > 0.0)
    _, b, _ = oracles.search_path(kernel.rows, mu0, found)
    assert dens[np.ix_(found.K, support)].min() >= mu0[b] / 8.0 - 1e-12
    # the triple scan takes minutes here (n^3 Python steps)
    assert time.monotonic() - t0 < 30.0


def test_doeblin_command_on_a_512_state_kernel(tmp_path):
    write_kernel(tmp_path / "wells.txt", double_well_kernel(512))
    cfg = tmp_path / "wells.cfg"
    cfg.write_text("[doeblin]\nkernel = wells.txt\nK = all\nm = 1\nmu0 = uniform\n")
    t0 = time.monotonic()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = main(["doeblin", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0, out.getvalue()
    assert "search = found" in out.getvalue()
    assert time.monotonic() - t0 < 30.0


def birth_death_kernel():
    n = 6
    rows = np.zeros((n, n))
    for x in range(n):
        down = x - 1 if x > 0 else 0
        up = x + 1 if x < n - 1 else n - 1
        rows[x, down] += 0.7
        rows[x, up] += 0.3
    return FiniteKernel(rows)


def test_drift_condition_check_birth_death():
    kernel = birth_death_kernel()
    v = 2.0 ** np.arange(6)
    assert drift_condition_check(kernel, v, k=(0,), c=0.95, lam=1.3) == []
    assert drift_condition_check(kernel, v, k=(0,), c=0.5, lam=1.3) == [1, 2, 3, 4, 5]
    assert drift_condition_check(kernel, v, k=(0,), c=0.95, lam=1.2) == [0]
    assert drift_condition_check(kernel, np.ones(6), k=range(6), c=0.5, lam=1.0) == []


def test_drift_condition_check_validation():
    kernel = birth_death_kernel()
    v = np.ones(6)
    with pytest.raises(ValueError, match="c must"):
        drift_condition_check(kernel, v, k=(0,), c=1.0, lam=1.0)
    with pytest.raises(ValueError, match="Lambda"):
        drift_condition_check(kernel, v, k=(0,), c=0.5, lam=0.0)
    with pytest.raises(ValueError, match=">= 1"):
        drift_condition_check(kernel, 0.5 * v, k=(0,), c=0.5, lam=1.0)


def test_kernel_file_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    kernel = random_kernel(rng, 5)
    path = tmp_path / "k.txt"
    write_kernel(path, kernel)
    back = read_kernel(path)
    assert np.array_equal(back.rows, kernel.rows)
    (tmp_path / "empty.txt").write_text("\n")
    with pytest.raises(ValueError, match="empty"):
        read_kernel(tmp_path / "empty.txt")
    # every format error names its line in the file, blank lines counted
    for text, message in [
        ("3\n0.5 0.5 0.0\n", "line 3: file ends after 1 rows, expected 3 rows"),
        ("2\n0.5 0.5\n1.0\n", "line 3: row length 1, expected 2 entries"),
        ("abc\n0.5\n", "line 1: expected the state count, got 'abc'"),
        ("\n-1\n", "line 2: state count -1, expected at least 1"),
        ("1\n1.0\n\n1.0\n", "line 4: one row too many, expected 1 rows"),
        ("2\n0.5 0.5\n\n0.5 x\n", "line 4: expected 2 numbers, got '0.5 x'"),
    ]:
        (tmp_path / "bad.txt").write_text(text)
        with pytest.raises(ValueError, match=f"^{message}$"):
            read_kernel(tmp_path / "bad.txt")


def test_certificate_text_round_trip():
    kernel = FiniteKernel(WORKED)
    base = minorization(kernel, k=(0, 1), m=1)
    cert = SmallSetCertificate(K=base.K, m=1, delta=base.delta, nu=base.nu,
                               delta_prime=1.0)
    text = certificate_text(cert)
    back = parse_certificate(text)
    assert back.K == cert.K and back.m == cert.m
    assert back.delta == cert.delta and back.delta_prime == cert.delta_prime
    assert np.array_equal(back.nu, cert.nu)
    back.validate(kernel)
    plain = certificate_text(base)
    assert "delta_prime" not in plain
    assert parse_certificate(plain).delta_prime is None
    # comments and blank lines are tolerated
    commented = "# produced by a run\n\n" + text
    assert parse_certificate(commented).delta == cert.delta


UNIT_INTERVAL = st.floats(0.0, 1.0, exclude_min=True)


@st.composite
def certificates(draw):
    """A valid certificate on up to 12 states, with or without delta_prime."""
    n = draw(st.integers(1, 12))
    k = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
                      .filter(lambda ws: sum(ws) > 0.0)))
    return SmallSetCertificate(
        K=sorted(k), m=draw(st.integers(1, 10**6)), delta=draw(UNIT_INTERVAL),
        nu=w / w.sum(), delta_prime=draw(st.none() | UNIT_INTERVAL))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(certificates())
def test_certificate_text_round_trip_is_exact(cert):
    back = parse_certificate(certificate_text(cert))
    assert back.K == cert.K and back.m == cert.m
    assert np.float64(back.delta).tobytes() == np.float64(cert.delta).tobytes()
    assert back.nu.tobytes() == cert.nu.tobytes()
    if cert.delta_prime is None:
        assert back.delta_prime is None
    else:
        assert np.float64(back.delta_prime).tobytes() == np.float64(cert.delta_prime).tobytes()


def test_parse_certificate_errors():
    with pytest.raises(ValueError, match="line 2: expected 'key = value'"):
        parse_certificate("K = 0\nbogus line\n")
    with pytest.raises(ValueError, match=r"missing \['delta', 'nu'\]"):
        parse_certificate("K = 0\nm = 1\n")
