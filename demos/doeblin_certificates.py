"""Build and verify coupling certificates on finite Markov chains.

A minorization certificate (K, m, delta, nu) asserts P^m(x, .) >= delta nu
for every x in K; combined with a uniform return probability delta_prime =
min_x P(x, K) it yields the two-step total-variation contraction factor
1 - delta delta_prime and hence an explicit geometric convergence bound.
The script works the 2-state example end to end, runs the constructive
small-set search on a 20-state band kernel, and finishes with a
drift-condition check on a birth-death chain.
"""

from dataclasses import replace

import numpy as np

from glmix.doeblin import (
    FiniteKernel,
    certificate_text,
    condition_b,
    contraction_check,
    drift_condition_check,
    geometric_bound_check,
    invariant_measure,
    minorization,
    small_set_search,
    two_small_compose,
)


def band_kernel_twenty():
    """Sparse band kernel on 20 states with two well-connected hubs."""
    n = 20
    mu0 = np.full(n, 0.38 / 17.0)
    mu0[0] = mu0[2] = 0.3
    mu0[1] = 0.02
    rows = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if abs(i - j) <= 2 and (i, j) not in ((0, 2), (2, 0)):
                rows[i, j] = mu0[j]
            else:
                rows[i, j] = 0.05 * mu0[j]
        rows[i] /= rows[i].sum()
    return FiniteKernel(rows), mu0


def main():
    print("== two-state worked example ==")
    kernel = FiniteKernel([[0.9, 0.1], [0.2, 0.8]])
    cert = minorization(kernel, [0, 1], 1)
    dprime = condition_b(kernel, [0, 1])
    print(certificate_text(cert), end="")
    print(f"delta_prime = {dprime}")
    print(f"invariant measure: {invariant_measure(kernel)}")
    cert = replace(cert, delta_prime=dprime)
    worst = contraction_check(kernel, cert)
    eps = cert.delta * cert.delta_prime
    print(f"worst exact two-step contraction ratio {worst:.4f} "
          f"<= certified 1 - delta delta_prime = {1 - eps:.4f}")
    gap = geometric_bound_check(kernel, cert, n=50)
    print(f"geometric bound 2 (1 - {eps:.2f})^floor(n/2) over n = 0..50: "
          f"worst distance-minus-bound {gap:.2e} (negative = slack)")

    print("\n== composing two overlapping small sets ==")
    half = minorization(kernel, [0], 1)
    composed = two_small_compose(kernel, half, [1])
    print(f"one-step certificate on {{0}}: delta = {half.delta}")
    print(f"composed two-step certificate on {{0, 1}}: delta = {composed.delta}, "
          f"m = {composed.m}")

    print("\n== constructive search on a 20-state band kernel ==")
    kernel20, mu0 = band_kernel_twenty()
    fine = small_set_search(kernel20, mu0)
    print(f"singleton partition: K = {fine.K}, delta = {fine.delta:.6f} "
          f"(= mu0(V) mu0(E) / 8 with V cell mass {fine.v_cell_mass})")

    print("\n== drift condition on a reflecting birth-death chain ==")
    n = 6
    rows = np.zeros((n, n))
    for i in range(n):
        down = max(i - 1, 0)
        up = min(i + 1, n - 1)
        rows[i, down] += 0.7
        rows[i, up] += 0.3
    chain = FiniteKernel(rows)
    v = 2.0 ** np.arange(n)
    for k_set, c, lam in (([0], 0.95, 1.3), ([0], 0.5, 1.3), ([0], 0.95, 1.2)):
        bad = drift_condition_check(chain, v, k_set, c, lam)
        verdict = "holds" if not bad else f"violated at states {bad}"
        print(f"PV <= {c} V + {lam} 1_K with K = {k_set}: {verdict}")


if __name__ == "__main__":
    main()
