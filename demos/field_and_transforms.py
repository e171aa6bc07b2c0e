"""Walk through the spectral field layer: norms, transforms, dealiasing.

Fields live in the eigenbasis of 1 - d^2/dxi^2 on the periodic unit
interval, stored as flat coefficient vectors [c0, a1, b1, a2, b2, ...].
This script checks the pieces a simulation relies on: the basis is
orthonormal in the weighted inner product, grid transforms round-trip,
the stepper's nonlinearity N(u) = u - P(u) through the dealiased grid
matches an independent quadrature projection, and the semigroup e^{-Lt},
the per-slot factors e^{-l_k t}, smooths rough fields at the advertised rate.
"""

import numpy as np

from glmix.field import (
    coeffs_to_values,
    eigenvalues,
    norm_gamma,
    scaled_random_field,
    sup_norm_values,
    values_to_coeffs,
)
from glmix.config import RunConfig
from glmix.integrator import ExponentialEulerStepper


def synthesize(coeffs, xs, deriv=False):
    """Direct trigonometric synthesis (or its derivative), the slow reference."""
    n_modes = (coeffs.size - 1) // 2
    lam = eigenvalues(n_modes)
    vals = np.zeros_like(xs) if deriv else np.full_like(xs, coeffs[0] / np.sqrt(lam[0]))
    for k in range(1, n_modes + 1):
        scale = np.sqrt(2.0 / lam[2 * k])
        w = 2.0 * np.pi * k
        if deriv:
            vals += scale * w * (-coeffs[2 * k - 1] * np.sin(w * xs)
                                 + coeffs[2 * k] * np.cos(w * xs))
        else:
            vals += scale * (coeffs[2 * k - 1] * np.cos(w * xs)
                             + coeffs[2 * k] * np.sin(w * xs))
    return vals


def slot_basis(n_modes):
    """All coefficient slots as (label, field) pairs, in storage order."""
    labels = ["c0"] + [f"{ab}{k}" for k in range(1, n_modes + 1) for ab in "ab"]
    return list(zip(labels, np.eye(2 * n_modes + 1)))


def h_inner(f_vals, f_der, g_vals, g_der):
    """Inner product <f, g> + <f', g'> by the exact periodic trapezoid rule."""
    return float(np.mean(f_vals * g_vals + f_der * g_der))


def main():
    n_modes = 8
    xs = np.linspace(0.0, 1.0, 2048, endpoint=False)
    basis = slot_basis(n_modes)
    vals = [synthesize(b, xs) for _, b in basis]
    ders = [synthesize(b, xs, deriv=True) for _, b in basis]

    print("== basis orthonormality in the weighted inner product ==")
    gram_err = 0.0
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            inner = h_inner(vals[i], ders[i], vals[j], ders[j])
            gram_err = max(gram_err, abs(inner - float(i == j)))
    print(f"worst |<e_i, e_j> - delta_ij| over {len(basis)} slots: {gram_err:.2e}")

    print("\n== norms of a preset random field ==")
    u = scaled_random_field(n_modes, 10.0, gamma=1.0)
    print(f"norm gamma=1 (target 10): {norm_gamma(u, 1.0):.12f}")
    print(f"norm gamma=0:             {norm_gamma(u, 0.0):.6f}")
    print(f"sup norm on the grid:     {float(sup_norm_values(u, n_modes)):.6f}")

    print("\n== grid round-trip ==")
    back = values_to_coeffs(coeffs_to_values(u, n_modes, 64), n_modes)
    print(f"max coefficient error after coeffs_to_values/values_to_coeffs: "
          f"{np.abs(back - u).max():.2e}")

    print("\n== dealiased polynomial evaluation ==")
    params = RunConfig(n_modes=n_modes, poly=[0.0, -1.0, 0.0, 1.0]).params()
    stepper = ExponentialEulerStepper(params)
    nu = stepper.nonlinearity(u)
    # independent route: evaluate N(u) = u - P(u) = 2u - u^3 pointwise from
    # the direct synthesis and project onto each basis slot by quadrature;
    # the dealiased grid computation must reproduce exactly this projection
    ref = 2.0 * synthesize(u, xs) - synthesize(u, xs) ** 3
    ref_der = (2.0 - 3.0 * synthesize(u, xs) ** 2) * synthesize(
        u, xs, deriv=True
    )
    projected = np.array(
        [h_inner(ref, ref_der, vals[j], ders[j]) for j in range(len(basis))]
    )
    print(f"max |grid route - quadrature projection| for 2u - u^3: "
          f"{np.abs(nu - projected).max():.2e}")

    print("\n== semigroup smoothing ==")
    rough = scaled_random_field(64, 1.0, gamma=0.0)
    for t in (0.001, 0.01, 0.1):
        lhs = norm_gamma(rough * np.exp(-eigenvalues(64) * t), 0.5)
        rhs = t ** -0.5 * norm_gamma(rough, 0.0)
        print(f"t = {t:5.3f}: norm_0.5(e^(-Lt) u) = {lhs:9.4f} "
              f"vs t^(-1/2) norm_0(u) = {rhs:9.4f}, bound holds: {lhs <= rhs}")


if __name__ == "__main__":
    main()
