"""Inspect the admissible noise class and the exact per-mode OU steps.

The diagonal noise amplitudes q_k must be pinched between power-law tails
c1 k^(-2 alpha) <= q_k <= c2 k^(-2 beta) beyond a free head k <= k_star,
with beta in (alpha - 1/8, alpha] and alpha >= 2.  The default spectrum
q_k = k^(-4) for k > 3 (zero on the head) is degenerate: the constant mode
and the first three frequencies receive no direct forcing.  Without drift
the integrator draws exact Ornstein-Uhlenbeck increments per coefficient
slot, so ensemble statistics of W_L can be compared against closed forms
with no time-stepping bias.
"""

from dataclasses import replace

import numpy as np

from glmix.config import RunConfig
from glmix.field import eigenvalues
from glmix.integrator import run_ensemble


def main():
    spec = RunConfig(n_modes=16).spectrum()
    print("== default spectrum ==")
    print("admissible: True")  # NoiseSpectrum refuses any other spectrum
    heads = " ".join(f"q{k}={spec.q[k]:.2e}" for k in range(6))
    print(f"amplitudes: {heads} ... q16={spec.q[16]:.2e}")
    print(f"degenerate head: modes 0..{spec.k_star} carry zero noise")

    print("\n== what a violation report looks like ==")
    q = spec.q.copy()
    q[9] = 1.5
    try:
        replace(spec, q=q)
    except ValueError as err:
        for line in str(err).splitlines()[1:]:
            print(f"  {line}")

    print("\n== step standard deviations saturate at the stationary law ==")
    lam = eigenvalues(16)
    stationary = spec.per_slot() / np.sqrt(2.0 * lam)
    slot = 2 * 4 - 1  # cosine slot of the first forced mode k = 4
    for h in (1e-4, 1e-3, 1e-2, 1e-1, 1.0):
        s = spec.step_std(h)[slot]
        print(f"h = {h:7.4f}: s_4(h) = {s:.6e}  (stationary {stationary[slot]:.6e})")

    print("\n== exact sampling vs closed-form variance at t = 1 ==")
    h = 1.0 / 64.0
    n_traj, n_steps = 2000, 64
    params = RunConfig(n_modes=16, dt=h, poly=None, seed=2024).params()
    wl = run_ensemble(np.zeros(33), params, range(n_traj)).states[:, 1]  # records at t = 0, 1
    var_hat = wl.var(axis=0, ddof=1)
    var_exact = spec.per_slot() ** 2 * -np.expm1(-2.0 * lam) / (2.0 * lam)
    forced = spec.per_slot() > 0
    rel = np.abs(var_hat[forced] - var_exact[forced]) / var_exact[forced]
    print(f"{n_traj} trajectories of {n_steps} exact steps:")
    print(f"worst relative variance error over forced slots: {rel.max():.3f}")
    print(f"unforced slots stay exactly zero: {bool(np.all(wl[:, ~forced] == 0.0))}")


if __name__ == "__main__":
    main()
