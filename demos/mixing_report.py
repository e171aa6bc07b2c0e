"""Measure convergence of ensemble laws from two different start points.

Two ensembles of the same model are started from a zero field and from a
moderate random field.  At each report time their laws are compared through
a fixed six-column observable projection (weighted norm plus the five
lowest coefficients) with a histogram total-variation proxy; the resampling
floor estimated by half-splitting one ensemble against itself tells how
small a distance the sample size can resolve.  The second half prints the
uniform second-moment table behind the same machinery.
"""

import numpy as np

from glmix.config import resolve_config
from glmix.mixing import EnsembleSpec, mixing_report, moment_bound, report_summary

CFG = """\
[model]
n_modes = 8
dt = 0.015625
t_final = 4.0
seed = 7

[ensemble]
ic1 = zero
ic2 = scaled-random:100.0
n_traj = 400
n_boot = 100
"""


def main():
    cfg = resolve_config(CFG)
    spec = EnsembleSpec(
        initial_conditions=[cfg.ic_array(0), cfg.ic_array(1)],
        n_traj=cfg.n_traj,
        params=cfg.params(),
        gamma=cfg.gamma,
        p=cfg.p,
    )

    print("== law distance track ==")
    report = mixing_report(spec, times=cfg.resolved_times(), n_boot=cfg.n_boot,
                           threads=2)
    print("t    distance  stderr    (resampling floor "
          f"{report.fit.floor:.3f})")
    for j, t in enumerate(report.times):
        print(f"{t:3.0f}  {report.distances[j]:8.4f}  "
              f"{report.distance_stderr[j]:8.4f}")
    print("\nfitted decay summary:")
    print(report_summary(report), end="")
    print("\nboth chains reach the resolvable floor already at t = 1, so no")
    print("decay window remains and the fit correctly reports 'not"
          " identifiable'\nrather than inventing a rate from floor noise.")

    print("\n== uniform second-moment table at t = 1, default model ==")
    full = resolve_config("[ensemble]\nic1 = zero\nic2 = scaled-random:100.0\n"
                          "n_traj = 200\n")
    full_spec = EnsembleSpec(
        initial_conditions=[full.ic_array(0), full.ic_array(1)],
        n_traj=full.n_traj,
        params=full.params(),
        gamma=full.gamma,
        p=full.p,
    )
    table = moment_bound(full_spec, threads=2)
    for i in range(table.estimate.size):
        print(f"start {i}: E||u(1)||^2 = {table.estimate[i]:.5f} "
              f"+- {1.96 * table.stderr[i]:.5f}  ({table.n_traj} trajectories, "
              f"{table.n_aborted[i]} aborted)")
    print(f"max pairwise ratio {table.max_ratio:.3f}, ratio test "
          f"{'ok' if table.ratio_ok else 'FAIL'}, interval overlap "
          f"{'ok' if table.ci_overlap_ok else 'FAIL'}")


if __name__ == "__main__":
    main()
