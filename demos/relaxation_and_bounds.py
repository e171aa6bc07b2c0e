"""Simulate the full nonlinear model and exercise the decay bounds.

From a very large start the cubic damping dominates: the weighted norm of a
run_ensemble trajectory collapses to order one within a fraction of a time
unit, independently of the start size.  The second half of the script
isolates the scalar mechanism behind that collapse, y' = -c y^q, and
compares two candidate comparison constants against the closed-form
solution: the corrected constant ((q-1) c t)^(-1/(q-1)) always dominates
the solution, while the variant with q in place of q-1 fails already for
q = 3 at moderate y0.
"""

from glmix.config import resolve_config
from glmix.field import norm_gamma, scaled_random_field
from glmix.integrator import ode_comparison, run_ensemble


def main():
    cfg = resolve_config("[model]\nt_final = 3.0\n")
    params = cfg.params()

    print("== relaxation from large starts ==")
    print("start norm_1   t=1       t=2       t=3")
    for target in (1e2, 1e4):
        x = scaled_random_field(params.n_modes, target, gamma=1.0)
        states = run_ensemble(x, params, [0]).states[0]
        vals = [norm_gamma(s, 1.0) for s in states]
        print(f"{target:10.0e}   " + "  ".join(f"{v:8.4f}" for v in vals[1:]))

    print("\n== scalar decay bounds y' = -c y^q ==")
    print("q  c    y0      t     y(t)       corrected  literal    verdicts")
    for q in (3, 5, 7):
        for y0 in (2.0, 10.0):
            r = ode_comparison(q, 1.0, y0, 0.5)
            print(
                f"{q}  1.0  {y0:5.1f}  0.50  {r.y_final:.6f}  "
                f"{r.corrected_bound:.6f}  {r.literal_bound:.6f}   "
                f"corrected={'ok' if r.corrected_holds else 'FAIL'} "
                f"literal={'ok' if r.literal_holds else 'FAIL'}"
            )
    print("\nthe literal constant already fails at (q, y0, t) = (3, 10, 0.5):")
    r = ode_comparison(3, 1.0, 10.0, 0.5)
    print(f"  y(t) = {r.y_final:.6f} > literal bound {r.literal_bound:.6f}, "
          f"corrected bound {r.corrected_bound:.6f} holds")


if __name__ == "__main__":
    main()
