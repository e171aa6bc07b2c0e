"""Windowed sup norms of simulated paths, shared by the test modules.

The paper's estimates bound sup norms over time windows: the Gaussian sup
of the stochastic convolution W_L and the uniform sup-window moment of Phi.
Unlike oracles.py, this builds them from package code: run_ensemble records
every step of the window and field.sup_norm_values takes each record's grid
sup norm (8 points per mode, at least 64 points).
"""

from dataclasses import replace

import numpy as np

from glmix.field import sup_norm_values
from glmix.integrator import run_ensemble


def window_sup(x, params, traj_ids, t1, t2):
    """Per trajectory, the largest grid sup norm over the steps in (t1, t2].

    The run ends at t2, or at t = 1 (the shortest horizon SimulationParams
    admits) when t2 < 1.  A row that aborts at or before t2 gives NaN.
    """
    k1, k2 = round(t1 / params.dt), round(t2 / params.dt)
    times = params.dt * np.arange(k1 + 1, k2 + 1)
    params = replace(params, t_final=max(k2 * params.dt, 1.0))
    states = run_ensemble(x, params, traj_ids, record_times=times).states
    return sup_norm_values(states, params.n_modes).max(axis=1)


def mean_and_stderr(values):
    """Sample mean and its standard error, std(ddof=1) / sqrt(n)."""
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(values.size))
