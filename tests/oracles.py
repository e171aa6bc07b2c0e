"""Independent oracle routes used by the test suite.

Everything here recomputes quantities from first principles with plain
numpy summation, dense finite differences, or coefficient convolution, so
agreement with the package is a genuine two-route check.  In particular
nothing in this file calls scipy.fft or the package transforms.
"""

import math

import numpy as np

TWO_PI = 2.0 * np.pi


def ell(k):
    """Eigenvalue 1 + 4 pi^2 k^2 of 1 - d^2/dxi^2 for frequency k."""
    k = np.asarray(k, dtype=float)
    return 1.0 + 4.0 * np.pi**2 * k**2


def synth_scale(n_modes):
    """Physical amplitude sqrt(2/l_k) of each flat-layout slot (1 for c0)."""
    k = np.zeros(2 * n_modes + 1)
    k[1::2] = np.arange(1, n_modes + 1)
    k[2::2] = np.arange(1, n_modes + 1)
    s = np.sqrt(2.0 / ell(k))
    s[0] = 1.0
    return s


def synthesize(coeffs, xs, deriv=0):
    """Evaluate the field (or its deriv-th derivative) by direct summation.

    coeffs is the flat layout [c0, a1, b1, ...].  The d-th derivative of
    cos(2 pi k xi) is (2 pi k)^d cos(2 pi k xi + d pi/2), likewise for sin,
    so each mode contributes an explicitly phase-shifted trig term.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    xs = np.asarray(xs, dtype=float)
    n_modes = (coeffs.size - 1) // 2
    s = synth_scale(n_modes)
    out = np.zeros_like(xs)
    if deriv == 0:
        out += coeffs[0]
    shift = deriv * np.pi / 2.0
    for k in range(1, n_modes + 1):
        theta = TWO_PI * k * xs
        fac = (TWO_PI * k) ** deriv
        out += coeffs[2 * k - 1] * s[2 * k - 1] * fac * np.cos(theta + shift)
        out += coeffs[2 * k] * s[2 * k] * fac * np.sin(theta + shift)
    return out


def h_norm_by_quadrature(coeffs, n_points=4096):
    """sqrt(int u^2 + (u')^2) by the periodic rectangle rule.

    The rule is exact for trigonometric polynomials once n_points exceeds
    twice the integrand bandwidth.
    """
    xs = np.arange(n_points) / n_points
    u = synthesize(coeffs, xs)
    up = synthesize(coeffs, xs, deriv=1)
    return float(np.sqrt(np.mean(u * u + up * up)))


def rectangle_analysis(values, n_modes):
    """Recover the flat coefficient layout from uniform grid samples.

    Plain rectangle-rule inner products against 1, cos, sin; exact when the
    sample count resolves the bandwidth.
    """
    values = np.asarray(values, dtype=float)
    m = values.size
    xs = np.arange(m) / m
    s = synth_scale(n_modes)
    out = np.zeros(2 * n_modes + 1)
    out[0] = values.mean()
    for k in range(1, n_modes + 1):
        ck = 2.0 * np.mean(values * np.cos(TWO_PI * k * xs))
        sk = 2.0 * np.mean(values * np.sin(TWO_PI * k * xs))
        out[2 * k - 1] = ck / s[2 * k - 1]
        out[2 * k] = sk / s[2 * k]
    return out


def to_complex(coeffs):
    """Two-sided complex Fourier coefficients c_{-N}..c_N (origin at N)."""
    coeffs = np.asarray(coeffs, dtype=float)
    n_modes = (coeffs.size - 1) // 2
    s = synth_scale(n_modes)
    c = np.zeros(2 * n_modes + 1, dtype=complex)
    c[n_modes] = coeffs[0]
    for k in range(1, n_modes + 1):
        a = coeffs[2 * k - 1] * s[2 * k - 1]
        b = coeffs[2 * k] * s[2 * k]
        c[n_modes + k] = 0.5 * (a - 1j * b)
        c[n_modes - k] = 0.5 * (a + 1j * b)
    return c


def from_complex(c, origin, n_modes):
    """Truncate a two-sided complex array back to the flat layout."""
    s = synth_scale(n_modes)
    out = np.zeros(2 * n_modes + 1)
    out[0] = c[origin].real
    for k in range(1, n_modes + 1):
        ck = c[origin + k] if origin + k < c.size else 0.0
        out[2 * k - 1] = 2.0 * np.real(ck) / s[2 * k - 1]
        out[2 * k] = -2.0 * np.imag(ck) / s[2 * k]
    return out


def poly_by_convolution(pcoeffs, coeffs):
    """Coefficients of P(u) via exact convolution of Fourier sequences.

    Powers of u are built with np.convolve on the two-sided complex
    coefficients, then the polynomial is assembled and truncated back to the
    input bandwidth.  This is the independent route against pseudospectral
    dealiased evaluation.
    """
    pcoeffs = np.asarray(pcoeffs, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    n_modes = (coeffs.size - 1) // 2
    deg = pcoeffs.size - 1
    c = to_complex(coeffs)
    m = deg * n_modes
    acc = np.zeros(2 * m + 1, dtype=complex)
    acc[m] = pcoeffs[0]
    power = np.array([1.0 + 0j])
    origin = 0
    for j in range(1, deg + 1):
        power = np.convolve(power, c)
        origin += n_modes
        if pcoeffs[j] != 0.0:
            lo = m - origin
            acc[lo : lo + power.size] += pcoeffs[j] * power
    return from_complex(acc, m, n_modes)


def constant_mode_track(pcoeffs, y0, h, n_steps):
    """Scalar exponential-Euler recursion of an unforced constant mode.

    A spatially constant field u = y obeys y' = -y + N(y) with
    N(y) = y - P(y) and l_0 = 1, so one step of size h of the scheme is
    y <- e^{-h} y + (1 - e^{-h}) N(y).  P is evaluated by plain Horner
    recursion in Python floats.  Returns y_0..y_{n_steps}.
    """
    decay = math.exp(-h)
    phi = -math.expm1(-h)
    y = float(y0)
    track = [y]
    for _ in range(n_steps):
        p = 0.0
        for c in reversed(pcoeffs):
            p = p * y + float(c)
        y = decay * y + phi * (y - p)
        track.append(y)
    return np.array(track)


def convolution_second_moment(q, t, gamma):
    """E ||W_L(t)||_gamma^2 of the stochastic convolution, in closed form.

    q holds the diagonal amplitudes q_0..q_N; mode k >= 1 owns two slots.
    Every slot is an independent Ornstein-Uhlenbeck coordinate started at 0
    with variance q_k^2 (1 - e^{-2 l_k t}) / (2 l_k), weighted by
    l_k^{2 gamma} in the norm.
    """
    q = np.asarray(q, dtype=float)
    k = np.arange(q.size)
    lam = ell(k)
    slots = np.where(k == 0, 1.0, 2.0)
    var = q**2 * -np.expm1(-2.0 * lam * t) / (2.0 * lam)
    return float(np.sum(slots * lam ** (2.0 * gamma) * var))


def constant_mode_coupling(states):
    """Bound on the cubic coupling that a constant-mode track neglects.

    For P(u) = u^3 - u and u = c0 + v with spatial mean <v> = 0, the
    constant mode of u^3 is c0^3 + 3 c0 <v^2> + <v^3>.  Returns
    (3 |c0| + sup|v|) <v^2>, which bounds |3 c0 <v^2> + <v^3>|, together
    with the bound |c0| + sup|v| on sup|u|.  <v^2> = sum coeff^2 / l_k by
    Parseval and sup|v| <= sum |coeff| sqrt(2 / l_k) by the triangle
    inequality; states are (..., slots) flat coefficient rows.
    """
    states = np.asarray(states, dtype=float)
    n_modes = (states.shape[-1] - 1) // 2
    s = synth_scale(n_modes)[1:]
    c0 = np.abs(states[..., 0])
    v = states[..., 1:]
    mean_sq = np.sum(v * v * (0.5 * s * s), axis=-1)
    sup_v = np.sum(np.abs(v) * s, axis=-1)
    return (3.0 * c0 + sup_v) * mean_sq, c0 + sup_v


def fd_eigenvalue(k, h):
    """Apply 1 - d^2/dxi^2 to a sampled cosine with a dense FD stencil."""
    m = int(round(1.0 / h))
    xs = np.arange(m) / m
    u = np.cos(TWO_PI * k * xs)
    upp = (np.roll(u, -1) - 2.0 * u + np.roll(u, 1)) * m * m
    w = u - upp
    j = int(np.argmax(np.abs(u)))
    return w[j] / u[j]


def fd_eigenvalue_richardson(k, h=1.0 / 1024.0):
    """Richardson-extrapolated FD eigenvalue, O(h^4) accurate."""
    return (4.0 * fd_eigenvalue(k, h / 2.0) - fd_eigenvalue(k, h)) / 3.0


def fd_heat_decay(k, t, n_grid=256):
    """Decay factor of mode k under u_t = u_xx - u by explicit FD stepping."""
    xs = np.arange(n_grid) / n_grid
    u = np.cos(TWO_PI * k * xs)
    h2 = 1.0 / n_grid**2
    n_steps = int(np.ceil(t / (h2 / 4.0)))
    dt = t / n_steps
    for _ in range(n_steps):
        upp = (np.roll(u, -1) - 2.0 * u + np.roll(u, 1)) / h2
        u = u + dt * (upp - u)
    return float(u[0])


def small_set_search_reference(rows, mu, cells):
    """The cell-triple scan of the two-step small-set search, one triple at a time.

    rows is the kernel matrix, mu the strictly positive reference measure and
    cells the partition as sorted index arrays in search order.  Scans every
    (a, b, c) with S^2 = {rows / mu > 1/2} covering 7/8 of a x b and of b x c,
    keeping the largest (delta, -a, -b, -c).  Returns (K, delta, nu weights,
    mu0(V), mu0(E)) for the winner, or None when no triple passes with a
    delta that does not underflow to 0.
    """
    s2 = rows / mu[None, :] > 0.5
    cell_mass = np.array([mu[c].sum() for c in cells])
    n_cells = len(cells)
    cover = np.empty((n_cells, n_cells))
    for a in range(n_cells):
        for b in range(n_cells):
            block = s2[np.ix_(cells[a], cells[b])]
            cover[a, b] = (mu[cells[a]][:, None] * mu[cells[b]][None, :] * block).sum()
    good_pair = cover >= 0.875 * cell_mass[:, None] * cell_mass[None, :]

    best = None
    for a in range(n_cells):
        for b in range(n_cells):
            if not good_pair[a, b]:
                continue
            v_cell = cells[b]
            v_mass = cell_mass[b]
            sx_in_v = (s2[:, v_cell] * mu[v_cell][None, :]).sum(axis=1)
            for c in range(n_cells):
                if not good_pair[b, c]:
                    continue
                d_states = cells[a][sx_in_v[cells[a]] >= 0.75 * v_mass]
                sz_in_v = (s2[np.ix_(v_cell, cells[c])] * mu[v_cell][:, None]).sum(axis=0)
                e_states = cells[c][sz_in_v >= 0.75 * v_mass]
                if d_states.size == 0 or e_states.size == 0:
                    continue
                e_mass = float(mu[e_states].sum())
                delta = v_mass * e_mass / 8.0
                key = (delta, -a, -b, -c)
                if delta > 0.0 and (best is None or key > best[0]):
                    best = (key, d_states, e_states, e_mass, delta, v_mass)

    if best is None:
        return None
    _, d_states, e_states, e_mass, delta, v_mass = best
    nu = np.zeros(rows.shape[0])
    nu[e_states] = mu[e_states] / e_mass
    return tuple(int(x) for x in d_states), float(delta), nu, float(v_mass), e_mass


def random_pair_ratios(rng, q, n_pairs):
    """||(mu - nu) Q||_1 / ||mu - nu||_1 for n_pairs random probability pairs.

    By Dobrushin's inequality no ratio exceeds the worst Dirac-pair ratio
    max_{x,y} ||Q(x, .) - Q(y, .)||_1 / 2.  mu and nu are multiples of
    2^-30 of mass exactly 1 (multinomial counts around normalized uniform
    draws), so mu - nu is exact and sums to exactly 0, and each ratio is
    within about n eps of its true value however close mu and nu are.
    Rounded float pairs would not do: a difference summing to s instead of
    0 can exceed the Dirac bound by about |s| / ||mu - nu||_1.
    """
    weights = rng.random((n_pairs, 2, q.shape[0]))
    weights /= weights.sum(axis=2, keepdims=True)
    pairs = rng.multinomial(2**30, weights) / 2.0**30
    diffs = pairs[:, 0] - pairs[:, 1]
    return np.abs(diffs @ q).sum(axis=1) / np.abs(diffs).sum(axis=1)


def double_well_rows(n, h=0.3, sigma=0.6):
    """Grid on [-2, 2] of x -> x + h (x - x^3) + N(0, sigma^2), rows normalized."""
    x = np.linspace(-2.0, 2.0, n)
    drift = x + h * (x - x**3)
    w = np.exp(-0.5 * ((x[None, :] - drift[:, None]) / sigma) ** 2)
    return w / w.sum(axis=1, keepdims=True)


def law_distance_reference(obs_a, obs_b, p, weighted=True):
    """The histogram law distance binned axis by axis, as separate counts.

    obs_a and obs_b are (n, k) observable rows.  Each axis is cut into 32
    equal-width bins over the pooled range (bin 0 on a constant axis), one
    axis at a time; the cell key is built by Horner steps, each cloud is
    counted on its own with np.unique, and the two counts are aligned on the
    union of their keys.  V is (axis-0 bin center)^p + 1, or 1 when weighted
    is False.
    """
    obs_a = np.asarray(obs_a, dtype=float)
    obs_b = np.asarray(obs_b, dtype=float)
    pooled = np.vstack([obs_a, obs_b])
    lo = pooled.min(axis=0)
    hi = pooled.max(axis=0)
    width = (hi - lo) / 32

    def codes(obs):
        idx = np.zeros(obs.shape, dtype=np.int64)
        for j in range(obs.shape[1]):
            if width[j] > 0.0:
                idx[:, j] = np.clip(
                    np.floor((obs[:, j] - lo[j]) / width[j]).astype(np.int64), 0, 31
                )
        key = np.zeros(obs.shape[0], dtype=np.int64)
        for j in range(obs.shape[1]):
            key = key * 32 + idx[:, j]
        return key

    keys_a, counts_a = np.unique(codes(obs_a), return_counts=True)
    keys_b, counts_b = np.unique(codes(obs_b), return_counts=True)
    keys = np.union1d(keys_a, keys_b)
    pa = np.zeros(keys.size)
    pb = np.zeros(keys.size)
    pa[np.searchsorted(keys, keys_a)] = counts_a / obs_a.shape[0]
    pb[np.searchsorted(keys, keys_b)] = counts_b / obs_b.shape[0]
    if not weighted:
        v = np.ones(keys.size)
    elif width[0] > 0.0:
        i0 = keys // 32 ** (obs_a.shape[1] - 1)
        v = (lo[0] + (np.asarray(i0, dtype=float) + 0.5) * width[0]) ** p + 1.0
    else:
        v = np.full(keys.size, lo[0]) ** p + 1.0
    return float(np.sum(v * np.abs(pa - pb)))


def philox_generator(seed, trajectory_id):
    """The Philox stream keyed by (seed, trajectory id) that trajectories drew before SFC64.

    Tests whose literals were recorded on those streams install it in place
    of glmix.integrator.trajectory_generator (the philox_streams fixture).
    """
    key = np.array([np.uint64(seed), np.uint64(trajectory_id)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
