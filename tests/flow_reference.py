"""A pure-Python reference for the compiled mean-field core, the mf_
functions of src/vrrw/_walk.c, as walk.step is the reference of the
compiled walk: plain float operations in the core's order, every sum added
in site order and every power by math.pow. The tests compare the core with
it bit for bit.

A point is a list of floats and a matrix a list of rows. A failure raises
Stop with the error type the package raises for it and, in a flow, the step
it happened at.
"""

import math
from sys import float_info

from vrrw.errors import BoundaryJacobianError, DegenerateSupportError, NumericError, ValidationError


class Stop(Exception):
    """A failure of the reference: the package's error type for it, and the
    flow step it stopped at (None outside a flow)."""

    def __init__(self, kind, step=None):
        super().__init__(kind.__name__, step)
        self.kind, self.step = kind, step


def total(values):
    """The sum of values, added one by one in site order."""
    out = 0.0
    for v in values:
        out += v
    return out


def powers(x, alpha):
    """s = (x_j / m)^alpha and m = max x."""
    m = 0.0
    for v in x:
        m = v if v > m else m
    if not m > 0.0:
        raise Stop(DegenerateSupportError)
    if any(v < 0.0 for v in x):
        raise Stop(ValidationError)
    return [math.pow(v / m, alpha) for v in x], m


def pieces(a, alpha, x):
    """s, f = A s and core = <s, f>, each sum in site order, and m."""
    s, m = powers(x, alpha)
    f, core = [], 0.0
    for i, row in enumerate(a):
        fi = 0.0
        for aij, sj in zip(row, s):
            fi += aij * sj
        f.append(fi)
        core += s[i] * fi
    return s, f, core, m


def _vanishing(a, x):
    """The error for a sum over A_ij, i and j in supp x, below the double range."""
    on = [j for j, v in enumerate(x) if v > 0]
    return NumericError if any(a[i][j] > 0 for i in on for j in on) else DegenerateSupportError


def core_pieces(a, alpha, x):
    """pieces(a, alpha, x) whose core is in the normal double range."""
    s, f, core, m = pieces(a, alpha, x)
    if not core >= float_info.min:
        raise Stop(_vanishing(a, x))
    return s, f, core


def energy(a, alpha, x):
    """H(x) = core m^alpha m^alpha."""
    _, _, core, m = pieces(a, alpha, x)
    try:
        scale = math.pow(m, alpha)
    except OverflowError:
        raise Stop(NumericError) from None
    h = core * scale * scale
    if h > float_info.max:
        raise Stop(NumericError)
    if not h >= float_info.min:
        raise Stop(_vanishing(a, x))
    return h


def measure(a, alpha, x):
    """pi(x) = s f / core."""
    s, f, core = core_pieces(a, alpha, x)
    return [sj * fj / core for sj, fj in zip(s, f)]


def derivative(a, alpha, x):
    """dH/dt = 2 alpha H sum_{x_j > 0} (pi_j - x_j)^2 / x_j, as
    ((pi_j - x_j) * ((pi_j - x_j) / x_j)) added in site order."""
    s, f, core = core_pieces(a, alpha, x)
    gaps = 0.0
    for sj, fj, xj in zip(s, f, x):
        if xj > 0:
            gap = sj * fj / core - xj
            gaps += gap * (gap / xj)
    return 2.0 * alpha * energy(a, alpha, x) * gaps


def jacobian(a, alpha, x):
    """The Jacobian of F at x, as numpy's elementwise expressions take it:
    with t = (x / m)^(alpha - 1), rho_j = t_j f_j / core and
    pi_i = s_i f_i / core, entry (i, j) is
    alpha / m * ((delta_ij rho_i + (s_i a_ij) (t_j / core)) - 2 (pi_i rho_j)) - delta_ij.
    A point with a zero coordinate needs alpha >= 2."""
    if 0.0 in x and alpha < 2.0:
        raise Stop(BoundaryJacobianError)
    s, f, core = core_pieces(a, alpha, x)
    t, m = powers(x, alpha - 1.0)
    rho = [tj * fj / core for tj, fj in zip(t, f)]
    pi = [sj * fj / core for sj, fj in zip(s, f)]
    scale, n = alpha / m, len(x)
    return [
        [
            scale * (((rho[i] if i == j else 0.0) + s[i] * a[i][j] * (t[j] / core)) - 2.0 * (pi[i] * rho[j]))
            - (1.0 if i == j else 0.0)
            for j in range(n)
        ]
        for i in range(n)
    ]


def pairwise(values):
    """The sum of up to 128 values as numpy's add.reduce adds a contiguous
    row: in site order under 8 values, else in 8 running sums joined as a
    tree, and the last n % 8 values added after it in site order."""
    n = len(values)
    if n < 8:
        return total(values)
    r, i = list(values[:8]), 8
    while i < n - n % 8:
        r = [rj + v for rj, v in zip(r, values[i : i + 8])]
        i += 8
    return total([((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))] + values[i:])


def kernel(a, alpha, eps, x):
    """The frozen kernel at y = x + eps: row i is a_ij (y_j / m_i)^alpha over
    the row's pairwise sum, m_i the largest y_j with a_ij > 0."""
    if eps < 0:
        raise Stop(ValidationError)
    y = [v + eps for v in x]
    rows = []
    for row in a:
        reach = [yj if aij > 0 else 0.0 for aij, yj in zip(row, y)]
        weights = [aij * sj for aij, sj in zip(row, powers(reach, alpha)[0])]
        norm = pairwise(weights)
        rows.append([w / norm for w in weights])
    return rows


def project(x):
    """The simplex projection of x and how many passes it took: 0 for a
    simplex point, which is returned as it is."""
    for passes in range(16):
        if min(x) >= 0.0 and abs(total(x) - 1.0) <= 1e-12:
            return x, passes
        if not all(math.isfinite(v) for v in x):
            raise Stop(NumericError)
        theta, csum = None, 0.0
        for m, v in enumerate(sorted(x, reverse=True), 1):
            csum += v
            shift = (csum - 1.0) / m
            if v - shift > 0.0:
                theta = shift
        if theta is None:
            raise Stop(NumericError)
        x = [v - theta if v - theta > 0.0 else 0.0 for v in x]
    raise Stop(NumericError)


def field(a, alpha, x):
    """F(x) = pi(w) - x, w the projection of x with x's zeros kept at 0, and
    whether the projection moved x."""
    w, passes = project(x)
    w = [0.0 if xj == 0.0 else wj for xj, wj in zip(x, w)]
    s, f, core = core_pieces(a, alpha, w)
    return [sj * fj / core - xj for sj, fj, xj in zip(s, f, x)], passes > 0


def flow(a, alpha, x0, steps, dt, cap=0.75):
    """The RK4 flow from x0: its states, energies and projection clips. A
    start above the cap on a site without a loop lifts the cap."""
    loop_free = [row[j] == 0.0 for j, row in enumerate(a)]
    if any(free and v > cap for free, v in zip(loop_free, x0)):
        cap = math.inf
    states, energies, clips = [list(x0)], [energy(a, alpha, x0)], 0
    half, sixth = 0.5 * dt, dt / 6.0
    for k in range(1, steps + 1):
        x = states[-1]
        try:
            k1, c1 = field(a, alpha, x)
            k2, c2 = field(a, alpha, [xj + half * kj for xj, kj in zip(x, k1)])
            k3, c3 = field(a, alpha, [xj + half * kj for xj, kj in zip(x, k2)])
            k4, c4 = field(a, alpha, [xj + dt * kj for xj, kj in zip(x, k3)])
            clips += c1 + c2 + c3 + c4
            nxt = [
                xj + sixth * (k1j + 2.0 * k2j + 2.0 * k3j + k4j)
                for xj, k1j, k2j, k3j, k4j in zip(x, k1, k2, k3, k4)
            ]
            try:
                nxt, passes = project(nxt)
            except Stop:
                raise Stop(NumericError) from None
            clips += passes > 0
            if 0.0 in x0:
                nxt = [0.0 if v0 == 0.0 else v for v0, v in zip(x0, nxt)]
                norm = total(nxt)
                nxt = [v / norm for v in nxt]
            if any(free and v > cap for free, v in zip(loop_free, nxt)):
                raise Stop(ValidationError)
            energies.append(energy(a, alpha, nxt))
        except Stop as stop:
            raise Stop(stop.kind, k) from None
        states.append(nxt)
    return states, energies, clips
