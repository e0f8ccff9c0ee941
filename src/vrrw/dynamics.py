"""Mean-field dynamics of the reinforced walk on the occupation simplex.

For an interaction matrix A and exponent alpha > 1, the frozen-occupation
transition kernel, its reversible measure, the interaction energy H, and
the ordinary differential equation driven by

    F(v) = -v + pi(iota(v)),        pi_i(v) = v_i^a (A v^a)_i / H(v),
    H(v)  = <A v^a, v^a>,           iota = Euclidean simplex projection,

are all computed here, together with the analytic Jacobian of F, a fixed
step integrator for the flow, and the fundamental matrix of the frozen
kernel. H is a strict Lyapunov function: it increases along every
non-equilibrium trajectory.

F, H and the projection have one compiled core, the mf_ functions of
_walk.c, which vrrw.files builds at their first use. Every power of a
coordinate, s = (x/m)^a or t = (x/m)^(a-1) with m = max x, is libm's pow
in the core; A s and <s, A s> are summed in site order, so no bit depends
on BLAS; only H and dH/dt carry the scale, as m^a m^a. An underflowed sum
raises NumericError. A point takes one core call: _field_array's for
vector_field, _point's for invariant_measure, lyapunov, lyapunov_derivative,
jacobian, equilibria.classify and each kernel row, graph._project's for the
projection; integrate_flow runs its whole RK4 in the core.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from sys import float_info

import numpy as np

from . import files
from .errors import (
    BoundaryJacobianError,
    DegenerateSupportError,
    NumericError,
    ReducibilityError,
    ValidationError,
    VrrwError,
)
from .graph import (
    LOOPFREE_CAP,
    InteractionMatrix,
    _exponent,
    _nonnegative,
    _number,
    _projection_error,
    _square_array,
    check_loopfree_cap,
    complete_graph,
    coords_of,
    project_to_simplex,  # noqa: F401  (bench/layers.py traces it here)
    simplex_points,
    with_diagonal,
)

log = logging.getLogger(__name__)

#: Imaginary parts above this trigger the symmetrized eigensolver fallback.
_IMAG_TOL = 1e-8

#: Most RK4 steps (t_end / dt) one integrate_flow call takes. The call keeps
#: every state, so a flow this long on n sites holds (n + 2) * 8 MB.
FLOW_STEP_LIMIT = 10**6

#: Steps times sites that one mf_flow call, which a signal cannot interrupt,
#: may take: integrate_flow takes max(1, FLOW_SLICE // n) steps a call. It
#: does not affect the flow.
FLOW_SLICE = 2**18


@dataclass(frozen=True)
class ModelParameters:
    """Interaction matrix, reinforcement exponent, and self-loop weight.

    loop_c = 0 is the pure model (no self-jumps on a hollow matrix);
    loop_c > 0 puts weight c on the diagonal, allowing self-jumps with
    relative weight c at the current site.
    """

    matrix: InteractionMatrix
    alpha: float
    loop_c: float = 0.0

    def __post_init__(self):
        _exponent(self.alpha)
        _nonnegative(self.loop_c, "self-loop weight")
        for name in ("alpha", "loop_c"):  # numpy scalars as the numbers a config hash writes
            if isinstance(getattr(self, name), np.generic):
                object.__setattr__(self, name, getattr(self, name).item())

    @cached_property
    def effective_matrix(self) -> InteractionMatrix:
        """The matrix actually driving transitions: diagonal overridden to
        loop_c when a self-loop weight is configured."""
        if self.loop_c == 0.0:
            return self.matrix
        return with_diagonal(self.matrix, self.loop_c)

    @property
    def size(self) -> int:
        return self.matrix.size

    @staticmethod
    def for_complete_graph(n: int, alpha: float, loop_c: float = 0.0) -> "ModelParameters":
        return ModelParameters(matrix=complete_graph(n), alpha=alpha, loop_c=loop_c)


@dataclass(frozen=True)
class FlowTrajectory:
    """Sampled integral curve of the mean-field field with energy readout."""

    times: np.ndarray
    states: np.ndarray
    lyapunov_values: np.ndarray

    def __iter__(self):
        return iter(zip(self.times, self.states, self.lyapunov_values))

    def write_csv(self, fh) -> None:
        """Write columns t, v_1..v_N, H with 17 significant digits to a text file."""
        n = self.states.shape[1]
        fh.write("t," + ",".join(f"v_{i + 1}" for i in range(n)) + ",H\n")
        for t, v, h in self:
            row = [f"{t:.17g}"] + [f"{x:.17g}" for x in v] + [f"{h:.17g}"]
            fh.write(",".join(row) + "\n")


def _coords(p: ModelParameters, v) -> np.ndarray:
    """coords_of(v) as a vector of p's n coordinates; any other shape raises
    ValidationError, before the compiled core could read past it."""
    x = coords_of(v)
    if x.shape != (p.size,):
        raise ValidationError(f"point must be a vector of {p.size} coordinates, got shape {x.shape}")
    return x


def _compiled(name: str, a: np.ndarray, alpha: float, x: np.ndarray, words: int):
    """The buffer io of `words` doubles after the core's function `name` ran
    on the point x = io[:n] for the n x n entries a, and its status."""
    io = np.empty(words)
    io[: x.size] = x
    a = np.ascontiguousarray(a, dtype=float)
    return io, getattr(files._library(), name)(x.size, a.ctypes.data, alpha, io.ctypes.data)


def _error(status: int, a: np.ndarray, x: np.ndarray) -> VrrwError:
    """The typed error for a failed status of the core at the point x. A sum
    over A_ij, i and j in supp x, below the normal double range is an
    underflow, or exactly 0 when all those A_ij are 0."""
    if status <= files.MF_CANCELLED:
        return _projection_error(status, x)
    if status == files.MF_EMPTY:
        return DegenerateSupportError("point has empty support")
    if status == files.MF_NEGATIVE:
        return ValidationError(f"powers need nonnegative coordinates, got {x.tolist()}")
    if status == files.MF_ENERGY_OVERFLOWS:
        return NumericError("interaction energy overflows the double range")
    what = "scaled interaction energy" if status == files.MF_CORE_VANISHES else "interaction energy"
    on = x > 0
    if np.any(a[np.ix_(on, on)] > 0):
        return NumericError(f"{what} underflows the double range")
    return DegenerateSupportError(f"{what} vanishes on support {np.nonzero(on)[0].tolist()}")


def transition_kernel(p: ModelParameters, eps: float, v) -> np.ndarray:
    """Frozen-occupation jump kernel: row i proportional to A_ij (eps+v_j)^a.

    eps > 0 regularizes the kernel the way the finite-step walk does; at
    eps = 0 each row needs positive interaction with the support of v.
    Row i takes powers of x_j / m_i, with m_i the largest x_j that A_ij > 0
    reaches, so its largest term is an entry of A and no row underflows.
    """
    x = _coords(p, v) + _nonnegative(eps, "kernel regularizer")
    a = p.effective_matrix.entries
    reach = np.where(a > 0, x, 0.0)
    dead = ~(reach.max(axis=1) > 0)
    if np.any(dead):
        raise DegenerateSupportError(
            f"kernel rows {np.nonzero(dead)[0].tolist()} do not reach support {np.nonzero(x > 0)[0].tolist()}"
        )
    rows = a * np.array([_point(a, p.alpha, row)[0] for row in reach])
    return rows / rows.sum(axis=1)[:, None]


#: Offsets, past the core's values, of the statuses _point may check.
_CORE, _ENERGY = 2, 3


def _point(a: np.ndarray, alpha: float, x: np.ndarray, *checks: int):
    """One point's pieces by the core: s = (x/m)^a, t = (x/m)^(a-1), f = A s,
    the scaled energy core = <A s, s> and H = core m^a m^a, m = max x. An
    empty or negative x raises its error, and so does each status of
    `checks` (_CORE, _ENERGY) that failed, in that order."""
    n = x.size
    io, status = _compiled("mf_point", a, alpha, x, 4 * n + 4)
    for failed in (status, *(int(io[4 * n + k]) for k in checks)):
        if failed:
            raise _error(failed, a, x)
    return io[n : 2 * n], io[2 * n : 3 * n], io[3 * n : 4 * n], float(io[4 * n]), float(io[4 * n + 1])


def lyapunov(p: ModelParameters, v) -> float:
    """Interaction energy H(v) = <A v^a, v^a>."""
    return _point(p.effective_matrix.entries, p.alpha, _coords(p, v), _ENERGY)[4]


def invariant_measure(p: ModelParameters, v) -> np.ndarray:
    """Reversible measure of the frozen kernel: pi_i proportional to
    v_i^a (A v^a)_i. Requires positive interaction energy."""
    s, _, field, core, _ = _point(p.effective_matrix.entries, p.alpha, _coords(p, v), _CORE)
    return simplex_points(s * field / core)


def _field_array(a: np.ndarray, alpha: float, x: np.ndarray) -> np.ndarray:
    """-x + pi(iota(x)) for a 1-D array x by the core, with the projection
    keeping the exact zeros of x at zero."""
    io, status = _compiled("mf_field", a, alpha, x, 5 * x.size)
    n = x.size
    if status:
        raise _error(status, a, io[2 * n : 3 * n])
    return io[n : 2 * n]


def vector_field(p: ModelParameters, v) -> np.ndarray:
    """Drift of the occupation measure at v: F(v) = -v + pi(iota(v)).

    Accepts any vector with unit coordinate sum (within 1e-9) and evaluates
    F at v / sum(v); components of the result sum to zero and vanish on the
    zero set of v.
    """
    x = _coords(p, v)
    total = float(x.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(f"field input must be a vector with unit sum, got {x!r}")
    return _field_array(p.effective_matrix.entries, p.alpha, x / total)


def lyapunov_derivative(p: ModelParameters, v) -> float:
    """Rate of change of H along F: the weighted variance form

        <grad H, F> = 2a H * sum_{v_i > 0} (pi_i - v_i)^2 / v_i,

    manifestly nonnegative, zero exactly when pi = v. The sum is added in
    site order, as cumsum adds; a BLAS dot's order depends on its kernel.
    """
    x = _coords(p, v)
    s, _, field, core, h = _point(p.effective_matrix.entries, p.alpha, x, _ENERGY, _CORE)
    on = x > 0
    gap = s[on] * field[on] / core - x[on]
    rate = 2.0 * p.alpha * h * float(np.cumsum(gap * (gap / x[on]))[-1])
    if rate > float_info.max:
        raise NumericError("energy derivative overflows the double range")
    return rate


def jacobian(p: ModelParameters, v) -> np.ndarray:
    """Analytic Jacobian of F at a point with full support.

    With s = (v/m)^a, t = (v/m)^(a-1), m = max v, f = A s, c = <A s, s>
    and pi = s f / c, entry (i, j) is d_j pi_i - delta_ij with

        d_j pi_i = a/m * [delta_ij rho_i + s_i A_ij t_j / c - 2 pi_i rho_j],

    rho = t f / c; no product of two small powers skips the division by c.

    At a zero coordinate the field is only one-sided differentiable for
    a < 2, so boundary points are rejected there; classification on faces
    takes the Jacobian of the face-restricted entries instead.
    """
    x = _coords(p, v)
    if np.any(x == 0.0) and p.alpha < 2.0:
        raise BoundaryJacobianError(
            "Jacobian at a face boundary is one-sided for exponent < 2; "
            "restrict to the support face instead"
        )
    return _jacobian_array(p.effective_matrix.entries, p.alpha, x)


def _jacobian_array(a: np.ndarray, alpha: float, x: np.ndarray) -> np.ndarray:
    """The Jacobian of jacobian's docstring for the matrix entries a."""
    s, t, field, core, _ = _point(a, alpha, x, _CORE)
    rho = t * field / core
    dpi = np.diag(rho) + (s[:, None] * a) * (t / core) - 2.0 * np.outer(s * field / core, rho)
    return alpha / float(x.max()) * dpi - np.eye(x.size)


def tangent_basis(n: int) -> np.ndarray:
    """Columns e_i - e_n, i = 1..n-1: a basis of the zero-sum tangent space."""
    return np.vstack([np.eye(n - 1), -np.ones((1, n - 1))])


def tangent_eigenvalues(j: np.ndarray, weights=None) -> np.ndarray:
    """Eigenvalues of a simplex-preserving Jacobian restricted to the
    zero-sum tangent space, sorted descending.

    The restriction is expressed in the basis e_i - e_n. If the generic
    solver leaves imaginary parts above 1e-8 and positive weights are
    supplied, the spectrum is recomputed through the symmetrization
    diag(v)^(-1/2) (J diag(v)) diag(v)^(-1/2), whose full spectrum is the
    tangent spectrum plus one exact -1 from the normalization direction.
    A non-finite entry of j raises NumericError, and a j that is not a
    square array ValidationError.
    """
    j = _square_array(j, "Jacobian")
    n = j.shape[0]
    if n == 1:
        return np.array([])
    b = tangent_basis(n)
    m = np.linalg.solve(b.T @ b, b.T @ (j @ b))
    vals = np.linalg.eigvals(m)
    if np.max(np.abs(vals.imag)) > _IMAG_TOL and weights is not None:
        w = coords_of(weights)
        if np.any(w <= 0):
            raise ValidationError("symmetrization weights must be strictly positive")
        root = np.sqrt(w)
        sym = (j * w[None, :]) / np.outer(root, root)
        full = np.linalg.eigvalsh(0.5 * (sym + sym.T))
        drop = int(np.argmin(np.abs(full - (-1.0))))
        vals = np.delete(full, drop)
    return np.sort(vals.real)[::-1]


def integrate_flow(p: ModelParameters, v0, t_end: float, dt: float = 0.01) -> FlowTrajectory:
    """Integrate the occupation flow with the classic 4-stage fixed-step
    scheme, re-projecting onto the simplex after every step.

    Coordinates that start at exactly zero are pinned to zero (faces are
    invariant), and t_end is rounded to a whole number of steps. A flow of
    more than FLOW_STEP_LIMIT steps (t_end / dt) raises ValidationError. The
    steps run in the compiled core (mf_flow in _walk.c), in calls of at most
    FLOW_SLICE // n steps, so a signal lands between them; a step that fails
    raises the error its field, projection or energy would raise, and a
    step's projection that fails, or a step that crosses the loop-free cap
    from below, names its time.
    """
    x = simplex_points(_coords(p, v0))
    t_end, dt = _number(t_end, "t_end"), _number(dt, "dt")
    if not (0 < dt <= t_end < math.inf):
        raise ValidationError(f"need 0 < dt <= t_end < inf, got dt={dt}, t_end={t_end}")
    if t_end / dt > FLOW_STEP_LIMIT:
        raise ValidationError(f"t_end / dt = {t_end / dt:.6g} steps, past the budget of {FLOW_STEP_LIMIT}")
    steps = max(1, int(round(t_end / dt)))
    matrix = p.effective_matrix
    a = np.ascontiguousarray(matrix.entries, dtype=float)
    states = np.empty((steps + 1, x.size))
    states[0] = x
    energies, work, info = np.empty(steps + 1), np.empty(7 * x.size), np.zeros(2, dtype=np.int64)
    lib, per_call, status = files._library(), max(1, FLOW_SLICE // x.size), files.MF_OK
    buffers = (states.ctypes.data, energies.ctypes.data, work.ctypes.data, info.ctypes.data)
    while not status and info[0] < steps:
        k = int(info[0])
        status = lib.mf_flow(x.size, a.ctypes.data, p.alpha, k, min(k + per_call, steps), dt, LOOPFREE_CAP, *buffers)
    k, clips = int(info[0]), int(info[1])
    if status == files.MF_CAP:
        check_loopfree_cap(states[k], matrix)
        raise ValidationError(f"flow left the feasible occupation region at t={k * dt:.6g}")
    if status == files.MF_BLEW_UP:
        raise NumericError(f"flow integration blew up at t={k * dt:.6g}")
    if status:
        raise _error(status, a, work[: x.size])
    log.debug("%d RK4 steps: %d projection clips", steps, clips)
    states.setflags(write=False)
    return FlowTrajectory(times=np.arange(steps + 1) * dt, states=states, lyapunov_values=energies)


def fundamental_matrix(p: ModelParameters, v) -> np.ndarray:
    """Fundamental matrix Q of the frozen kernel K = K(0, v), satisfying

        (I - K) Q g = Q (I - K) g = g - (pi g) 1     for every g,

    normalized by pi Q = 0. Computed as the group-inverse construction
    Q = (I - K + 1 pi^T)^(-1) (I - 1 pi^T)."""
    k = transition_kernel(p, 0.0, v)
    pi = invariant_measure(p, v)
    n = k.shape[0]
    one_pi = np.outer(np.ones(n), pi)
    lhs = np.eye(n) - k + one_pi
    rhs = np.eye(n) - one_pi
    try:
        q = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise ReducibilityError(f"frozen kernel is reducible at {coords_of(v).tolist()}") from exc
    # LU may slip past an exactly singular system on a reducible kernel;
    # a residual check catches that case deterministically
    if not np.all(np.isfinite(q)) or np.abs(lhs @ q - rhs).max() > 1e-8:
        raise ReducibilityError(f"frozen kernel is reducible at {coords_of(v).tolist()}")
    return q
