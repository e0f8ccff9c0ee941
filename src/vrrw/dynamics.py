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

Every power of the coordinates is s = (x/m)^a in [0, 1], m = max x, from
_scaled_powers; only H and dH/dt carry the scale, as m^a m^a. An underflowed
sum raises NumericError. F, H and the projection each have one array-level
core (_field_array, _energy, graph._project); integrate_flow calls them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from sys import float_info

import numpy as np

from .errors import (
    BoundaryJacobianError,
    DegenerateSupportError,
    NumericError,
    ReducibilityError,
    ValidationError,
)
from .files import open_text
from .graph import (
    LOOPFREE_CAP,
    InteractionMatrix,
    SimplexPoint,
    _project,
    check_loopfree_cap,
    complete_graph,
    coords_of,
    project_to_simplex,  # noqa: F401  (bench/layers.py traces it here)
    with_diagonal,
)

log = logging.getLogger(__name__)

#: Imaginary parts above this trigger the symmetrized eigensolver fallback.
_IMAG_TOL = 1e-8


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
        if not np.isfinite(self.alpha) or self.alpha <= 1.0:
            raise ValidationError(f"reinforcement exponent must be > 1, got {self.alpha}")
        if not np.isfinite(self.loop_c) or self.loop_c < 0.0:
            raise ValidationError(f"self-loop weight must be >= 0, got {self.loop_c}")

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
class StochasticMatrix:
    """Row-stochastic nonnegative matrix."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries.setflags(write=False)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.entries, dtype=dtype)

    @staticmethod
    def from_entries(entries: np.ndarray) -> "StochasticMatrix":
        arr = np.asarray(entries, dtype=float)
        if np.any(arr < 0):
            raise ValidationError("stochastic matrix has negative entries")
        if np.any(np.abs(arr.sum(axis=1) - 1.0) > 1e-12):
            raise ValidationError(f"rows do not sum to 1: {arr.sum(axis=1).tolist()}")
        return StochasticMatrix(entries=arr)


@dataclass(frozen=True)
class TangentVector:
    """Direction in the zero-sum tangent space of the simplex."""

    comps: np.ndarray

    def __post_init__(self):
        self.comps.setflags(write=False)
        if abs(float(self.comps.sum())) > 1e-12:
            raise ValidationError(f"tangent components sum to {self.comps.sum()!r}, not 0")

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.comps, dtype=dtype)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.comps)))


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

    def to_csv(self, path) -> None:
        """write_csv to path; a path ending in .gz is compressed."""
        with open_text(path, "w") as fh:
            self.write_csv(fh)


def _scaled_powers(x: np.ndarray, exponent: float):
    """(x/m)^exponent, each value in [0, 1], and m = max x."""
    m = float(x.max(initial=0.0))
    if m <= 0.0:
        raise DegenerateSupportError("point has empty support")
    return np.power(x / m, exponent), m


def _vanishing(a: np.ndarray, rows: np.ndarray, x: np.ndarray, what: str):
    """Error for a sum over A_ij, i in rows, j in supp x, below the normal
    double range: underflow, or exactly 0 when all those A_ij are 0."""
    if np.any(a[np.ix_(rows, x > 0)] > 0):
        return NumericError(f"{what} underflows the double range")
    return DegenerateSupportError(f"{what} vanishes on support {np.nonzero(x > 0)[0].tolist()}")


def transition_kernel(p: ModelParameters, eps: float, v) -> StochasticMatrix:
    """Frozen-occupation jump kernel: row i proportional to A_ij (eps+v_j)^a.

    eps > 0 regularizes the kernel the way the finite-step walk does; at
    eps = 0 each row needs positive interaction with the support of v.
    """
    if eps < 0:
        raise ValidationError(f"kernel regularizer must be >= 0, got {eps}")
    x = coords_of(v) + eps
    a = p.effective_matrix.entries
    w, _ = _scaled_powers(x, p.alpha)
    rows = a * w[None, :]
    dens = rows.sum(axis=1)
    bad = ~(dens >= float_info.min)
    if np.any(bad):
        raise _vanishing(a, bad, x, f"total weight of kernel rows {np.nonzero(bad)[0].tolist()}")
    return StochasticMatrix(entries=rows / dens[:, None])


def _energy(a: np.ndarray, alpha: float, x: np.ndarray) -> float:
    """H(x) = <A x^a, x^a> through s = (x/m)^a, m = max x."""
    s, m = _scaled_powers(x, alpha)
    h = float(s @ a @ s) * m**alpha * m**alpha
    if not h >= float_info.min:
        raise _vanishing(a, x > 0, x, "interaction energy")
    return h


def lyapunov(p: ModelParameters, v) -> float:
    """Interaction energy H(v) = <A v^a, v^a>."""
    return _energy(p.effective_matrix.entries, p.alpha, coords_of(v))


def _pi_core(a: np.ndarray, alpha: float, x: np.ndarray):
    """Scale-invariant pieces of the reversible measure: powers s = (x/m)^a,
    their interaction field A s, and the scaled energy <A s, s>."""
    s, m = _scaled_powers(x, alpha)
    field = a @ s
    core = float(s @ field)
    if not core >= float_info.min:
        raise _vanishing(a, x > 0, x, "scaled interaction energy")
    return s, field, core


def invariant_measure(p: ModelParameters, v) -> SimplexPoint:
    """Reversible measure of the frozen kernel: pi_i proportional to
    v_i^a (A v^a)_i. Requires positive interaction energy."""
    x = coords_of(v)
    s, field, core = _pi_core(p.effective_matrix.entries, p.alpha, x)
    return SimplexPoint.from_array(s * field / core)


def _field_array(a: np.ndarray, alpha: float, x: np.ndarray, stats=None) -> np.ndarray:
    """-x + pi(iota(x)) for a 1-D array x, with the projection preserving
    exact zeros of x; stats["clips"] counts a projection that moved x."""
    w = _project(x, stats)
    if w is not x:
        w[x == 0.0] = 0.0
    s, field, core = _pi_core(a, alpha, w)
    return s * field / core - x


def vector_field(p: ModelParameters, v) -> TangentVector:
    """Drift of the occupation measure at v: F(v) = -v + pi(iota(v)).

    Accepts any vector with unit coordinate sum (within 1e-9) and evaluates
    F at v / sum(v); components of the result sum to zero and vanish on the
    zero set of v.
    """
    x = coords_of(v)
    total = float(x.sum())
    if x.ndim != 1 or abs(total - 1.0) > 1e-9:
        raise ValidationError(f"field input must be a vector with unit sum, got {x!r}")
    return TangentVector(comps=_field_array(p.effective_matrix.entries, p.alpha, x / total))


def lyapunov_derivative(p: ModelParameters, v) -> float:
    """Rate of change of H along F: the weighted variance form

        <grad H, F> = 2a H * sum_{v_i > 0} (pi_i - v_i)^2 / v_i,

    manifestly nonnegative, zero exactly when pi = v.
    """
    x = coords_of(v)
    a = p.effective_matrix.entries
    h = _energy(a, p.alpha, x)
    s, field, core = _pi_core(a, p.alpha, x)
    on = x > 0
    gap = s[on] * field[on] / core - x[on]
    return 2.0 * p.alpha * h * float(gap @ (gap / x[on]))


def jacobian(p: ModelParameters, v) -> np.ndarray:
    """Analytic Jacobian of F at a point with full support.

    With s = (v/m)^a, t = (v/m)^(a-1), m = max v, f = A s, c = <A s, s>
    and pi = s f / c, entry (i, j) is d_j pi_i - delta_ij with

        d_j pi_i = a/m * [delta_ij rho_i + s_i A_ij t_j / c - 2 pi_i rho_j],

    rho = t f / c; no product of two small powers skips the division by c.

    At a zero coordinate the field is only one-sided differentiable for
    a < 2, so boundary points are rejected there; classification on faces
    goes through the face-restricted problem instead.
    """
    x = coords_of(v)
    if np.any(x == 0.0) and p.alpha < 2.0:
        raise BoundaryJacobianError(
            "Jacobian at a face boundary is one-sided for exponent < 2; "
            "restrict to the support face instead"
        )
    a = p.effective_matrix.entries
    s, field, core = _pi_core(a, p.alpha, x)
    t, m = _scaled_powers(x, p.alpha - 1.0)
    rho = t * field / core
    dpi = np.diag(rho) + (s[:, None] * a) * (t / core) - 2.0 * np.outer(s * field / core, rho)
    return p.alpha / m * dpi - np.eye(x.size)


def tangent_basis(n: int) -> np.ndarray:
    """Columns e_i - e_n, i = 1..n-1: a basis of the zero-sum tangent space."""
    b = np.vstack([np.eye(n - 1), -np.ones((1, n - 1))])
    return b


def tangent_eigenvalues(j: np.ndarray, weights=None) -> np.ndarray:
    """Eigenvalues of a simplex-preserving Jacobian restricted to the
    zero-sum tangent space, sorted descending.

    The restriction is expressed in the basis e_i - e_n. If the generic
    solver leaves imaginary parts above 1e-8 and positive weights are
    supplied, the spectrum is recomputed through the symmetrization
    diag(v)^(-1/2) (J diag(v)) diag(v)^(-1/2), whose full spectrum is the
    tangent spectrum plus one exact -1 from the normalization direction.
    """
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
    invariant), and t_end is rounded to a whole number of steps.
    """
    x = SimplexPoint.from_array(coords_of(v0)).coords.copy()
    if not (0 < dt <= t_end):
        raise ValidationError(f"need 0 < dt <= t_end, got dt={dt}, t_end={t_end}")
    steps = max(1, int(round(t_end / dt)))
    zero = x == 0.0
    matrix = p.effective_matrix
    a, alpha = matrix.entries, p.alpha
    # a start may exceed the cap; only a step that crosses it logs and raises
    cap_ok = not np.any(matrix.loop_free_sites & (x > LOOPFREE_CAP))
    stats = {"clips": 0}

    times = np.empty(steps + 1)
    states = np.empty((steps + 1, x.size))
    energies = np.empty(steps + 1)
    times[0], states[0], energies[0] = 0.0, x, _energy(a, alpha, x)

    for k in range(1, steps + 1):
        k1 = _field_array(a, alpha, x, stats)
        k2 = _field_array(a, alpha, x + 0.5 * dt * k1, stats)
        k3 = _field_array(a, alpha, x + 0.5 * dt * k2, stats)
        k4 = _field_array(a, alpha, x + dt * k3, stats)
        x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        try:
            x = _project(x, stats)
        except NumericError as exc:
            raise NumericError(f"flow integration blew up at t={k * dt:.6g}") from exc
        if zero.any():
            x[zero] = 0.0
            x /= x.sum()
        if cap_ok and x.max() > LOOPFREE_CAP and not check_loopfree_cap(x, matrix):
            raise ValidationError(
                f"flow left the feasible occupation region at t={k * dt:.6g}"
            )
        times[k], states[k], energies[k] = k * dt, x, _energy(a, alpha, x)

    log.debug("%d RK4 steps: %d projection clips", steps, stats["clips"])
    states.setflags(write=False)
    return FlowTrajectory(times=times, states=states, lyapunov_values=energies)


def fundamental_matrix(p: ModelParameters, v) -> np.ndarray:
    """Fundamental matrix Q of the frozen kernel K = K(0, v), satisfying

        (I - K) Q g = Q (I - K) g = g - (pi g) 1     for every g,

    normalized by pi Q = 0. Computed as the group-inverse construction
    Q = (I - K + 1 pi^T)^(-1) (I - 1 pi^T)."""
    k = transition_kernel(p, 0.0, v).entries
    pi = invariant_measure(p, v).coords
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
