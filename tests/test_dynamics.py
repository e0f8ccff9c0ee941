import contextlib
import hashlib
import io
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import vrrw
from vrrw import (
    BoundaryJacobianError,
    DegenerateSupportError,
    DetectionConfig,
    DomainError,
    ExperimentConfig,
    FaceIndex,
    FlowTrajectory,
    ModelParameters,
    NumericError,
    ReducibilityError,
    ValidationError,
    VrrwError,
    center_eigenvalue,
    complete_graph,
    critical_alpha_loop,
    enumerate_all,
    face_center,
    fundamental_matrix,
    init_walk,
    integrate_flow,
    invariant_measure,
    jacobian,
    lyapunov,
    level_ratio_polynomial,
    lyapunov_derivative,
    power_weight,
    solve_two_level,
    tangent_eigenvalues,
    threshold_table,
    transition_kernel,
    validate,
    vector_field,
)
from vrrw.graph import InteractionMatrix, project_to_simplex
from vrrw.dynamics import FLOW_STEP_LIMIT, _field_array, tangent_basis
from vrrw import files
from vrrw.files import open_text

import flow_reference as ref


P3 = ModelParameters.for_complete_graph(3, 1.5)
V = np.array([0.5, 0.3, 0.2])


def random_interior(rng, n):
    v = rng.dirichlet(np.ones(n))
    return np.clip(v, 1e-3, None) / np.clip(v, 1e-3, None).sum()


# hand-computed reference values at v=(0.5,0.3,0.2), alpha=1.5, complete graph
def test_reference_point_oracles():
    assert lyapunov(P3, V) == pytest.approx(0.20882893050298823, abs=1e-16)
    pi = invariant_measure(P3, V)
    want_pi = (0.42962211499479591, 0.34857090190752432, 0.22180698309767982)
    np.testing.assert_allclose(pi, want_pi, rtol=0, atol=1e-15)
    f = vector_field(P3, V)
    want_f = (-0.070377885005204088, 0.048570901907524333, 0.021806983097679811)
    np.testing.assert_allclose(f, want_f, rtol=0, atol=1e-15)
    assert lyapunov_derivative(P3, V) == pytest.approx(0.012622199639149947, abs=1e-15)


def test_kernel_rows_at_reference_point():
    k0 = transition_kernel(P3, 0.0, V)
    np.testing.assert_allclose(
        k0[0], (0.0, 0.64752955491057529, 0.35247044508942471), rtol=0, atol=1e-15
    )
    keps = transition_kernel(P3, 0.01, V)
    np.testing.assert_allclose(
        keps[0], (0.0, 0.6420325976390967, 0.35796740236090319), rtol=0, atol=1e-15
    )


@given(
    st.integers(min_value=2, max_value=7),
    st.floats(min_value=1.05, max_value=4.0),
    st.floats(min_value=0.0, max_value=0.2),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_kernel_rows_are_stochastic(n, alpha, eps, seed):
    p = ModelParameters.for_complete_graph(n, alpha)
    v = np.random.default_rng(seed).dirichlet(np.ones(n))
    k = transition_kernel(p, eps, v)
    np.testing.assert_allclose(k.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.all(k >= 0)


@given(
    st.integers(min_value=2, max_value=6),
    st.floats(min_value=1.05, max_value=4.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_detailed_balance_against_closed_form(n, alpha, seed):
    p = ModelParameters.for_complete_graph(n, alpha)
    v = random_interior(np.random.default_rng(seed), n)
    pi = np.asarray(invariant_measure(p, v))
    k = transition_kernel(p, 0.0, v)
    flux = pi[:, None] * k
    closed = p.matrix.entries * np.outer(v**alpha, v**alpha) / lyapunov(p, v)
    np.testing.assert_allclose(flux, closed, rtol=0, atol=1e-12)
    np.testing.assert_allclose(flux, flux.T, rtol=0, atol=1e-12)
    # pi is invariant for the kernel
    np.testing.assert_allclose(pi @ k, pi, rtol=0, atol=1e-12)


def test_epsilon_kernel_is_a_shifted_zero_epsilon_kernel():
    # on a homogeneous graph the finite-step smoothing folds into the state
    n, eps = 3, 0.01
    shifted = (V + eps) / (1 + n * eps)
    a = transition_kernel(P3, eps, V)
    b = transition_kernel(P3, 0.0, shifted)
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_kernel_rejects_dead_rows():
    with pytest.raises(DegenerateSupportError):
        transition_kernel(P3, 0.0, np.array([1.0, 0.0, 0.0]))


def test_lyapunov_scale_invariance_in_log_regime():
    # powers are taken of v / max v: the 1e-280 site's power underflows to 0
    # and H is the energy of the other pair, not an underflowed product
    v = np.array([1e-280, 0.5, 0.5 - 1e-280])
    h = lyapunov(ModelParameters.for_complete_graph(3, 3.0), v)
    assert np.isfinite(h) and h > 0


def test_large_exponent_energy_underflow_is_typed():
    # at alpha = 400 the true H(.5, .3, .2) is about 2e-330, below the double
    # range; H and its derivative say so, while the scale-invariant field,
    # measure and Jacobian still have their values
    p = ModelParameters.for_complete_graph(3, 400.0)
    with pytest.raises(NumericError):
        lyapunov(p, V)
    with pytest.raises(NumericError):
        lyapunov_derivative(p, V)
    j = jacobian(p, V)
    assert np.all(np.isfinite(j))
    np.testing.assert_allclose(j.sum(axis=0), -1.0, rtol=0, atol=1e-12)
    pi = np.asarray(invariant_measure(p, V))
    np.testing.assert_allclose(pi, [0.5, 0.5, 0.0], rtol=0, atol=1e-15)
    assert 0.0 < pi[2] < 1e-60  # (.4/.6)^400 / 2, kept, not underflowed
    np.testing.assert_allclose(transition_kernel(p, 0.0, V).sum(axis=1), 1.0)


class _CoreLog:
    """The compiled library, logging the name of each call of an mf_ entry."""

    def __init__(self):
        self.lib, self.calls = files._library(), []

    def __getattr__(self, name):
        fn = getattr(self.lib, name)
        if not name.startswith("mf_"):
            return fn

        def logged(*args):
            self.calls.append(name)
            return fn(*args)

        return logged


@pytest.mark.parametrize("f", [lyapunov, invariant_measure, lyapunov_derivative, jacobian])
def test_each_point_function_makes_one_core_call(f, monkeypatch):
    log = _CoreLog()
    monkeypatch.setattr(files, "_library", lambda: log)
    f(P3, V)
    assert len(log.calls) == 1


def test_energy_and_scaled_energy_fail_apart():
    # at K3's centre, alpha = 400: H = 6 (1/3)^800 underflows, while the
    # scaled energy <A s, s> = 6 and so the measure are exact
    p, centre = ModelParameters.for_complete_graph(3, 400.0), np.full(3, 1.0 / 3.0)
    for f in (lyapunov, lyapunov_derivative):
        with pytest.raises(NumericError, match="^interaction energy underflows the double range$"):
            f(p, centre)
    np.testing.assert_array_equal(invariant_measure(p, centre), centre)


_NAN, _INF = float("nan"), float("inf")

# each returned nan or inf, or was accepted, or raised TypeError, IndexError,
# a misleading typed error or numpy's LinAlgError or ValueError
_OUT_OF_RANGE = [
    (center_eigenvalue, (3, _NAN), ValidationError),
    (center_eigenvalue, (3, _INF), ValidationError),
    (center_eigenvalue, (3, "2"), ValidationError),
    (center_eigenvalue, (3, 1.5, -1.0), ValidationError),
    (center_eigenvalue, (3, 1.5, _INF), ValidationError),
    (level_ratio_polynomial, (0.5, 3, 1, _NAN), ValidationError),
    (level_ratio_polynomial, (0.5, 3, 1, 0.5), ValidationError),
    (level_ratio_polynomial, (_NAN, 3, 1, 1.5), DomainError),
    (level_ratio_polynomial, (_INF, 3, 1, 1.5), DomainError),
    (level_ratio_polynomial, ("1", 3, 1, 1.5), ValidationError),
    (solve_two_level, (3, 1, _NAN), ValidationError),
    (solve_two_level, (3, 1, _INF), ValidationError),
    (enumerate_all, (3, "2"), ValidationError),
    (enumerate_all, (3, _NAN), ValidationError),
    (enumerate_all, (3, 1.5, _NAN), ValidationError),
    (enumerate_all, (3, 1.5, _INF), ValidationError),
    (enumerate_all, (3, 1.5, -0.5), ValidationError),
    (enumerate_all, (3, 1.5, True), ValidationError),
    (enumerate_all, (3, 1.5, "0.5"), ValidationError),
    (power_weight, ("2",), ValidationError),
    (power_weight, (_NAN,), ValidationError),
    (transition_kernel, (P3, "0.1", V), ValidationError),
    (transition_kernel, (P3, _INF, V), ValidationError),
    (transition_kernel, (P3, _NAN, V), ValidationError),
    (tangent_eigenvalues, (np.full((3, 3), _NAN),), NumericError),
    (tangent_eigenvalues, (np.ones(3),), ValidationError),
    (validate, ("x",), ValidationError),
    (DetectionConfig, ("0.5",), ValidationError),
    (DetectionConfig, (0.5, None), ValidationError),
    (init_walk, (P3, 1.0), ValidationError),
    (init_walk, (P3, "1"), ValidationError),
    (critical_alpha_loop, (3, "0.5"), ValidationError),
    (threshold_table, ("0", 5), ValidationError),
    (face_center, (FaceIndex(sites=(0,)), "3"), ValidationError),
    (ExperimentConfig, (None, 2, 100, 1), ValidationError),
    (ExperimentConfig, (P3, 2, 100, 1, "uniform-random", None), ValidationError),
]


def _call_id(f, args):
    """f(args), with P3 as p, V as v and any other array as full(shape, entry)."""

    def arg(a):
        if isinstance(a, np.ndarray):
            return "v" if a is V else f"full({a.shape}, {a.flat[0]})"
        return "p" if a is P3 else repr(a)

    return f"{f.__name__}({', '.join(map(arg, args))})"


@pytest.mark.parametrize("f, args, kind", _OUT_OF_RANGE, ids=[_call_id(f, args) for f, args, _ in _OUT_OF_RANGE])
def test_exponents_weights_and_ratios_out_of_range_raise_typed_errors(f, args, kind):
    with pytest.raises(kind):
        f(*args)


def test_energy_overflow_off_the_simplex_is_typed():
    # the largest coordinate exceeds 1, so m**alpha overflows: 5**500 in
    # the first case, and the product 2**600 * 2**600 in the second
    for alpha, v in ((500.0, [3.0, 5.0, 1.0]), (600.0, [2.0, 2.0, 1.0])):
        p = ModelParameters.for_complete_graph(3, alpha)
        for f in (lyapunov, lyapunov_derivative):
            with pytest.raises(NumericError):
                f(p, np.array(v))
    # H is finite, about 8.8e304, but 2 alpha H times the gap sum is not
    p = ModelParameters.for_complete_graph(3, 506.0)
    assert np.isfinite(lyapunov(p, np.array([2.0, 2.0, 1.0])))
    with pytest.raises(NumericError):
        lyapunov_derivative(p, np.array([2.0, 2.0, 1.0]))


@pytest.mark.parametrize("v", [[-0.1, 0.6, 0.5], [0.5, 0.5, -1e-300]])
def test_negative_coordinates_are_rejected(v):
    # math.pow raises ValueError at a negative base; np.power gave NaN,
    # which surfaced as an "underflow" NumericError or a NaN kernel row
    p = ModelParameters.for_complete_graph(3, 2.5)
    for f in (lyapunov, lyapunov_derivative, invariant_measure, jacobian):
        with pytest.raises(ValidationError, match="nonnegative coordinates"):
            f(p, np.array(v))
    with pytest.raises(ValidationError, match="nonnegative coordinates"):
        transition_kernel(p, 0.0, np.array(v))


def test_no_interaction_is_degenerate_and_underflow_is_numeric():
    # a single site of a hollow graph has no energy at all; a second site
    # whose power underflows has an energy too small to represent
    p = ModelParameters.for_complete_graph(3, 1000.0)
    vertex = np.array([1.0, 0.0, 0.0])
    near = np.array([0.9, 0.1, 0.0])
    for f in (lyapunov, lyapunov_derivative, invariant_measure, vector_field):
        with pytest.raises(DegenerateSupportError):
            f(p, vertex)
        with pytest.raises(NumericError):
            f(p, near)
    with pytest.raises(NumericError):
        jacobian(p, near)
    # each kernel row is scaled by the largest coordinate it reaches, so
    # only a row that reaches no visited site has nothing to normalize
    np.testing.assert_allclose(transition_kernel(p, 0.0, near).sum(axis=1), 1.0)
    with pytest.raises(DegenerateSupportError):
        transition_kernel(p, 0.0, vertex)


def _log_kernel(a, alpha, x):
    """Log of the frozen kernel, row i proportional to A_ij x_j^alpha,
    normalized in logs so that it never underflows."""
    with np.errstate(divide="ignore"):
        logs = np.log(a) + alpha * np.log(x)[None, :]
    top = logs.max(axis=1, keepdims=True)
    return logs - top - np.log(np.exp(logs - top).sum(axis=1, keepdims=True))


@pytest.mark.parametrize(
    "n, c, alpha, eps, v",
    [
        (3, 0.0, 1000.0, 0.01, [0.9, 0.1, 0.0]),
        (3, 0.0, 1000.0, 0.0, [0.9, 0.1, 0.0]),
        (4, 0.0, 300.0, 0.0, [0.7, 0.2, 0.1, 0.0]),
        (5, 0.5, 700.0, 0.001, [0.6, 0.25, 0.1, 0.05, 0.0]),
        (3, 0.0, 1.5, 0.0, [0.5, 0.3, 0.2]),
    ],
)
def test_kernel_matches_log_space_reference(n, c, alpha, eps, v):
    # at alpha = 1000 the global maximum 0.91 makes row 0's powers
    # (0.11 / 0.91)^1000 and (0.01 / 0.91)^1000 underflow to 0
    p = ModelParameters.for_complete_graph(n, alpha, loop_c=c)
    x = np.asarray(v) + eps
    k = transition_kernel(p, eps, v)
    np.testing.assert_allclose(k.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    want = np.exp(_log_kernel(p.effective_matrix.entries, alpha, x))
    np.testing.assert_allclose(k, want, rtol=1e-9, atol=1e-300)


def test_kernel_row_without_reach_into_the_support_is_degenerate():
    # on the 4-cycle 0-1-2-3-0 the rows of 0 and 2 reach no visited site;
    # at a second visited site every row reaches one
    a = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]], dtype=float)
    p = ModelParameters(matrix=InteractionMatrix(size=4, entries=a, row_sum=2.0), alpha=2.0)
    with pytest.raises(DegenerateSupportError, match=r"rows \[0, 2\]"):
        transition_kernel(p, 0.0, [1.0, 0.0, 0.0, 0.0])
    k = transition_kernel(p, 0.0, [0.5, 0.5, 0.0, 0.0])
    np.testing.assert_array_equal(k, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0]])


LOG_TINY = float(np.log(np.finfo(float).tiny))


def _large_alpha_point(n, lam, seed):
    """A point between the center (lam = 0) and a Dirichlet draw (lam = 1)
    on a random support of at least two sites."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, n + 1))
    on = rng.permutation(n)[:size]
    v = np.zeros(n)
    v[on] = (1.0 - lam) / size + lam * rng.dirichlet(np.ones(size))
    return v / v.sum()


def _log_energy(v, alpha):
    """log H on the hollow complete graph, summed in logs so that it never
    underflows."""
    logs = alpha * np.log(v[v > 0])
    pairs = logs[:, None] + logs[None, :]
    np.fill_diagonal(pairs, -np.inf)
    top = pairs.max()
    return float(top + np.log(np.exp(pairs - top).sum()))


def _underflows(log_value):
    """True below the normal double range, None within 1e-6 of its edge."""
    if abs(log_value - LOG_TINY) < 1e-6:
        return None
    return log_value < LOG_TINY


ALPHAS_TO_1000 = st.floats(min_value=1.0, max_value=1e3, exclude_min=True)
LAMBDAS = st.floats(min_value=0.0, max_value=1.0)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@given(st.integers(min_value=2, max_value=6), ALPHAS_TO_1000, LAMBDAS, SEEDS)
def test_field_properties_up_to_alpha_1000(n, alpha, lam, seed):
    # F is tangent and keeps the zero set; pi_i <= 1/2 on a hollow matrix;
    # NumericError exactly where the scaled core <A s, s> underflows
    p = ModelParameters.for_complete_graph(n, alpha)
    v = _large_alpha_point(n, lam, seed)
    expect = _underflows(_log_energy(v, alpha) - 2 * alpha * np.log(v.max()))
    try:
        f = np.asarray(vector_field(p, v))
        pi = np.asarray(invariant_measure(p, v))
    except NumericError:
        assert expect is not False
        return
    assert expect is not True
    assert abs(f.sum()) <= 1e-14
    assert np.all(f[v == 0.0] == 0.0)
    assert pi.max() <= 0.5 + 1e-15


@given(st.integers(min_value=2, max_value=6), ALPHAS_TO_1000, LAMBDAS, SEEDS)
def test_lyapunov_derivative_sign_up_to_alpha_1000(n, alpha, lam, seed):
    p = ModelParameters.for_complete_graph(n, alpha)
    v = _large_alpha_point(n, lam, seed)
    expect = _underflows(_log_energy(v, alpha))
    try:
        d = lyapunov_derivative(p, v)
    except NumericError:
        assert expect is not False
        return
    assert expect is not True
    assert d >= 0.0


@given(
    st.integers(min_value=2, max_value=6),
    ALPHAS_TO_1000,
    st.floats(min_value=0.0, max_value=0.9),
    SEEDS,
)
def test_jacobian_matches_central_differences_up_to_alpha_1000(n, alpha, lam, seed):
    # interior points with every coordinate at least 0.1 / n; the step
    # shrinks like 1/alpha, the scale on which F varies
    p = ModelParameters.for_complete_graph(n, alpha)
    rng = np.random.default_rng(seed)
    v = (1.0 - lam) / n + lam * rng.dirichlet(np.ones(n))
    v /= v.sum()
    try:
        j = jacobian(p, v)
    except NumericError:
        expect = _underflows(_log_energy(v, alpha) - 2 * alpha * np.log(v.max()))
        assert expect is not False
        return
    h = 1e-6 / alpha
    basis = tangent_basis(n)
    tol = 1e-6 * max(1.0, float(np.abs(j).max()))
    for col in range(n - 1):
        d = basis[:, col]
        try:
            fd = (
                np.asarray(vector_field(p, v + h * d)) - np.asarray(vector_field(p, v - h * d))
            ) / (2 * h)
        except NumericError:
            # a neighbour at the edge of the double range
            assert _log_energy(v, alpha) - 2 * alpha * np.log(v.max()) < LOG_TINY + 1.0
            return
        np.testing.assert_allclose(j @ d, fd, rtol=0, atol=tol)


def test_vector_field_vanishes_at_face_centers():
    for n in (2, 3, 5):
        p = ModelParameters.for_complete_graph(n, 1.7)
        center = np.full(n, 1.0 / n)
        np.testing.assert_allclose(vector_field(p, center), 0, rtol=0, atol=1e-15)
    face = np.array([0.5, 0.5, 0.0])
    np.testing.assert_allclose(vector_field(P3, face), 0, rtol=0, atol=1e-15)


def test_vector_field_preserves_faces_exactly():
    v = np.array([0.6, 0.4, 0.0])
    f = np.asarray(vector_field(P3, v))
    assert f[2] == 0.0
    # off the simplex by 1e-10, the projection shifts every coordinate up,
    # and the field core must put the zero back
    w = np.array([0.6, 0.4 - 1e-10, 0.0])
    assert _field_array(P3.effective_matrix.entries, P3.alpha, w)[2] == 0.0


def test_vector_field_accepts_sums_within_its_tolerance():
    # a sum 1e-10 short of 1 is within the documented 1e-9; the field is
    # taken at the normalized point, so it still sums to zero
    w = np.array([0.6, 0.4 - 1e-10, 0.0])
    f = np.asarray(vector_field(P3, w))
    assert abs(f.sum()) <= 1e-15 and f[2] == 0.0
    np.testing.assert_array_equal(f, np.asarray(vector_field(P3, w / w.sum())))


def test_vector_field_sums_to_zero():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4, 6):
        p = ModelParameters.for_complete_graph(n, 2.2)
        for _ in range(20):
            f = np.asarray(vector_field(p, rng.dirichlet(np.ones(n))))
            assert abs(f.sum()) < 1e-14


@given(
    st.integers(min_value=3, max_value=5),
    st.floats(min_value=1.05, max_value=3.5),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_lyapunov_derivative_is_nonnegative_and_strict(n, alpha, seed):
    p = ModelParameters.for_complete_graph(n, alpha)
    v = np.random.default_rng(seed).dirichlet(np.ones(n))
    d = lyapunov_derivative(p, v)
    assert d >= -1e-12
    if np.max(np.abs(vector_field(p, v))) > 1e-8:
        assert d > 0


def test_lyapunov_derivative_matches_gradient_chain_rule():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(3, 6))
        p = ModelParameters.for_complete_graph(n, float(rng.uniform(1.1, 3.0)))
        v = random_interior(rng, n)
        f = np.asarray(vector_field(p, v))
        h = 1e-7
        fd = (lyapunov(p, v + h * f) - lyapunov(p, v - h * f)) / (2 * h)
        assert lyapunov_derivative(p, v) == pytest.approx(fd, rel=1e-5, abs=1e-10)


def test_jacobian_matches_central_differences():
    # probe along zero-sum directions so perturbed points stay on the simplex
    rng = np.random.default_rng(7)
    p = ModelParameters.for_complete_graph(4, 1.7)
    basis = tangent_basis(4)
    h = 1e-7
    for _ in range(20):
        v = random_interior(rng, 4)
        j = jacobian(p, v)
        for col in range(basis.shape[1]):
            d = basis[:, col]
            fd = (
                np.asarray(vector_field(p, v + h * d))
                - np.asarray(vector_field(p, v - h * d))
            ) / (2 * h)
            np.testing.assert_allclose(j @ d, fd, rtol=0, atol=1e-6)


def test_jacobian_is_symmetrizable_at_interior_points():
    rng = np.random.default_rng(19)
    for _ in range(30):
        n = int(rng.integers(3, 6))
        p = ModelParameters.for_complete_graph(n, float(rng.uniform(1.1, 3.0)))
        v = np.full(n, 1.0 / n)
        j = jacobian(p, v)
        s = j * v[None, :]
        np.testing.assert_allclose(s, s.T, rtol=0, atol=1e-10)


def test_boundary_jacobian_rules():
    face_point = np.array([0.5, 0.5, 0.0])
    p_steep = ModelParameters.for_complete_graph(3, 2.5)
    j = jacobian(p_steep, face_point)
    # directions pointing off the face decay at unit rate
    d = np.array([0.0, 0.0, 1.0]) - face_point
    np.testing.assert_allclose(j @ d, -d, rtol=0, atol=1e-14)
    with pytest.raises(BoundaryJacobianError):
        jacobian(P3, face_point)  # alpha<2 differentiation blows up at 0


def test_tangent_eigenvalues_center_values():
    for n in (2, 3, 5, 8):
        for alpha in (1.1, 2.0, 3.0):
            p = ModelParameters.for_complete_graph(n, alpha)
            v = np.full(n, 1.0 / n)
            eig = tangent_eigenvalues(jacobian(p, v))
            want = -1 + alpha * (n - 2) / (n - 1)
            np.testing.assert_allclose(eig, want, rtol=0, atol=1e-9)
            assert len(eig) == n - 1


def test_tangent_eigenvalues_of_a_rotation_take_the_symmetrised_fallback():
    # a tangent block with eigenvalues -0.5 +- i: with positive weights the
    # spectrum is the symmetrisation's, less its eigenvalue nearest -1
    b = tangent_basis(3)
    j = b @ np.array([[-0.5, -1.0], [1.0, -0.5]]) @ np.linalg.pinv(b)
    w = np.array([0.2, 0.3, 0.5])
    d = np.diag(w**-0.5)
    sym = d @ j @ np.diag(w) @ d
    full = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    want = np.sort(np.delete(full, np.argmin(np.abs(full + 1.0))))[::-1]
    np.testing.assert_allclose(tangent_eigenvalues(j, weights=w), want, rtol=0, atol=1e-12)
    with pytest.raises(ValidationError, match="strictly positive"):
        tangent_eigenvalues(j, weights=[0.0, 0.5, 0.5])
    # one site has no tangent direction
    assert tangent_eigenvalues(np.array([[-1.0]])).shape == (0,)


@pytest.mark.parametrize(
    "call, error, match",
    [
        pytest.param(lambda: lyapunov(P3, np.zeros(3)), DegenerateSupportError, "empty support", id="lyapunov-zero"),
        pytest.param(lambda: vector_field(P3, [0.5, 0.5, 0.5]), ValidationError, "unit sum", id="field-sum"),
        pytest.param(lambda: vector_field(P3, [1e300, -1e300, 1.0]), NumericError, "cancels", id="field-cancels"),
    ],
)
def test_points_the_field_and_energy_cannot_take(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_flow_increases_lyapunov_and_stays_on_simplex():
    traj = integrate_flow(P3, np.array([0.62, 0.21, 0.17]), t_end=10.0)
    h = np.asarray(traj.lyapunov_values)
    assert np.all(np.diff(h) >= -1e-9)
    states = np.asarray(traj.states)
    assert np.all(states >= 0)
    np.testing.assert_allclose(states.sum(axis=1), 1.0, rtol=0, atol=1e-9)


def test_flow_near_uniform_start_reaches_center_below_threshold():
    traj = integrate_flow(P3, np.array([0.34, 0.33, 0.33]), t_end=40.0)
    np.testing.assert_allclose(traj.states[-1], np.full(3, 1 / 3), rtol=0, atol=1e-6)


def test_flow_keeps_initial_zeros():
    traj = integrate_flow(P3, np.array([0.6, 0.4, 0.0]), t_end=5.0)
    assert np.all(np.asarray(traj.states)[:, 2] == 0.0)


@pytest.mark.parametrize(
    "t_end, dt",
    [
        pytest.param(float("inf"), 1.0, id="infinite-t_end"),
        pytest.param(float("nan"), 1.0, id="nan-t_end"),
        pytest.param(1.0, float("nan"), id="nan-dt"),
        pytest.param(float("inf"), float("inf"), id="infinite-dt"),
    ],
)
def test_flow_rejects_non_finite_times(t_end, dt):
    with pytest.raises(ValidationError, match="dt <= t_end"):
        integrate_flow(P3, np.array([0.5, 0.3, 0.2]), t_end=t_end, dt=dt)


@pytest.mark.parametrize("t_end, dt", [(1e300, 1e-10), (1e12, 1e-3), (1.0, 0.999e-6)])
def test_flow_rejects_more_steps_than_its_budget(t_end, dt):
    # an overflowing step count raised OverflowError, and 10^15 steps asked
    # numpy for 7 PiB of states and raised MemoryError
    with pytest.raises(ValidationError, match=f"budget of {FLOW_STEP_LIMIT}"):
        integrate_flow(P3, np.array([0.5, 0.3, 0.2]), t_end=t_end, dt=dt)


@pytest.mark.parametrize("t_end, dt", [("1", 0.1), (1.0, "0.1"), (True, 0.1), (1.0, None)])
def test_flow_times_must_be_numbers(t_end, dt):
    # a string raised a bare TypeError from the comparison, and True ran as 1.0
    with pytest.raises(ValidationError, match="must be a number"):
        integrate_flow(P3, np.array([0.5, 0.3, 0.2]), t_end=t_end, dt=dt)


def test_flow_trajectory_csv_round_trip(tmp_path):
    traj = integrate_flow(P3, np.array([0.5, 0.3, 0.2]), t_end=0.1)
    path = tmp_path / "flow.csv"
    with open_text(path, "w") as fh:
        traj.write_csv(fh)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (len(traj.times), 5)
    np.testing.assert_array_equal(data[:, 1:4], np.asarray(traj.states))


def test_cap_guard_stops_a_large_step_that_crosses_it(caplog):
    # pi_i <= 1/2 on a hollow matrix, so the exact flow lowers a loop-free
    # site above 1/2; one RK4 step of length 5 overshoots the 3/4 cap instead
    with caplog.at_level(logging.WARNING), pytest.raises(
        ValidationError, match="left the feasible occupation region at t=5"
    ):
        integrate_flow(P3, np.array([0.7, 0.2, 0.1]), t_end=20.0, dt=5.0)
    (record,) = caplog.records
    assert record.levelno == logging.WARNING
    assert "cap exceeded" in record.getMessage()


def test_start_above_the_cap_is_not_a_warning(caplog):
    with caplog.at_level(logging.WARNING):
        traj = integrate_flow(P3, np.array([0.8, 0.1, 0.1]), t_end=1.0)
    assert traj.states[0, 0] == 0.8 and traj.states[-1, 0] < 0.8
    assert caplog.records == []


def _projection_clips(caplog, p, v0, t_end, dt):
    """The clip count that one integrate_flow call logs."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="vrrw.dynamics"):
        integrate_flow(p, np.array(v0), t_end=t_end, dt=dt)
    (line,) = [r.getMessage() for r in caplog.records if r.name == "vrrw.dynamics"]
    return int(re.search(r"(\d+) projection clips", line).group(1))


def test_flow_counts_projection_clips(caplog):
    # small steps stay on the simplex to rounding, so nothing is clipped;
    # 20 steps of length 2 leave it at stages or steps
    assert _projection_clips(caplog, P3, [0.5, 0.3, 0.2], 10.0, 0.01) == 0
    p = ModelParameters.for_complete_graph(3, 2.5)
    assert 0 < _projection_clips(caplog, p, [0.5, 0.3, 0.2], 40.0, 2.0) <= 5 * 20


def test_fundamental_matrix_solves_poisson_equation():
    rng = np.random.default_rng(23)
    for n in (3, 4, 5):
        p = ModelParameters.for_complete_graph(n, 1.5)
        v = random_interior(rng, n)
        k = transition_kernel(p, 0.0, v)
        pi = np.asarray(invariant_measure(p, v))
        q = fundamental_matrix(p, v)
        g = rng.normal(size=n)
        centered = g - pi @ g
        lhs = (np.eye(n) - k) @ (q @ g)
        np.testing.assert_allclose(lhs, centered, rtol=0, atol=1e-10)
        assert abs(pi @ (q @ g)) < 1e-12


def test_fundamental_matrix_rejects_disconnected_chains():
    # validate() never admits a disconnected matrix, so build one raw to
    # exercise the guard on the solve
    blocks = np.zeros((4, 4))
    blocks[0, 1] = blocks[1, 0] = 1.0
    blocks[2, 3] = blocks[3, 2] = 1.0
    matrix = InteractionMatrix(size=4, entries=blocks, row_sum=1.0)
    p = ModelParameters(matrix=matrix, alpha=1.5)
    with pytest.raises(ReducibilityError):
        fundamental_matrix(p, np.full(4, 0.25))


def test_model_parameters_validation():
    with pytest.raises(Exception):
        ModelParameters.for_complete_graph(3, 1.0)  # need alpha > 1
    with pytest.raises(Exception):
        ModelParameters.for_complete_graph(3, 2.0, loop_c=-0.1)


def test_loop_model_effective_matrix():
    p = ModelParameters.for_complete_graph(3, 2.0, loop_c=0.5)
    assert np.all(np.diag(p.effective_matrix.entries) == 0.5)
    assert np.all(np.diag(p.matrix.entries) == 0.0)


@pytest.mark.parametrize(
    "f", [integrate_flow, vector_field, jacobian, lyapunov, invariant_measure, lyapunov_derivative]
)
@pytest.mark.parametrize("v", [[0.5, 0.5], [[0.5, 0.3, 0.2]]], ids=["short", "matrix"])
def test_points_of_the_wrong_shape_raise_validation_errors(f, v):
    # on K3 a 2-point raised numpy's ValueError and a 1 x 3 matrix a bare
    # TypeError; the compiled core would read past a short point
    with pytest.raises(ValidationError, match="vector of 3 coordinates"):
        f(P3, np.array(v)) if f is not integrate_flow else f(P3, np.array(v), t_end=1.0)


# huge inputs whose first pass leaves them off the simplex, as the shift
# cancels, and which settle in a second pass
SECOND_PASS = [
    [8576474636841338.0, 8576474636841335.0, 8576474636841338.0],
    [1.0552877686707934e16, -377661588104657.2, 4132344361324508.5],
    [7.001601300235723e16] * 5,
    [1659010222429734.2] * 3 + [1659010222429731.2] * 2,
]


@pytest.mark.parametrize("x", SECOND_PASS)
def test_projection_of_huge_inputs_matches_the_reference(x):
    want, passes = ref.project(x)
    assert passes == 2
    assert project_to_simplex(x).tolist() == want


@pytest.mark.parametrize("eps", [5e-13, 5e-12])
def test_projection_keeps_sums_within_its_tolerance(eps):
    # a sum within 1e-12 of 1 is a simplex point, returned as it is; a sum
    # further off is clipped
    x = [0.25, 0.75 + eps]
    want, passes = ref.project(x)
    assert passes == (eps > 1e-12)
    assert project_to_simplex(x).tolist() == want


@pytest.mark.parametrize("x", [[1e300, -1e300, 0.0], [-1e300, -1e300], [1e17, -1e17]])
def test_projection_that_cancels_to_no_threshold_is_a_numeric_error(x):
    # no m passes the threshold test, m = 1 included, so no pass can settle;
    # it raised IndexError
    with pytest.raises(ref.Stop):
        ref.project(x)
    with pytest.raises(NumericError, match="cancels to no threshold"):
        project_to_simplex(x)


def _flow_against_reference(caplog, p, v0, t_end, dt):
    """Check integrate_flow against the reference flow, bit for bit: times,
    states, energies and projection clips, or the error type and the step
    of a failure, before which the flow of one step less must match.
    Returns the clips of a flow that ends, else 0."""
    a, steps = p.effective_matrix.entries.tolist(), int(round(t_end / dt))
    try:
        states, energies, clips = ref.flow(a, p.alpha, list(v0), steps, dt)
    except ref.Stop as stop:
        with pytest.raises(stop.kind):
            integrate_flow(p, v0, t_end=t_end, dt=dt)
        if stop.step:
            if stop.step > 1:
                _flow_against_reference(caplog, p, v0, (stop.step - 1) * dt, dt)
            with pytest.raises(stop.kind):
                integrate_flow(p, v0, t_end=stop.step * dt, dt=dt)
        return 0
    assert _projection_clips(caplog, p, v0, t_end, dt) == clips
    traj = integrate_flow(p, v0, t_end=t_end, dt=dt)
    assert traj.times.tolist() == [k * dt for k in range(steps + 1)]
    assert traj.states.tolist() == states
    assert traj.lyapunov_values.tolist() == energies
    return clips


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("c", [0.0, 0.5])
def test_compiled_flow_matches_the_reference(n, c, caplog):
    # a Dirichlet start and one with an exact zero, at dt 0.01 and at dt 1
    # and 2, where stages and steps leave the simplex and are clipped
    p = ModelParameters.for_complete_graph(n, 2.5, loop_c=c)
    rng = np.random.default_rng([n, 250, round(10 * c)])
    dirichlet = rng.dirichlet(np.ones(n))
    face = rng.dirichlet(np.ones(n))
    face[-1] = 0.0
    face /= face.sum()
    clips = 0
    for v0 in (dirichlet.tolist(), face.tolist()):
        for t_end, dt in ((0.5, 0.01), (8.0, 1.0), (8.0, 2.0)):
            clips += _flow_against_reference(caplog, p, v0, t_end, dt)
    # on hollow K2 the start with a zero is a vertex, which has no energy
    assert (n, c) == (2, 0.0) or clips > 0


def test_compiled_flow_clips_as_the_reference_does_at_dt_1(caplog):
    # a start above the cap, whose first step at dt = 1 leaves the simplex
    v0 = [0.9788323124415316, 0.020306851450982752, 0.0008608361074857944]
    assert _flow_against_reference(caplog, P3, v0, 10.0, 1.0) == 1


@pytest.mark.parametrize(
    "n, alpha, dt, kind, step",
    [
        (3, 2.5, 5.0, ValidationError, 2),
        (5, 1.5, 3.0, DegenerateSupportError, 6),
        (8, 4.0, 5.0, DegenerateSupportError, 5),
    ],
)
def test_failing_flow_stops_where_the_reference_does(n, alpha, dt, kind, step, caplog):
    # the Dirichlet starts of GOLDEN_FLOWS: a step that crosses the cap, and
    # a field whose projection lands on one site of a hollow graph
    p = ModelParameters.for_complete_graph(n, alpha)
    v0 = np.random.default_rng([n, round(100 * alpha), 0]).dirichlet(np.ones(n)).tolist()
    with pytest.raises(ref.Stop) as stop:
        ref.flow(p.effective_matrix.entries.tolist(), alpha, v0, step + 2, dt)
    assert (stop.value.kind, stop.value.step) == (kind, step)
    _flow_against_reference(caplog, p, v0, (step + 2) * dt, dt)


def _agrees(compiled, reference):
    """compiled() == reference(), or both raise the reference's error type."""
    try:
        want = reference()
    except ref.Stop as stop:
        with pytest.raises(stop.kind):
            compiled()
        return
    assert compiled() == want


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("c", [0.0, 0.5])
def test_mean_field_functions_match_the_reference(n, c):
    # random points, some with an exact zero, and random real vectors to project;
    # the Jacobian and the kernel at those points
    rng = np.random.default_rng([n, round(10 * c), 7])
    for alpha in (1.05, 1.5, 2.5, 4.0):
        p = ModelParameters.for_complete_graph(n, alpha, loop_c=c)
        a = p.effective_matrix.entries.tolist()
        for _ in range(10):
            v = rng.dirichlet(np.full(n, 0.7))
            if rng.random() < 0.3:
                v[rng.integers(n)] = 0.0
                v /= v.sum()
            x, total = v.tolist(), float(v.sum())
            _agrees(lambda: np.asarray(invariant_measure(p, v)).tolist(), lambda: ref.measure(a, alpha, x))
            _agrees(lambda: lyapunov(p, v), lambda: ref.energy(a, alpha, x))
            _agrees(lambda: lyapunov_derivative(p, v), lambda: ref.derivative(a, alpha, x))
            _agrees(lambda: jacobian(p, v).tolist(), lambda: ref.jacobian(a, alpha, x))
            for eps in (0.0, 1e-3):
                _agrees(lambda: transition_kernel(p, eps, v).tolist(), lambda: ref.kernel(a, alpha, eps, x))
            _agrees(
                lambda: np.asarray(vector_field(p, v)).tolist(),
                lambda: ref.field(a, alpha, [xj / total for xj in x])[0],
            )
            # off the simplex, where the projection clips and the zeros are pinned back
            off = (v * (1.0 + rng.uniform(-1e-6, 1e-6))).tolist()
            _agrees(lambda: _field_array(p.effective_matrix.entries, alpha, np.array(off)).tolist(),
                    lambda: ref.field(a, alpha, off)[0])
            y = (rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)).tolist()
            _agrees(lambda: project_to_simplex(y).tolist(), lambda: ref.project(y)[0])


def _flow_outcome(p, v0, t_end, dt):
    """SHA-256 of a flow's times, states and energies, or the name of the
    typed error it raised."""
    try:
        traj = integrate_flow(p, v0, t_end=t_end, dt=dt)
    except VrrwError as exc:
        return type(exc).__name__
    h = hashlib.sha256()
    for a in (traj.times, traj.states, traj.lyapunov_values):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _flow_digest(n, alpha, c):
    """One digest over the flows from a Dirichlet start and a start with one
    exact zero at dt 0.01, 0.1 and 1, and the outcomes of the same two
    starts at dt = 5, where many flows raise mid-flow."""
    p = ModelParameters.for_complete_graph(n, alpha, loop_c=c)
    rng = np.random.default_rng([n, round(100 * alpha), round(10 * c)])
    dirichlet = rng.dirichlet(np.ones(n))
    face = rng.dirichlet(np.ones(n))
    face[-1] = 0.0
    face /= face.sum()
    h = hashlib.sha256()
    for v0 in (dirichlet, face):
        for dt in (0.01, 0.1, 1.0):
            h.update(_flow_outcome(p, v0, 4.0, dt).encode())
    large = tuple(_flow_outcome(p, v0, 20.0, 5.0) for v0 in (dirichlet, face))
    for x in large:
        h.update(x.encode())
    return h.hexdigest(), tuple(x if x.endswith("Error") else "ok" for x in large)


# Per (n, alpha, loop_c): the SHA-256 of the flows in _flow_digest and what
# the dt = 5 flows from the same two starts do. They pin the integrator's
# floating-point operations and its typed errors. Every sum they take is
# added in site order in the compiled core, with no BLAS call, and every
# power is libm's pow; they were made with glibc's FMA pow on x86-64.
GOLDEN_FLOWS = {
    (2, 1.05, 0.0): (
        "33646e388a28c194b1e251f2d5d88b81830919c311905a0ac8eb238278d9dd0c",
        ('DegenerateSupportError', 'DegenerateSupportError'),
    ),
    (2, 1.05, 0.5): (
        "a98562ec5f933739fb36db96a913ba99390de21ea43d461d57135de3dd2185d0",
        ('ok', 'ok'),
    ),
    (2, 1.5, 0.0): (
        "aad156fc44fcafdefa143854779bf7b354fc3aab668bc45bc4d56ccd457a4638",
        ('DegenerateSupportError', 'DegenerateSupportError'),
    ),
    (2, 1.5, 0.5): (
        "fc1e293035060e5a285295b5b9c62d3e6818f64026b86c682abcadb7bf092a14",
        ('ok', 'ok'),
    ),
    (2, 2.5, 0.0): (
        "a604e8d1ac9c4f35be9d8c56327d71575295a3a635ce354181bde9a4751ef158",
        ('DegenerateSupportError', 'DegenerateSupportError'),
    ),
    (2, 2.5, 0.5): (
        "260c9dac630dcaae08d1d5903b754b27eaea49bb86e14a0d934429ff284cf7ed",
        ('ok', 'ok'),
    ),
    (2, 4.0, 0.0): (
        "fea13a428f72e5abd17c2bb904a1ada3ed46ffd9cdde4a6fc54aaad9fae94786",
        ('DegenerateSupportError', 'DegenerateSupportError'),
    ),
    (2, 4.0, 0.5): (
        "80a99ba0327d5c343f747eb30f942f109b7b6a6e06eb16ae27ccd7be1f5bd5e3",
        ('ok', 'ok'),
    ),
    (3, 1.05, 0.0): (
        "fc264e16d8cffb8aa5641118646f3341b4b8ec641dcfb77cfaa12312c88f267e",
        ('DegenerateSupportError', 'DegenerateSupportError'),
    ),
    (3, 1.05, 0.5): (
        "9673a8e658bf82941ddb3a460b0b648db260bc75af6937625be88cb58fdb8905",
        ('ok', 'ok'),
    ),
    (3, 1.5, 0.0): (
        "1eff265d0bff749f6d01462270b165a24e6165160bc1de7b502f019a6641466f",
        ('DegenerateSupportError', 'DegenerateSupportError'),
    ),
    (3, 1.5, 0.5): (
        "0f47d3cb9e854ca84335707db4c5476385d718769271caf925c218a97c32aca2",
        ('ok', 'ok'),
    ),
    (3, 2.5, 0.0): (
        "d2a9646081b30021bd676292d4b3c75a6c279c4c3e28de6ed65dc4e26293270d",
        ('ValidationError', 'DegenerateSupportError'),
    ),
    (3, 2.5, 0.5): (
        "f78e47842e5322748c35f020c178fbfd4bf3a05d7a9a7c108d9ad7ec9b9d0014",
        ('ok', 'ok'),
    ),
    (3, 4.0, 0.0): (
        "a6e06ee048350ab6e998d8dcf343020cf89b44580ff13e3cedf3bc74fc5fcd30",
        ('DegenerateSupportError', 'DegenerateSupportError'),
    ),
    (3, 4.0, 0.5): (
        "9247bae6e8f81b37048498a283b154411c53b7de796469e05669c63a5bd9d608",
        ('ok', 'ok'),
    ),
    (5, 1.05, 0.0): (
        "3eee810dd42137ea8553a1d69fc308828e36d6b3869eff032ddec8c7c29fcddf",
        ('ok', 'ok'),
    ),
    (5, 1.05, 0.5): (
        "8c4555b9bfed1fbd44be44647003ed6cdd7c51cb0c0c36e6d45455a6d7b676cb",
        ('ok', 'ok'),
    ),
    (5, 1.5, 0.0): (
        "d6304569dfbd68142a9e27782b4ae21b8c90351d280b64b8e623925edc3790bc",
        ('ValidationError', 'DegenerateSupportError'),
    ),
    (5, 1.5, 0.5): (
        "85bb36e938e207ab0ff8ff563bafe56511e064d85ed46ceea5686b6c76a0021c",
        ('ok', 'ok'),
    ),
    (5, 2.5, 0.0): (
        "5f6aaf2ef8a8da42d70d9c9fb4aaee8e35c0d82e01272428a828b7a12707254f",
        ('DegenerateSupportError', 'ok'),
    ),
    (5, 2.5, 0.5): (
        "410772123318aad69373657fa0ff8d805704ccac7d81768e1de976ecab4844af",
        ('ok', 'ok'),
    ),
    (5, 4.0, 0.0): (
        "e923b6a21db900f212fb46241aa1b0aa7b2b8af5dad9def0fa5c9c3910998bc7",
        ('ok', 'ok'),
    ),
    (5, 4.0, 0.5): (
        "2b2d5f310bb4bc84c3407f99fbce073de9f2545b07301ab47a00f9b6308395c9",
        ('ok', 'ok'),
    ),
    (8, 1.05, 0.0): (
        "6d9289c5f7fc69df091c07fc50a43756a05889d32dadba060c5d1466e2cef1e5",
        ('ok', 'ok'),
    ),
    (8, 1.05, 0.5): (
        "3a1e72d6fcf770c71eece787b87f52ea109bf1d461262fd1e5474c199c257de9",
        ('ok', 'ok'),
    ),
    (8, 1.5, 0.0): (
        "8581414f8dfcf8d6a90a09a55ffa3e97b93c2dd50a83f06c537c850cf0bf8346",
        ('ok', 'ok'),
    ),
    (8, 1.5, 0.5): (
        "595fce5593606624fa18c64dd55ab7a066ef87f2b44c2c66bae0f6ab49ecc2dc",
        ('ok', 'ok'),
    ),
    (8, 2.5, 0.0): (
        "1539641d7868dce5809a4f93a1d7f4050551972262bf2e7018ea04e70aae1bc9",
        ('ok', 'ok'),
    ),
    (8, 2.5, 0.5): (
        "f9925a0d9385e37e373577ec8b59dfcfc1c3c6868d04987f634d01ebebf0780f",
        ('ok', 'ok'),
    ),
    (8, 4.0, 0.0): (
        "ea30c87bedaf6d4df18c6ca842a6e5473b8352b52953832c4c922bb3d5450cae",
        ('ok', 'DegenerateSupportError'),
    ),
    (8, 4.0, 0.5): (
        "85d3cc94ec6d71fdc38cc83df46e879fff008e92e456bc3d967465ac2760ab7a",
        ('ok', 'ok'),
    ),
}


def test_flow_trajectories_match_golden_hashes():
    got = {
        (n, alpha, c): _flow_digest(n, alpha, c)
        for n in (2, 3, 5, 8)
        for alpha in (1.05, 1.5, 2.5, 4.0)
        for c in (0.0, 0.5)
    }
    assert got == GOLDEN_FLOWS


@pytest.mark.parametrize("flow_slice", [1, 20])
def test_flow_in_slices_matches_one_call(flow_slice, caplog, monkeypatch):
    # integrate_flow's mf_flow calls of one step each, or of 20 // n steps:
    # the golden flows, the flows that clip against the reference (times,
    # states, energies and clip counts) and the flows that fail mid-flow
    # (the error type at the reference's step, and the cap's t=...)
    monkeypatch.setattr(vrrw.dynamics, "FLOW_SLICE", flow_slice)
    for key in [(2, 1.5, 0.5), (3, 2.5, 0.0), (3, 4.0, 0.5), (5, 1.5, 0.0), (8, 1.05, 0.5), (8, 4.0, 0.0)]:
        assert _flow_digest(*key) == GOLDEN_FLOWS[key]
    clips = 0
    for n in (3, 5, 8):
        p = ModelParameters.for_complete_graph(n, 2.5, loop_c=0.5)
        rng = np.random.default_rng([n, 250, 5])
        face = rng.dirichlet(np.ones(n))
        face[-1] = 0.0
        for v0 in (rng.dirichlet(np.ones(n)).tolist(), (face / face.sum()).tolist()):
            for t_end, dt in ((8.0, 1.0), (8.0, 2.0)):
                clips += _flow_against_reference(caplog, p, v0, t_end, dt)
    assert clips > 0
    test_compiled_flow_clips_as_the_reference_does_at_dt_1(caplog)
    for n, alpha, dt, kind, step in [(3, 2.5, 5.0, ValidationError, 2), (5, 1.5, 3.0, DegenerateSupportError, 6)]:
        test_failing_flow_stops_where_the_reference_does(n, alpha, dt, kind, step, caplog)
    caplog.clear()
    test_cap_guard_stops_a_large_step_that_crosses_it(caplog)


# SHA-256 of FlowTrajectory.write_csv for the flow that
# `vrrw flow --n 3 --alpha 2.5 --v0 0.5,0.3,0.2 --t 40` integrates.
GOLDEN_FLOW_CSV = "a786f098c95e37aeea0f63645eae2c695ea89c16e8e79ce74598a1b3d4738079"


def test_flow_csv_bytes_match_golden_hash(tmp_path):
    p = ModelParameters.for_complete_graph(3, 2.5)
    path = tmp_path / "flow.csv"
    with open_text(path, "w") as fh:
        integrate_flow(p, np.array([0.5, 0.3, 0.2]), t_end=40.0).write_csv(fh)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_FLOW_CSV


# SHA-256s of the states of the first flow of GOLDEN_FLOWS[8, 1.5, 0.0], the
# points of enumerate_all(8, 1.15) and the sites of a 3000-step K5 walk
_DIGESTS = """
import hashlib
import numpy as np
from vrrw import ModelParameters, enumerate_all, integrate_flow, simulate

def sha(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

v0 = np.random.default_rng([8, 150, 0]).dirichlet(np.ones(8))
flow = integrate_flow(ModelParameters.for_complete_graph(8, 1.5), v0, 4.0, 0.01)
catalog = np.array([e.point for e in enumerate_all(8, 1.15)])
walk = simulate(ModelParameters.for_complete_graph(5, 1.3, loop_c=0.5), 0, 3000, 9)
print(sha(flow.states), sha(catalog), sha(walk.sites.astype(np.int64)))
"""


def test_bytes_do_not_depend_on_numpys_simd_kernels():
    # every power behind these bytes is libm's pow, so a process on numpy's
    # AVX2 path writes the bytes this one does; np.power's AVX2 and AVX-512
    # kernels differ in the last bit of about 5% of values
    here = io.StringIO()
    with contextlib.redirect_stdout(here):
        exec(_DIGESTS, {})
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    src_root = str(Path(vrrw.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _DIGESTS], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == here.getvalue()
