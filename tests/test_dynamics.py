import hashlib
import logging
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vrrw import (
    BoundaryJacobianError,
    DegenerateSupportError,
    FlowTrajectory,
    ModelParameters,
    NumericError,
    ReducibilityError,
    ValidationError,
    VrrwError,
    complete_graph,
    fundamental_matrix,
    integrate_flow,
    invariant_measure,
    jacobian,
    lyapunov,
    lyapunov_derivative,
    tangent_eigenvalues,
    transition_kernel,
    vector_field,
)
from vrrw.graph import InteractionMatrix
from vrrw.dynamics import _field_array, tangent_basis


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
    k0 = transition_kernel(P3, 0.0, V).entries
    np.testing.assert_allclose(
        k0[0], (0.0, 0.64752955491057529, 0.35247044508942471), rtol=0, atol=1e-15
    )
    keps = transition_kernel(P3, 0.01, V).entries
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
    k = transition_kernel(p, eps, v).entries
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
    k = transition_kernel(p, 0.0, v).entries
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
    a = transition_kernel(P3, eps, V).entries
    b = transition_kernel(P3, 0.0, shifted).entries
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
    np.testing.assert_allclose(transition_kernel(p, 0.0, V).entries.sum(axis=1), 1.0)


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
    with pytest.raises(NumericError):
        transition_kernel(p, 0.0, near)
    with pytest.raises(DegenerateSupportError):
        transition_kernel(p, 0.0, vertex)


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


def test_flow_trajectory_csv_round_trip(tmp_path):
    traj = integrate_flow(P3, np.array([0.5, 0.3, 0.2]), t_end=0.1)
    path = tmp_path / "flow.csv"
    traj.to_csv(path)
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
        k = transition_kernel(p, 0.0, v).entries
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
# floating-point operations and its typed errors; they were made with
# numpy 2.4.6 on x86-64 with AVX-512, like the walk's golden hashes.
GOLDEN_FLOWS = {
    (2, 1.05, 0.0): (
        "4cb97f6c10f6c2e59e45b325f81357c56aecad67326de8a3640b2a1e3164a0d7",
        ('DegenerateSupportError', 'DegenerateSupportError'),
    ),
    (2, 1.05, 0.5): (
        "1edfb1bd467d204c9ce4a5a8705944187f84146ac73de6fe8808c1b21e231239",
        ('ok', 'ok'),
    ),
    (2, 1.5, 0.0): (
        "e0a8c157cdd17087b40293b42950331c6437b83afaabe79635af6eec94f8cca9",
        ('DegenerateSupportError', 'DegenerateSupportError'),
    ),
    (2, 1.5, 0.5): (
        "4b10a8fc7aabc594d3a96a2fff5d97c54d1344634e5f860784d795f5759aa5ac",
        ('ok', 'ok'),
    ),
    (2, 2.5, 0.0): (
        "af812fcd85af5c03822abb0b51394e69e288409f6cd5a79995ee0dcda6104fbe",
        ('DegenerateSupportError', 'DegenerateSupportError'),
    ),
    (2, 2.5, 0.5): (
        "44aa817ead0e0c8089ca33cced14852a8842ab0639eaa1a1884a22ba764ad0f8",
        ('ok', 'ok'),
    ),
    (2, 4.0, 0.0): (
        "547b71c2bc78db551ffd15a76e150c1158e18136ab949b20b6514be336a96c89",
        ('DegenerateSupportError', 'DegenerateSupportError'),
    ),
    (2, 4.0, 0.5): (
        "80a99ba0327d5c343f747eb30f942f109b7b6a6e06eb16ae27ccd7be1f5bd5e3",
        ('ok', 'ok'),
    ),
    (3, 1.05, 0.0): (
        "9853e6aa707c4682256d28c275248babda57121f86669e7a1e122b31b80fdc4c",
        ('DegenerateSupportError', 'DegenerateSupportError'),
    ),
    (3, 1.05, 0.5): (
        "50178cb95e139fec72729a861c91974447476d6239b15ed76f69efd3f02a95a5",
        ('ok', 'ok'),
    ),
    (3, 1.5, 0.0): (
        "a21cc98adac67e4fe47be134580fb126c2898461fcd167bbe9a4f8b06f58100a",
        ('DegenerateSupportError', 'DegenerateSupportError'),
    ),
    (3, 1.5, 0.5): (
        "af605f73f4b2a85cb73801e09bd89d4eab33e203072ceb2cc75edcf07b38f051",
        ('ok', 'ok'),
    ),
    (3, 2.5, 0.0): (
        "8103e3dc97a9e6050d8fc6e0c24017743d4e5bc760264e8ac9465e5d9ebdf1d3",
        ('ValidationError', 'DegenerateSupportError'),
    ),
    (3, 2.5, 0.5): (
        "6f2ee66cc32a7e2233e72959c93891c63fbed63b6f2476895205181746269b01",
        ('ok', 'ok'),
    ),
    (3, 4.0, 0.0): (
        "5f5ecf6791185af4be34ffa9c0a6ab45db58870c9da8653728635b0851256a22",
        ('DegenerateSupportError', 'DegenerateSupportError'),
    ),
    (3, 4.0, 0.5): (
        "2cbd3b004b50ef2cc3e62765351f8823329b4d8e7b56a30e57b4041368de1d5b",
        ('ok', 'ok'),
    ),
    (5, 1.05, 0.0): (
        "c6c1c67bd5c25b97676cd00da7a05adb5c2eeb0050794756491cf2f14b2b0285",
        ('ok', 'ok'),
    ),
    (5, 1.05, 0.5): (
        "0c2f0678682896979a88b8669ed7815526fd10e023468d92e57140929efc6384",
        ('ok', 'ok'),
    ),
    (5, 1.5, 0.0): (
        "01782e960d54042ddff0a74a95fc3550755a0b70e4271a501862659433a24294",
        ('ValidationError', 'DegenerateSupportError'),
    ),
    (5, 1.5, 0.5): (
        "18bd0c5d60c10ab35bded2be4382b8fe97cb19785227fcd0057dedb3f55d08c9",
        ('ok', 'ok'),
    ),
    (5, 2.5, 0.0): (
        "4bd12e6adf07e67affc5f3e5aa5bb21a70ac0877d1c378eacceb12164f2f0636",
        ('DegenerateSupportError', 'ok'),
    ),
    (5, 2.5, 0.5): (
        "f7817f39118cd0dc6c16f974eb22a6edad820b830ee334f5c881066792b926dd",
        ('ok', 'ok'),
    ),
    (5, 4.0, 0.0): (
        "2011bea80f68b892e264090c7cfd641d20eef5e0f32e2b91fd50ac4961d1b90d",
        ('ok', 'ok'),
    ),
    (5, 4.0, 0.5): (
        "41a165d8afe9d21ad985c5af8c4e22e86af3d77354f2daa67aa5aa5492146d92",
        ('ok', 'ok'),
    ),
    (8, 1.05, 0.0): (
        "f2d2d70336044b5b1c1a60cdc963259635a2dd2bc24bea0587ca684e97bac750",
        ('ok', 'ok'),
    ),
    (8, 1.05, 0.5): (
        "7cefd2cadc5a06a2d363feb707f4d04cb2b34631b009fd90a79d902831ab6b42",
        ('ok', 'ok'),
    ),
    (8, 1.5, 0.0): (
        "0dfdc9f50e5ff49c6d42e83641c0306aabf8a4b68bd03f6247d39d30b27cfdba",
        ('ok', 'ok'),
    ),
    (8, 1.5, 0.5): (
        "8320527d69a42a92df6845b4018d295af73e9ba1bbb40d7f811f2543676141d4",
        ('ok', 'ok'),
    ),
    (8, 2.5, 0.0): (
        "a94e10aced849bf92494952f52238d94d9637e26029654137d8f93e058464258",
        ('ok', 'ok'),
    ),
    (8, 2.5, 0.5): (
        "cd49e2ef18aca1c26c93d1bb288a21dc46792ed5aee3716ff82aebab4c704e73",
        ('ok', 'ok'),
    ),
    (8, 4.0, 0.0): (
        "5601cfe9c57e58a7df16f6bcd4702bfedce4389b159ec9bdc49bc3dc3551a9d4",
        ('ok', 'DegenerateSupportError'),
    ),
    (8, 4.0, 0.5): (
        "94674a506cdf0b01a38f415ca3eeb988a6ca2158d0479f79db93743cbad02302",
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


# SHA-256 of FlowTrajectory.to_csv for the flow that
# `vrrw flow --n 3 --alpha 2.5 --v0 0.5,0.3,0.2 --t 40` integrates.
GOLDEN_FLOW_CSV = "663edc909153b4171e9d54fc10504c2cc80b0f41216fe09c0fb4e34971b9ced0"


def test_flow_csv_bytes_match_golden_hash(tmp_path):
    p = ModelParameters.for_complete_graph(3, 2.5)
    path = tmp_path / "flow.csv"
    integrate_flow(p, np.array([0.5, 0.3, 0.2]), t_end=40.0).to_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_FLOW_CSV
