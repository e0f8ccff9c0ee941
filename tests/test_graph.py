import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vrrw import (
    FaceIndex,
    SimplexPoint,
    ValidationError,
    complete_graph,
    project_to_simplex,
    validate,
    with_diagonal,
)
from vrrw.graph import InteractionMatrix, check_loopfree_cap, coords_of


def test_complete_graph_round_trips_through_validate():
    for n in range(2, 8):
        m = complete_graph(n)
        again = validate(m.entries)
        assert np.array_equal(again.entries, m.entries)
        assert m.entries.shape == (n, n)
        assert np.all(np.diag(m.entries) == 0)
        assert np.all(m.entries + np.eye(n) == 1)


def test_validate_rejects_asymmetric_and_negative():
    with pytest.raises(ValidationError):
        validate([[0, 1], [2, 0]])
    with pytest.raises(ValidationError):
        validate([[0, -1], [-1, 0]])
    with pytest.raises(ValidationError):
        validate([[0, 1, 1]])  # not square


def test_validate_rejects_isolated_row():
    entries = np.zeros((3, 3))
    entries[0, 1] = entries[1, 0] = 1.0
    with pytest.raises(ValidationError):
        validate(entries)


def test_with_diagonal_only_touches_diagonal():
    m = with_diagonal(complete_graph(4), 0.5)
    assert np.all(np.diag(m.entries) == 0.5)
    off = m.entries[~np.eye(4, dtype=bool)]
    assert np.all(off == 1.0)


def test_matrix_json_round_trip():
    m = with_diagonal(complete_graph(3), 0.25)
    again = InteractionMatrix.from_json(m.to_json())
    assert np.array_equal(again.entries, m.entries)


def test_simplex_point_checks_mass():
    SimplexPoint.from_array([0.2, 0.3, 0.5])
    with pytest.raises(ValidationError):
        SimplexPoint.from_array([0.2, 0.3, 0.6])
    with pytest.raises(ValidationError):
        SimplexPoint.from_array([-0.1, 0.6, 0.5])


def test_face_index_labels_are_one_based():
    f = FaceIndex(sites=(0, 2))
    assert f.labels() == (1, 3)
    assert len(f) == 2
    assert FaceIndex(sites=(2, 0)).sites == (0, 2)  # stored sorted
    with pytest.raises(ValidationError):
        FaceIndex(sites=(0, 0))
    with pytest.raises(ValidationError):
        FaceIndex(sites=())


real_vectors = arrays(
    np.float64,
    st.integers(min_value=2, max_value=8),
    elements=st.floats(min_value=-5, max_value=5, allow_nan=False),
)


@given(real_vectors)
def test_projection_lands_on_simplex(x):
    p = coords_of(project_to_simplex(x))
    assert np.all(p >= 0)
    assert abs(p.sum() - 1) <= 1e-12


@given(real_vectors)
def test_projection_is_idempotent(x):
    p = coords_of(project_to_simplex(x))
    again = coords_of(project_to_simplex(p))
    assert np.array_equal(again, p)


@given(real_vectors)
def test_projection_is_euclidean_nearest_point(x):
    # any simplex point must be at least as far from x as the projection
    p = coords_of(project_to_simplex(x))
    probe = np.random.default_rng(0).dirichlet(np.ones(x.size), size=32)
    d_proj = np.linalg.norm(p - x)
    d_probe = np.linalg.norm(probe - x, axis=1)
    assert np.all(d_probe >= d_proj - 1e-9)


def test_projection_fixes_simplex_points():
    v = np.array([0.25, 0.25, 0.5])
    assert np.array_equal(coords_of(project_to_simplex(v)), v)


def test_loopfree_cap_flags_heavy_coordinates():
    m = complete_graph(3)
    assert check_loopfree_cap(np.array([0.5, 0.3, 0.2]), m)
    assert not check_loopfree_cap(np.array([0.8, 0.1, 0.1]), m)
