import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vrrw import (
    FaceIndex,
    ModelParameters,
    NumericError,
    ValidationError,
    complete_graph,
    project_to_simplex,
    validate,
    with_diagonal,
)
from vrrw.graph import VALIDATION_RTOL, InteractionMatrix, check_loopfree_cap, coords_of, simplex_points


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


def test_validate_rejects_row_sums_that_overflow():
    # every entry is finite, but each row adds two of about 1e308
    with pytest.raises(NumericError):
        validate(np.full((3, 3), 1e308) - np.diag([1e308] * 3))


def test_validate_rejects_subnormal_entries():
    # a walk pick needs a normal row total: below that range, the largest
    # uniform below 1 times the total can round back up to the total
    hollow = np.ones((3, 3)) - np.eye(3)
    with pytest.raises(NumericError):
        validate(1e-320 * hollow)
    validate(1e-300 * hollow)


def test_with_diagonal_only_touches_diagonal():
    m = with_diagonal(complete_graph(4), 0.5)
    assert np.all(np.diag(m.entries) == 0.5)
    off = m.entries[~np.eye(4, dtype=bool)]
    assert np.all(off == 1.0)


def test_matrix_json_round_trip():
    m = with_diagonal(complete_graph(3), 0.25)
    again = InteractionMatrix.from_json(json.dumps({"n": 3, "entries": m.entries.tolist()}))
    assert np.array_equal(again.entries, m.entries)


@pytest.mark.parametrize(
    "make, match",
    [
        pytest.param(lambda: validate([[0.0]]), "size must be >= 2", id="one-site"),
        pytest.param(lambda: validate([[0, 1, 2], [1, 0, 1], [2, 1, 0]]), "row sums are not constant", id="row-sums"),
        pytest.param(lambda: complete_graph(1), "at least 2 sites", id="complete-one-site"),
        pytest.param(
            lambda: with_diagonal(validate([[2, 1, 1], [1, 1, 2], [1, 2, 1]]), 0.5),
            "constant original diagonal",
            id="uneven-diagonal",
        ),
        pytest.param(lambda: InteractionMatrix.from_json("{"), "malformed", id="json-syntax"),
        pytest.param(
            lambda: InteractionMatrix.from_json(json.dumps({"n": 4, "entries": [[0, 1], [1, 0]]})),
            "declared size 4",
            id="json-size",
        ),
    ],
)
def test_matrix_constructors_reject_bad_shapes(make, match):
    with pytest.raises(ValidationError, match=match):
        make()


def test_simplex_point_checks_mass():
    v = np.array([0.2, 0.3, 0.5])
    point = simplex_points(v)
    assert point is not v and v.flags.writeable and not point.flags.writeable
    assert point.dtype == float and point.tolist() == [0.2, 0.3, 0.5]
    with pytest.raises(ValidationError):
        simplex_points([0.2, 0.3, 0.6])
    with pytest.raises(ValidationError):
        simplex_points([-0.1, 0.6, 0.5])
    # one point per row of a matrix: one read-only copy
    raw = np.array([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]])
    points = simplex_points(raw)
    raw[0, 0] = 0.9
    assert points.tolist() == [[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]]
    assert not points[1].flags.writeable
    for bad in ([[0.2, 0.3, 0.5], [0.2, 0.3, 0.6]], [[-0.1, 0.6, 0.5]], [[[1.0]]], [[]], [], 1.0):
        with pytest.raises(ValidationError):
            simplex_points(bad)
    for bad in ([[np.nan, 1.0]], [np.inf, 0.0]):
        with pytest.raises(NumericError):
            simplex_points(bad)


def _edge_rows(n: int, count: int, seed: int) -> np.ndarray:
    """Nonnegative rows whose sums lie within a few ulps of 1 - VALIDATION_RTOL
    or 1 + VALIDATION_RTOL, where the order of the additions decides the
    verdict."""
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(n), size=count)
    edge = 1.0 + rng.choice([-1.0, 1.0], size=count) * VALIDATION_RTOL
    rows[:, -1] += edge - rows.sum(axis=1)
    rows[:, -1] += rng.integers(-3, 4, size=count) * np.spacing(rows[:, -1])
    return rows


@pytest.mark.parametrize("n", [3, 8, 9, 20])
def test_simplex_points_gives_one_verdict_per_row(n):
    # a matrix is accepted or rejected, and copied, exactly as its rows are
    # one by one, also where the sum is a rounding away from the tolerance
    rows = _edge_rows(n, 400, n)
    alone = []
    for row in rows:
        try:
            alone.append(simplex_points(row).tobytes())
        except ValidationError:
            alone.append(None)
    ok = [i for i, b in enumerate(alone) if b is not None]
    assert 0 < len(ok) < len(rows)
    assert simplex_points(rows[ok]).tobytes() == b"".join(alone[i] for i in ok)
    for i in sorted(set(range(len(rows))) - set(ok)):
        with pytest.raises(ValidationError):
            simplex_points(rows[ok[: len(ok) // 2] + [i] + ok[len(ok) // 2 :]])


def test_face_index_labels_are_one_based():
    f = FaceIndex(sites=(0, 2))
    assert f.labels() == (1, 3)
    assert len(f) == 2
    assert FaceIndex(sites=(2, 0)).sites == (0, 2)  # stored sorted
    with pytest.raises(ValidationError):
        FaceIndex(sites=(0, 0))
    with pytest.raises(ValidationError):
        FaceIndex(sites=())


@pytest.mark.parametrize("sites", [(0.5, 1), (0.9,), (True, 2), (1, "2")])
def test_face_index_takes_only_integer_sites(sites):
    # int() used to truncate these: (0.5, 1) made the face (0, 1)
    with pytest.raises(ValidationError, match="face site must be an integer"):
        FaceIndex(sites=sites)
    face = FaceIndex(sites=(np.int64(2), np.uint8(0)))
    assert face.sites == (0, 2) and all(type(s) is int for s in face.sites)


@pytest.mark.parametrize("c", [float("nan"), float("inf")])
def test_with_diagonal_rejects_non_finite_weights(c):
    with pytest.raises(ValidationError, match="self-loop weight"):
        with_diagonal(complete_graph(3), c)


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: FaceIndex(sites=5), id="face-of-an-int"),
        pytest.param(lambda: with_diagonal(complete_graph(3), "1"), id="str-loop-weight"),
        pytest.param(lambda: with_diagonal(complete_graph(3), True), id="bool-loop-weight"),
        pytest.param(lambda: ModelParameters.for_complete_graph(3, "2"), id="str-alpha"),
        pytest.param(lambda: ModelParameters.for_complete_graph(3, None), id="none-alpha"),
        pytest.param(lambda: ModelParameters.for_complete_graph(3, 10**400), id="alpha-past-doubles"),
        pytest.param(lambda: ModelParameters.for_complete_graph(3, 2.0, loop_c="1"), id="str-loop_c"),
    ],
)
def test_non_numbers_raise_validation_errors(make):
    # each raised a bare TypeError from len() or np.isfinite, or an
    # OverflowError from float()
    with pytest.raises(ValidationError, match="must be a (number|collection)"):
        make()
    # numpy numbers pass, and the parameters keep the value given
    assert ModelParameters.for_complete_graph(3, np.float64(2.0), loop_c=np.int64(1)).loop_c == 1


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
