import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vrrw import (
    DegenerateSupportError,
    DomainError,
    Equilibrium,
    ModelParameters,
    NumericError,
    ValidationError,
    center_eigenvalue,
    classify,
    complete_graph,
    critical_alpha,
    critical_alpha_loop,
    enumerate_all,
    face_center,
    integrate_flow,
    level_ratio_polynomial,
    solve_two_level,
    summarize,
    threshold_table,
    validate,
    vector_field,
)
from vrrw.equilibria import FACE_CENTER, MARGINAL, RESIDUAL_TOL, STABILITY_MARGIN, TWO_LEVEL, _face_ratios, _ratio_roots
from vrrw.graph import FaceIndex, coords_of

ALPHAS = (1.2, 1.4, 1.6, 2.5, 3.0)


def residual_of(p, point):
    return float(np.max(np.abs(vector_field(p, point))))


def residual(n, alpha, point):
    return residual_of(ModelParameters.for_complete_graph(n, alpha), point)


def test_critical_alpha_closed_form():
    for k in range(3, 11):
        assert critical_alpha(k) == (k - 1) / (k - 2)
    with pytest.raises(DomainError):
        critical_alpha(2)


def test_critical_alpha_is_strictly_decreasing_toward_one():
    vals = [critical_alpha(k) for k in range(3, 40)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v > 1 for v in vals)


def test_loop_threshold_reduces_to_plain_threshold():
    for k in range(3, 11):
        assert abs(critical_alpha_loop(k, 0.0) - critical_alpha(k)) <= 1e-15


def test_loop_threshold_known_values():
    assert critical_alpha_loop(2, 0.25) == pytest.approx(2.5, abs=1e-15)
    assert critical_alpha_loop(3, 0.5) == pytest.approx(1.25, abs=1e-15)
    assert critical_alpha_loop(4, 0.5) == pytest.approx(7 / 6, abs=1e-15)
    with pytest.raises(DomainError):
        critical_alpha_loop(2, 0.0)  # threshold pole
    with pytest.raises(DomainError):
        critical_alpha_loop(3, 1.0)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: critical_alpha(3.5), id="critical_alpha"),
        pytest.param(lambda: critical_alpha_loop(3.5, 0.0), id="critical_alpha_loop"),
        pytest.param(lambda: center_eigenvalue(3.5, 2.0), id="center_eigenvalue"),
        pytest.param(lambda: level_ratio_polynomial(0.5, 4, 1.5, 2.0), id="level_ratio_polynomial"),
        pytest.param(lambda: enumerate_all(3.0, 2.5), id="enumerate_all"),
        pytest.param(lambda: complete_graph(2.5), id="complete_graph"),
        pytest.param(lambda: threshold_table(0.0, 4.5), id="threshold_table"),
        pytest.param(lambda: solve_two_level(4, 1.5, 1.5), id="solve_two_level"),
        pytest.param(lambda: critical_alpha(True), id="bool-size"),
    ],
)
def test_face_sizes_and_site_counts_take_only_integers(call):
    # the first four gave a value, the next four a bare TypeError
    with pytest.raises(ValidationError, match="must be an integer"):
        call()


def test_threshold_table_contents():
    table = threshold_table(0.0, 6)
    got = {row.k: row.alpha_crit for row in table.rows}
    assert got == {3: 2.0, 4: 1.5, 5: 4 / 3, 6: 1.25}
    loops = threshold_table(0.5, 4)
    assert {row.k for row in loops.rows} == {2, 3, 4}
    assert all(row.loop_c == 0.5 for row in loops.rows)
    crits = [row.alpha_crit for row in loops.rows]
    assert all(a > b for a, b in zip(crits, crits[1:]))


def test_center_eigenvalue_formula_and_criticality():
    for k in range(2, 9):
        for alpha in (1.1, 1.5, 2.0, 3.0):
            want = -1 + alpha * (k - 2) / (k - 1)
            assert center_eigenvalue(k, alpha) == pytest.approx(want, abs=1e-15)
    # the eigenvalue crosses zero exactly at the threshold
    for k in range(3, 9):
        assert center_eigenvalue(k, critical_alpha(k)) == 0.0
    for k, c in ((2, 0.25), (3, 0.5), (4, 0.25)):
        assert center_eigenvalue(k, critical_alpha_loop(k, c), loop_c=c) == 0.0


def test_face_center_points():
    v = coords_of(face_center(FaceIndex(sites=(0, 2)), 4))
    np.testing.assert_array_equal(v, [0.5, 0.0, 0.5, 0.0])


@given(
    st.integers(min_value=2, max_value=10),
    st.floats(min_value=1.05, max_value=4.0),
)
def test_ratio_polynomial_has_exact_root_at_one(n, alpha):
    for k in range(1, n // 2 + 1):
        assert abs(level_ratio_polynomial(1.0, n, k, alpha)) < 1e-14


def test_two_level_golden_roots():
    # alpha=1.5, one site against two: the ratio solves a shifted Fibonacci
    # relation with root ((3+sqrt 5)/2); alpha=3 flips it below one
    eqs = solve_two_level(3, 1, 1.5)
    roots = sorted(e.two_level_data.t for e in eqs)
    assert roots[-1] == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-12)
    eqs3 = solve_two_level(3, 1, 3.0)
    roots3 = [e.two_level_data.t for e in eqs3]
    assert any(abs(t - (math.sqrt(5) - 1) / 2) < 1e-12 for t in roots3)


def test_two_level_points_are_equilibria():
    for n in range(3, 7):
        for alpha in ALPHAS:
            for k in range(1, n // 2 + 1):
                eqs = solve_two_level(n, k, alpha)
                assert len(eqs) <= 2
                for e in eqs:
                    assert residual(n, alpha, e.point) < 1e-10
                    d = e.two_level_data
                    v = coords_of(e.point)
                    lo, hi = d.first_value, d.second_value
                    assert d.k == k
                    assert hi == pytest.approx(d.t * lo, rel=1e-14)
                    assert sorted(np.unique(np.round(v, 13)).tolist()) == sorted(
                        {round(lo, 13), round(hi, 13)}
                    )


def test_two_level_rejects_bad_block_sizes():
    with pytest.raises(ValidationError):
        solve_two_level(4, 0, 1.5)
    with pytest.raises(ValidationError):
        solve_two_level(4, 3, 1.5)  # k must stay <= n/2


def test_interior_two_level_points_are_unstable():
    for n in range(3, 7):
        for alpha in ALPHAS:
            for k in range(1, n // 2 + 1):
                for e in solve_two_level(n, k, alpha):
                    assert e.verdict == "unstable"
                    assert max(e.tangent_eigenvalues) > STABILITY_MARGIN


def test_classify_confirms_analytic_spectra():
    p = ModelParameters.for_complete_graph(5, 2.5)
    for k in (1, 2):
        for e in solve_two_level(5, k, 2.5):
            checked = classify(p, e)
            np.testing.assert_allclose(
                np.sort(checked.tangent_eigenvalues),
                np.sort(e.tangent_eigenvalues),
                rtol=0,
                atol=1e-8,
            )
            assert checked.verdict == e.verdict


def test_classify_rejects_non_equilibria():
    p = ModelParameters.for_complete_graph(3, 2.5)
    eqs = enumerate_all(3, 2.5)
    fake = eqs[0].__class__(
        point=np.array([0.6, 0.3, 0.1]),
        support=eqs[0].support,
        kind=eqs[0].kind,
        tangent_eigenvalues=eqs[0].tangent_eigenvalues,
        verdict=eqs[0].verdict,
    )
    with pytest.raises(ValidationError):
        classify(p, fake)
    # an equilibrium, but listed with a support that is not its own
    wrong = eqs[0].__class__(
        point=eqs[0].point,
        support=FaceIndex(sites=(0, 1, 2)),
        kind=eqs[0].kind,
        tangent_eigenvalues=eqs[0].tangent_eigenvalues,
        verdict=eqs[0].verdict,
    )
    with pytest.raises(ValidationError):
        classify(p, wrong)


def test_classify_on_a_face_with_unequal_row_sums():
    # the face {0, 1, 2} restricts A to row sums (4, 3, 3); the face
    # Jacobian needs only the restricted entries
    a = validate([[0, 2, 2, 1], [2, 0, 1, 2], [2, 1, 0, 2], [1, 2, 2, 0]])
    p = ModelParameters(matrix=a, alpha=1.1)
    v = integrate_flow(p, np.array([0.3, 0.4, 0.3, 0.0]), t_end=200.0, dt=0.05).states[-1]
    assert v[3] == 0.0 and residual_of(p, v) < 1e-14
    e = Equilibrium(
        point=v,
        support=FaceIndex(sites=(0, 1, 2)),
        kind="flow_limit",
        tangent_eigenvalues=(),
        verdict=MARGINAL,
    )
    checked = classify(p, e)
    # central differences of F along e_0 - e_2 and e_1 - e_2, in that basis
    h = 1e-6
    fd = np.empty((2, 2))
    for col in range(2):
        d = np.zeros(4)
        d[col], d[2] = 1.0, -1.0
        fd[:, col] = ((vector_field(p, v + h * d) - vector_field(p, v - h * d)) / (2 * h))[:2]
    want = sorted(np.linalg.eigvals(fd).real, reverse=True) + [-1.0]
    np.testing.assert_allclose(checked.tangent_eigenvalues, want, rtol=0, atol=1e-7)
    np.testing.assert_allclose(checked.tangent_eigenvalues, [-0.16371, -0.73629, -1.0], atol=1e-5)
    assert checked.verdict == "stable"


def _vertex(n):
    return Equilibrium(
        point=face_center(FaceIndex(sites=(0,)), n),
        support=FaceIndex(sites=(0,)),
        kind=FACE_CENTER,
        tangent_eigenvalues=(),
        verdict=MARGINAL,
    )


def test_classify_takes_a_vertex_loop_from_the_matrix_diagonal():
    # the all-ones matrix is the effective matrix of K3 with loop weight 1:
    # both models' vertices are stable, whichever field holds the loop
    for p in (
        ModelParameters(matrix=validate(np.ones((3, 3))), alpha=2.0),
        ModelParameters.for_complete_graph(3, 2.0, loop_c=1.0),
    ):
        checked = classify(p, _vertex(3))
        assert checked.tangent_eigenvalues == (-1.0, -1.0)
        assert checked.verdict == "stable"
    # a vertex with no loop has no interaction energy
    with pytest.raises(DegenerateSupportError):
        classify(ModelParameters.for_complete_graph(3, 2.0), _vertex(3))


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: face_center(FaceIndex((0, 5)), 3), ValidationError, id="face_center"),
        pytest.param(lambda: level_ratio_polynomial(0.5, 3, 3, 2.0), ValidationError, id="level_ratio_polynomial"),
        pytest.param(lambda: solve_two_level(1, 1, 2.0), ValidationError, id="solve_two_level"),
        pytest.param(lambda: center_eigenvalue(1, 2.0), DomainError, id="center_eigenvalue"),
        pytest.param(lambda: critical_alpha_loop(1, 0.0), DomainError, id="critical_alpha_loop"),
        pytest.param(lambda: threshold_table(0.0, 1), DomainError, id="threshold_table"),
    ],
)
def test_sizes_out_of_range_raise_typed_errors(call, error):
    with pytest.raises(error):
        call()


FROZEN_COUNTS = {
    (3, 1.2): 7, (3, 1.4): 7, (3, 1.6): 7, (3, 2.5): 7, (3, 3.0): 7,
    (4, 1.2): 33, (4, 1.4): 33, (4, 1.6): 27, (4, 2.5): 27, (4, 3.0): 27,
    (5, 1.2): 131, (5, 1.4): 111, (5, 1.6): 81, (5, 2.5): 81, (5, 3.0): 81,
    (6, 1.2): 473, (6, 1.4): 303, (6, 1.6): 213, (6, 2.5): 213, (6, 3.0): 213,
}


def test_enumeration_counts_are_stable():
    for (n, alpha), want in FROZEN_COUNTS.items():
        assert len(enumerate_all(n, alpha)) == want, (n, alpha)


@pytest.mark.parametrize("alpha", [1.01, 1.05])
def test_enumeration_counts_hold_near_one(alpha):
    # no face-size threshold of n <= 6 lies below 1.2, so the catalog keeps
    # its structure down to alpha -> 1, where some ratios pass 1e6
    for n in range(3, 7):
        assert len(enumerate_all(n, alpha)) == FROZEN_COUNTS[(n, 1.2)], (n, alpha)


def test_ratio_roots_past_a_million_are_found():
    # m = 3, k = 1: phi(t) = -t^(a-1) (t^a - 2t + 1), whose root other than
    # 1 lies near 2^(1/(a-1)) = 2^25
    (t,) = _ratio_roots(3, 1, 1.04, 0.0)
    assert 2**24 < t < 2**26
    assert abs(t**1.04 - 2 * t + 1) <= 1e-13 * 2 * t


@pytest.mark.parametrize("alpha", [1.0005, 1.0009])
def test_ratio_past_the_double_range_is_a_numeric_error(alpha):
    # 2^(1/(a-1)) > 2^1024 here, and for k = 2 the ratio is its reciprocal
    for k in (1, 2):
        with pytest.raises(NumericError, match="past the double range"):
            _ratio_roots(3, k, alpha, 0.0)
    with pytest.raises(NumericError):
        enumerate_all(3, alpha)


@pytest.mark.parametrize("c", [0.0, 0.25, 0.5])
def test_no_two_level_point_next_to_a_threshold_center(c):
    # at critical_alpha_loop(m, c), t = 1 is a multiple root of the ratio condition
    for m in range(2 if c else 3, 13):
        alpha = critical_alpha_loop(m, c)
        for k, t in _face_ratios(m, alpha, c):
            u1 = 1 / (k + (m - k) * t)
            assert max(abs(u1 - 1 / m), abs(t * u1 - 1 / m)) > 1e-6, (m, k, alpha)


@pytest.mark.parametrize("c", [0.0, 0.25, 0.5, 1.5])
def test_ratio_roots_keep_the_rule_of_signs_bound(c):
    # phi_c has at most three positive roots, t = 1 among them, and the
    # roots for block sizes (m-k, k) are the reciprocals of those for (k, m-k)
    for m in range(2, 21):
        threshold = (critical_alpha_loop(m, c),) if c < 1 and m > 2 - 2 * c else ()
        for alpha in (1.01, 1.05, 1.1, 1.2, 1.5, 2.0, 3.0, 10.0) + threshold:
            for k in range(1, m):
                roots = _ratio_roots(m, k, alpha, c)
                assert len(roots) <= 2 and 1.0 not in roots, (m, k, alpha, roots)
                assert list(roots) == sorted(roots)
                mirrored = sorted(1 / t for t in _ratio_roots(m, m - k, alpha, c))
                np.testing.assert_allclose(roots, mirrored, rtol=1e-12)


def _sign_changes(alpha, loop_cs, mmax):
    """Per (c, m, k): the sign changes of phi_c(t) = (k-1+c) - k t^(a-1)
    + (m-k) t^a - (m-k-1+c) t^(2a-1) in 60-digit arithmetic over the grid
    t = 10^(j/40), 0 < |j| <= 800, less the change across t = 1."""
    with localcontext() as ctx:
        ctx.prec = 60
        step = Decimal(10).ln() / 40
        terms = []
        for j in [*range(-800, 0), *range(1, 801)]:
            t, p = (j * step).exp(), (j * step * (Decimal(alpha) - 1)).exp()  # p = t^(a-1)
            terms.append((p, t * p, t * p * p))
        out = {}
        for c in loop_cs:
            for m in range(2, mmax + 1):
                for k in range(1, m):
                    first, last = k - 1 + Decimal(c), m - k - 1 + Decimal(c)
                    signs = [first - k * p + (m - k) * q - last * r > 0 for p, q, r in terms]
                    out[c, m, k] = sum(x != y for x, y in zip(signs, signs[1:])) - (signs[799] != signs[800])
        return out


@pytest.mark.parametrize("alpha", [1.05, 1.2, 1.5, 2.5])
def test_loop_catalog_counts_match_a_sign_scan(alpha):
    # each two-level point of a size-m face is a root t of phi_c for k
    # sites and 1/t of phi_c for m-k, so a face holds its center plus half
    # the sum of C(m, k) times the roots for k; vertices count with loops
    loop_cs = (0.25, 0.5, 1.5)
    roots = _sign_changes(alpha, loop_cs, 6)
    for c in loop_cs:
        eqs = enumerate_all(6, alpha, c)
        for m in range(1, 7):
            twice = 2 + sum(math.comb(m, k) * roots[c, m, k] for k in range(1, m))
            assert 2 * sum(len(e.support) == m for e in eqs) == math.comb(6, m) * twice, (c, m)


@pytest.mark.parametrize("c", [0.25, 0.5, 1.5])
def test_loop_catalog_is_confirmed_by_classify(c):
    # the faces of K6 hold every face size up to 6: each point is a zero of
    # F, and classify's numeric spectrum is its closed-form one
    for alpha in (1.05, 1.2, 1.5, 2.5):
        p = ModelParameters.for_complete_graph(6, alpha, loop_c=c)
        for e in enumerate_all(6, alpha, c):
            assert residual_of(p, e.point) < RESIDUAL_TOL
            checked = classify(p, e)
            assert checked.verdict == e.verdict, (alpha, e)
            np.testing.assert_allclose(checked.tangent_eigenvalues, e.tangent_eigenvalues, rtol=0, atol=1e-9)


def test_loop_catalog_verdicts_on_four_sites():
    # c = 0.5 puts the edge threshold at 1.5: below it the vertices and the
    # edge centres are stable, and each edge holds two unstable two-level
    # points, one per placement; the 3- and 4-site centres are past theirs
    rows = summarize(enumerate_all(4, 1.3, 0.5))
    assert [(r["support_size"], r["kind"], r["verdict"], r["count"]) for r in rows] == [
        (1, FACE_CENTER, "stable", 4),
        (2, FACE_CENTER, "stable", 6),
        (2, TWO_LEVEL, "unstable", 12),
        (3, FACE_CENTER, "unstable", 4),
        (4, FACE_CENTER, "unstable", 1),
    ]
    vertex = enumerate_all(4, 1.3, 0.5)[0]
    assert vertex.support.sites == (0,) and vertex.tangent_eigenvalues == (-1.0,) * 3
    lo, hi = _ratio_roots(2, 1, 1.2, 0.5)
    assert lo == pytest.approx(0.03575, abs=1e-5) and hi == pytest.approx(1 / lo, rel=1e-12)
    assert hi == pytest.approx(27.97, abs=0.01)


@pytest.mark.parametrize("c", [1.0, 1.5])
def test_every_center_is_unstable_from_loop_weight_one(c):
    # center_eigenvalue = -1 + alpha (m-2+2c)/(m-1+c) >= alpha - 1 > 0 for
    # c >= 1, and no two-level point exists: x^(a-1) (S - (1-c) x^a) is
    # increasing in x, so every point of a face is equal on it
    for alpha in (1.05, 2.5):
        for e in enumerate_all(5, alpha, c):
            assert e.kind == FACE_CENTER
            assert e.verdict == ("stable" if len(e.support) == 1 else "unstable"), (alpha, e.support)


@pytest.mark.parametrize("alpha", [1.01, 1.02, 1.05])
def test_classify_agrees_with_closed_forms_near_one(alpha):
    for n in range(3, 7):
        p = ModelParameters.for_complete_graph(n, alpha)
        for e in enumerate_all(n, alpha):
            assert classify(p, e).verdict == e.verdict, (n, alpha, e.two_level_data)


@pytest.mark.parametrize("alpha", [25.0, 60.0, 200.0])
def test_enumeration_counts_hold_at_large_exponents(alpha):
    # above alpha = 3 the catalog's structure no longer changes; the counts
    # must not change either once the unscaled powers leave the double range
    for n in range(3, 7):
        assert len(enumerate_all(n, alpha)) == FROZEN_COUNTS[(n, 3.0)], (n, alpha)


@pytest.mark.parametrize("alpha", [25.0, 200.0])
def test_eight_site_catalog_at_large_exponents(alpha):
    assert len(enumerate_all(8, alpha)) == 1207


def test_ratio_scan_ignores_underflowed_values():
    # t^(a-1) underflows on most of (0, 1) at alpha = 60; one root remains
    (e,) = solve_two_level(12, 1, 60.0)
    assert e.two_level_data.t == pytest.approx(1 / 11, rel=1e-12)
    assert residual(12, 60.0, e.point) < 1e-10


@pytest.mark.parametrize("n, alpha", [(4, 25.0), (5, 60.0), (6, 200.0), (3, 1000.0)])
def test_classify_agrees_with_closed_forms_at_large_exponents(n, alpha):
    # face centers of two sites are stable, larger ones unstable above their
    # threshold, and every interior two-level point is unstable
    p = ModelParameters.for_complete_graph(n, alpha)
    for e in enumerate_all(n, alpha):
        want = "stable" if e.kind == FACE_CENTER and len(e.support) == 2 else "unstable"
        assert e.verdict == want
        checked = classify(p, e)
        assert checked.verdict == want
        np.testing.assert_allclose(
            checked.tangent_eigenvalues, e.tangent_eigenvalues, rtol=1e-9, atol=1e-9
        )


def test_underflowed_pair_energy_is_a_numeric_error():
    # the k = 1 point on eight sites has pair energy about 14 (1/7)^alpha,
    # below the double range at alpha = 400
    with pytest.raises(NumericError):
        solve_two_level(8, 1, 400.0)
    with pytest.raises(NumericError):
        enumerate_all(8, 400.0)


def test_ratio_condition_overflow_is_a_numeric_error():
    # (1e6)^119 is past the double range
    with pytest.raises(NumericError):
        level_ratio_polynomial(1e6, 3, 1, 60.0)


def test_two_level_spectrum_does_not_cancel():
    # at n = 8, k = 1 the cross-block eigenvalue was off by 5.7e-9 when the
    # energy was taken as (sum v^a)^2 - sum v^2a, and by 1.7e-15 when the
    # terms of phi' were summed in floats; reference from 60-digit arithmetic
    # at t = 0.14285714593559437
    (e,) = [s for s in solve_two_level(8, 1, 9.992593274434991) if s.two_level_data.t < 1]
    assert e.two_level_data.t == 0.14285714593559437
    assert min(e.tangent_eigenvalues) == pytest.approx(-0.99999978466801197625, abs=1e-15)
    # at n = 3, k = 1, alpha = 25, phi' summed in floats was off by 2.7e-15
    (e,) = solve_two_level(3, 1, 25.0)
    assert e.two_level_data.t == 0.500000014901171
    assert min(e.tangent_eigenvalues) == pytest.approx(-0.99999925494134211837, abs=1e-15)


def test_enumeration_structure_for_three_sites():
    eqs = enumerate_all(3, 2.5)
    centers = [e for e in eqs if e.kind == FACE_CENTER]
    two_level = [e for e in eqs if e.kind == TWO_LEVEL]
    assert len(centers) == 4  # three edges plus the full face
    assert len(two_level) == 3
    supports = sorted(tuple(e.support) for e in centers)
    assert supports == [(0, 1), (0, 1, 2), (0, 2), (1, 2)]
    # no singleton equilibria without self-loops
    assert all(len(e.support) >= 2 for e in eqs)


def test_enumeration_has_no_duplicate_points():
    for (n, alpha) in [(4, 1.2), (5, 1.6), (6, 2.5)]:
        pts = np.array([coords_of(e.point) for e in enumerate_all(n, alpha)])
        rounded = {tuple(np.round(p, 10)) for p in pts}
        assert len(rounded) == len(pts)


def test_enumeration_residuals_and_verdict_cross_check():
    # every listed point is an equilibrium, and an independent finite
    # difference spectrum inside its face agrees with the stored verdict
    for (n, alpha) in [(4, 1.6), (5, 1.2)]:
        p = ModelParameters.for_complete_graph(n, alpha)
        for e in enumerate_all(n, alpha):
            assert residual(n, alpha, e.point) < 1e-10
            sites = tuple(e.support)
            m = len(sites)
            sub = ModelParameters.for_complete_graph(m, alpha)
            w = coords_of(e.point)[list(sites)]
            h = 1e-6
            fd = np.empty((m, m))
            for col in range(m):
                d = np.zeros(m)
                d[col] = h
                up = (w + d) / (w + d).sum()
                dn = (w - d) / (w - d).sum()
                fd[:, col] = (
                    np.asarray(vector_field(sub, up)) - np.asarray(vector_field(sub, dn))
                ) / (2 * h)
            from vrrw.dynamics import tangent_eigenvalues

            face_spectrum = tangent_eigenvalues(fd, weights=w)
            top = max(face_spectrum) if m > 1 else -1.0
            if e.verdict == "stable":
                assert top < 1e-6
            elif e.verdict == "unstable":
                assert top > -1e-6
            else:
                assert abs(top) < 1e-6


def test_enumeration_is_permutation_equivariant():
    eqs = enumerate_all(4, 2.5)
    pts = sorted(tuple(np.round(coords_of(e.point), 12)) for e in eqs)
    for perm in itertools.permutations(range(4)):
        moved = sorted(
            tuple(np.round(coords_of(e.point)[list(perm)], 12)) for e in eqs
        )
        assert moved == pts


def test_face_verdicts_match_smaller_problem():
    for e in enumerate_all(5, 1.6):
        m = len(e.support)
        if m == 5 or e.kind != TWO_LEVEL:
            continue
        k = e.two_level_data.k
        t = e.two_level_data.t
        twins = [
            s
            for s in solve_two_level(m, min(k, m - k), 1.6)
            if abs(s.two_level_data.t - t) < 1e-9
            or abs(s.two_level_data.t - 1 / t) < 1e-9
        ]
        assert twins, (m, k, t)
        assert twins[0].verdict == e.verdict


def test_stability_pattern_tracks_thresholds():
    # below a face-size threshold the face center is stable, above it is not
    for n, alpha in [(3, 1.5), (3, 2.5), (4, 1.2), (4, 2.0), (5, 1.25)]:
        for e in enumerate_all(n, alpha):
            if e.kind != FACE_CENTER:
                continue
            m = len(e.support)
            if m == 2:
                assert e.verdict == "stable"
                continue
            crit = critical_alpha(m)
            if alpha < crit - 1e-12:
                assert e.verdict == "stable", (n, alpha, m)
            elif alpha > crit + 1e-12:
                assert e.verdict == "unstable", (n, alpha, m)


def test_marginal_verdict_exactly_at_threshold():
    eqs = enumerate_all(3, 2.0)
    full = [e for e in eqs if len(e.support) == 3 and e.kind == FACE_CENTER]
    assert full[0].verdict == "marginal"


def test_two_sites_have_single_stable_equilibrium():
    eqs = enumerate_all(2, 3.0)
    assert len(eqs) == 1
    np.testing.assert_allclose(coords_of(eqs[0].point), [0.5, 0.5], atol=1e-15)
    assert eqs[0].verdict == "stable"


def test_summary_counts_cover_everything():
    eqs = enumerate_all(5, 1.6)
    rows = summarize(eqs)
    assert sum(r["count"] for r in rows) == len(eqs)
    assert all(r["verdict"] in {"stable", "unstable", "marginal"} for r in rows)
