import itertools
from fractions import Fraction
from functools import reduce

import pytest

from posetops import verify
from posetops.complexes import (
    F_polynomial,
    SimplicialComplex,
    cheb_transform_T,
    chebyshev_T,
    chebyshev_U,
    join,
    link,
    midpoint_label,
    order_complex,
    stellar_subdivide,
    tchebyshev_triangulation,
    univariate_to_dict,
    vertex_link_transform,
)
from posetops.errors import FaceNotInComplex, InvalidSize, PosetOpsError, TooLarge
from posetops.ncpoly import NCPoly, X
from posetops.posets import (
    Poset,
    boolean_lattice,
    chain_poset,
    graded_interval_poset,
    interval_label,
    interval_poset,
    ladder_poset,
)
from posetops.verify import (
    complex_corpus,
    containment_edge_order,
    corpus,
    order_complex_of_intervals_check,
)


def xpoly(coeffs):
    """The x-polynomial with the given coefficients, from x^0 up."""
    return NCPoly(X, {"x" * n: c for n, c in enumerate(coeffs)})


def point():
    return SimplicialComplex.from_facets([["p"]])

def single_edge():
    return SimplicialComplex.from_facets([["u", "v"]])

def solid_triangle():
    return SimplicialComplex.from_facets([["x", "y", "z"]])

def boundary_triangle():
    return SimplicialComplex.from_facets([["x", "y"], ["y", "z"], ["x", "z"]])

def figure_complex():
    # two triangles glued along one edge
    return SimplicialComplex.from_facets([["v1", "v2", "v3"], ["v1", "v2", "v4"]])


def test_univariate_poly_basics():
    p = xpoly([1, 2, 0, 0])
    assert p.terms == {"": 1, "x": 2}
    assert p.degree() == 1
    q = xpoly([0, 1])
    assert p * q == xpoly([0, 1, 2])
    assert p + q == xpoly([1, 3])
    assert (p - p).is_zero()


def test_univariate_to_dict_puts_back_the_zero_coefficients():
    assert univariate_to_dict(F_polynomial(boundary_triangle())) == {
        "coeffs": [[1, 4], [0, 1], [3, 4]]
    }
    assert univariate_to_dict(xpoly([0, -3, 0, 4])) == {
        "coeffs": [[0, 1], [-3, 1], [0, 1], [4, 1]]
    }
    assert univariate_to_dict(NCPoly(X)) == {"coeffs": []}


def test_chebyshev_polynomials():
    assert chebyshev_T(2) == xpoly([-1, 0, 2])
    assert chebyshev_T(3) == xpoly([0, -3, 0, 4])
    assert chebyshev_U(2) == xpoly([-1, 0, 4])
    assert chebyshev_U(3) == xpoly([0, -4, 0, 8])


def test_chebyshev_callers_get_their_own_copy():
    chebyshev_T(2).terms.clear()
    assert chebyshev_T(2) == xpoly([-1, 0, 2])


def test_chebyshev_refuses_negative_degrees():
    for chebyshev in (chebyshev_T, chebyshev_U):
        for n in (-1, -2):
            with pytest.raises(InvalidSize):
                chebyshev(n)


def test_cheb_transforms():
    x_squared = xpoly([0, 0, 1])
    assert cheb_transform_T(x_squared) == xpoly([-1, 0, 2])
    one = xpoly([1])
    assert cheb_transform_T(one) == one


def test_complex_requires_downward_closure():
    with pytest.raises(PosetOpsError):
        SimplicialComplex([("u", "v")])


def test_from_facets_closes_downward():
    K = solid_triangle()
    assert len(K) == 8
    assert {"x", "y"} in K
    assert () in K
    assert K.f_vector() == [1, 3, 3, 1]


def test_face_cap():
    with pytest.raises(TooLarge):
        SimplicialComplex.from_facets([[f"v{i}" for i in range(17)]])


def test_f_vectors():
    assert point().f_vector() == [1, 1]
    assert single_edge().f_vector() == [1, 2, 1]
    assert boundary_triangle().f_vector() == [1, 3, 3]
    assert figure_complex().f_vector() == [1, 4, 5, 2]
    assert SimplicialComplex([]).f_vector() == [1]


def test_face_polynomials():
    half = Fraction(1, 2)
    assert F_polynomial(SimplicialComplex([])) == xpoly([1])
    assert F_polynomial(point()) == xpoly([half, half])
    assert F_polynomial(single_edge()) == xpoly(
        [Fraction(1, 4), half, Fraction(1, 4)]
    )
    assert F_polynomial(boundary_triangle()) == xpoly(
        [Fraction(1, 4), 0, Fraction(3, 4)]
    )


def test_link_of_vertex_in_boundary_triangle():
    K = boundary_triangle()
    L = link(K, {"x"})
    assert L.f_vector() == [1, 2]
    assert set(L.vertices) == {"y", "z"}
    with pytest.raises(FaceNotInComplex):
        link(K, {"x", "w"})


def test_link_is_the_two_condition_scan_on_every_corpus_face():
    for _, K in complex_corpus():
        for face in K.faces:
            expected = {g for g in K.faces if not g & face and g | face in K.faces}
            assert link(K, face).faces == expected


def test_join_disjoint_labels():
    J = join(single_edge(), point())
    assert J.f_vector() == [1, 3, 3, 1]
    # convolution of (1,2,1) and (1,1)
    F = F_polynomial(single_edge()) * F_polynomial(point())
    assert F_polynomial(J) == F


def test_join_prefixes_on_collision():
    J = join(point(), point())
    assert set(J.vertices) == {"L:p", "R:p"}
    assert J.f_vector() == [1, 2, 1]


def test_join_F_multiplicative():
    pairs = [
        (single_edge(), boundary_triangle()),
        (point(), figure_complex()),
        (boundary_triangle(), boundary_triangle()),
    ]
    for K, L in pairs:
        assert F_polynomial(join(K, L)) == F_polynomial(K) * F_polynomial(L)


def test_stellar_subdivision_of_triangle_edge():
    K = solid_triangle()
    out = stellar_subdivide(K, ("x", "y"))
    assert out.f_vector() == [1, 4, 5, 2]
    assert midpoint_label("y", "x") == "mid(x|y)"
    assert "mid(x|y)" in out.vertices
    assert {"x", "y"} not in out
    with pytest.raises(FaceNotInComplex):
        stellar_subdivide(out, ("x", "y"))
    with pytest.raises(PosetOpsError):
        stellar_subdivide(out, ("x",))


def test_tchebyshev_triangulation_of_edge():
    T = tchebyshev_triangulation(single_edge())
    assert T.f_vector() == [1, 3, 2]
    assert set(T.vertices) == {"u", "v", "mid(u|v)"}


def test_tchebyshev_triangulation_of_solid_triangle():
    T = tchebyshev_triangulation(solid_triangle())
    assert T.f_vector() == [1, 6, 9, 4]


def test_tchebyshev_order_invariance_on_small_complexes():
    for K in (boundary_triangle(), solid_triangle()):
        edges = K.edges()
        seen = set()
        for order in itertools.permutations(edges):
            seen.add(tuple(reduce(stellar_subdivide, order, K).f_vector()))
        assert len(seen) == 1
        assert seen == {tuple(tchebyshev_triangulation(K).f_vector())}


def test_triangulation_F_identity():
    for K in (single_edge(), solid_triangle(), boundary_triangle(), figure_complex()):
        lhs = F_polynomial(tchebyshev_triangulation(K))
        rhs = cheb_transform_T(F_polynomial(K))
        assert lhs == rhs


def test_second_kind_links_of_edge():
    T = tchebyshev_triangulation(single_edge())
    links = [link(T, {v}) for v in ("u", "v")]
    assert len(links) == 2
    for member in links:
        assert member.f_vector() == [1, 1]
    total = NCPoly(X)
    for member in links:
        total = total + F_polynomial(member)
    assert total == xpoly([1, 1])
    assert total == vertex_link_transform(F_polynomial(single_edge()))
    with pytest.raises(FaceNotInComplex):
        link(T, {"w"})


def test_second_kind_links_frozen_sums():
    cases = [
        (point(), [1]),
        (single_edge(), [1, 1]),
        (boundary_triangle(), [0, 3]),
        (solid_triangle(), [Fraction(1, 2), Fraction(3, 2), 1]),
    ]
    for K, expected in cases:
        T = tchebyshev_triangulation(K)
        total = NCPoly(X)
        for v in K.vertices:
            total = total + F_polynomial(link(T, {v}))
        assert total == xpoly(expected)
        assert total == vertex_link_transform(F_polynomial(K))


def test_second_kind_link_f_sum_of_solid_triangle():
    T = tchebyshev_triangulation(solid_triangle())
    summed = [0, 0, 0]
    for v in solid_triangle().vertices:
        fv = link(T, {v}).f_vector()
        for i, count in enumerate(fv):
            summed[i] += count
    assert summed == [3, 7, 4]


def test_order_complex_of_boolean_square():
    B2 = boolean_lattice(2)
    full = order_complex(B2)
    assert full.f_vector() == [1, 4, 5, 2]
    stripped = order_complex(B2, strip_extremes=True)
    assert stripped.f_vector() == [1, 2]
    assert stripped.edges() == []


def test_order_complex_of_boolean_cube_interior_is_a_hexagon():
    K = order_complex(boolean_lattice(3), strip_extremes=True)
    assert K.f_vector() == [1, 6, 6]


def test_order_complex_strip_requires_graded():
    P = Poset(["x", "y"], [("x", "y")])
    with pytest.raises(PosetOpsError):
        order_complex(P, strip_extremes=True)


def test_interval_complex_identity_on_octagon():
    # the interior complex of the bottomed interval poset of the square
    J = graded_interval_poset(boolean_lattice(2))
    K = order_complex(J, strip_extremes=True)
    assert K.f_vector() == [1, 8, 8]
    lhs = F_polynomial(K)
    x = xpoly([0, 1])
    inner = order_complex(boolean_lattice(2), strip_extremes=True)
    rhs = cheb_transform_T(x * F_polynomial(inner))
    assert lhs == rhs
    assert lhs == xpoly([-1, 0, 2])


def test_containment_edge_order_puts_wide_intervals_first():
    C2 = chain_poset(2)
    K = order_complex(C2)
    order = containment_edge_order(C2, K.edges())
    assert order[0] == ("0", "2")
    assert set(order[1:]) == {("0", "1"), ("1", "2")}


# -- the interval complex theorem: the face-level oracle ---------------------------
# The suite compares 1-skeletons.  Here the whole complexes are built: Δ(P)
# is subdivided at its edges in containment order, its vertices renamed u ->
# [u,u] and mid(u|v) -> [u,v], and its faces compared with those of Δ(I(P)).


def face_level_interval_check(P):
    base = order_complex(P)
    subdivided = reduce(
        stellar_subdivide, verify.containment_edge_order(P, base.edges()), base
    )
    rename = {u: interval_label(u, u) for u in P.labels}
    for x, y in base.edges():
        lo, hi = (x, y) if P.leq(x, y) else (y, x)
        rename[midpoint_label(x, y)] = interval_label(lo, hi)
    renamed = {frozenset(rename[v] for v in f) for f in subdivided.faces}
    return renamed == order_complex(interval_poset(P)).faces


def assert_both_routes_hold(P):
    assert face_level_interval_check(P)
    assert order_complex_of_intervals_check(P)


def test_interval_check_on_elbow_poset():
    P = Poset(
        ["u1", "u2", "u3", "u4"], [("u1", "u2"), ("u2", "u3"), ("u1", "u4")]
    )
    assert_both_routes_hold(P)


def test_interval_check_on_small_posets():
    assert_both_routes_hold(chain_poset(1))
    assert_both_routes_hold(chain_poset(2))
    assert_both_routes_hold(boolean_lattice(2))
    antichain = Poset(["x", "y", "z"], [])
    assert_both_routes_hold(antichain)
    assert_both_routes_hold(ladder_poset(1))


def test_graph_check_agrees_with_the_face_level_oracle_on_the_corpus():
    for seed in (0, 1):
        small = [P for _, P in corpus(seed) if len(P) <= 12]
        assert len(small) == 64
        for P in small:
            assert_both_routes_hold(P)


def test_interval_check_fails_when_smaller_intervals_come_first(monkeypatch):
    containment = verify.containment_edge_order
    monkeypatch.setattr(
        verify, "containment_edge_order", lambda P, edges: containment(P, edges)[::-1]
    )
    cases = verify.interval_complex_cases(0)
    failed = [c for c in cases if not c["pass"]]
    assert (len(failed), len(cases)) == (35, 39)
    # both routes see the same subdivisions, flag in any edge order
    for _, P in corpus(0):
        if len(P) <= 8:
            assert order_complex_of_intervals_check(P) == face_level_interval_check(P)


# -- every complex the package builds passes the door ------------------------------
# from_facets, link, join, stellar_subdivide and order_complex skip the
# closure check of SimplicialComplex(faces); the check is the oracle here.


def assert_passes_the_door(K):
    checked = SimplicialComplex(K.faces)
    assert checked == K and checked.vertices == K.vertices


def test_subdivisions_links_and_joins_pass_the_door():
    named = complex_corpus()
    for _, K in named:
        assert_passes_the_door(K)
        for edge in K.edges():
            assert_passes_the_door(stellar_subdivide(K, edge))
        T = tchebyshev_triangulation(K)
        assert_passes_the_door(T)
        for L in (K, T):
            for face in L.faces:
                assert_passes_the_door(link(L, face))
    for (_, K), (_, L) in itertools.combinations_with_replacement(named, 2):
        assert_passes_the_door(join(K, L))


def test_order_complexes_pass_the_door():
    for _, P in corpus(0):
        if len(P) <= 8:
            assert_passes_the_door(order_complex(P))
    for n in range(1, 4):
        stripped = order_complex(graded_interval_poset(boolean_lattice(n)), strip_extremes=True)
        assert_passes_the_door(stripped)
