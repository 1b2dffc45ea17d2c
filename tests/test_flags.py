from fractions import Fraction

import pytest

from posetops.errors import NotExpressible, PosetOpsError
from posetops.flags import (
    ab_index,
    cd_index,
    ce_index,
    flag_f_vector,
    flag_from_dict,
    flag_to_dict,
    upsilon,
)
from posetops.ncpoly import AB, CD, CE, NCPoly, rewrite_ab_to_cd
from posetops.posets import (
    boolean_lattice,
    chain_poset,
    crosspolytope_lattice,
    cube_lattice,
    direct_product,
    graded_interval_poset,
    is_eulerian,
    ladder_poset,
)
from posetops.verify import corpus


def test_flag_vector_of_boolean_square():
    fv = flag_f_vector(boolean_lattice(2))
    assert fv.n == 2
    assert fv.count([]) == 1
    assert fv.count([1]) == 2


def test_flag_vector_of_boolean_cube():
    fv = flag_f_vector(boolean_lattice(3))
    assert fv.count([1]) == 3
    assert fv.count([2]) == 3
    assert fv.count([1, 2]) == 6
    assert fv.count((2, 1)) == 6
    # keyed by rank mask, bit r - 1 for rank r; no zero entries
    assert fv.counts == {0b00: 1, 0b01: 3, 0b10: 3, 0b11: 6}


def test_flag_vector_of_ladder():
    fv = flag_f_vector(ladder_poset(2))
    assert fv.count([1]) == 2
    assert fv.count([2]) == 2
    assert fv.count([1, 2]) == 4


def test_flag_vector_total_counts_all_interior_chains():
    P = cube_lattice(2)
    fv = flag_f_vector(P)
    total = sum(f for _, f in fv.sorted_items())
    # interior chain count: empty + 8 singletons + 8 vertex-edge pairs
    assert total == 1 + 8 + 8


def test_flag_vector_rejects_bad_ranks():
    with pytest.raises(PosetOpsError):
        flag_from_dict({"n": 2, "counts": [{"S": [2], "f": 1}]})
    with pytest.raises(PosetOpsError):
        flag_from_dict({"n": 3, "counts": [{"S": [1, 1], "f": 2}]})
    fv = flag_f_vector(boolean_lattice(3))
    for S in ([0], [3], [1, 1]):
        with pytest.raises(PosetOpsError):
            fv.count(S)


def test_upsilon_of_boolean_square():
    assert upsilon(boolean_lattice(2)) == NCPoly(AB, {"a": 1, "b": 2})


def test_upsilon_of_product_of_segments():
    # rank 2 with two middle elements, same as the boolean square
    P = direct_product(boolean_lattice(1), boolean_lattice(1))
    assert upsilon(P) == NCPoly(AB, {"a": 1, "b": 2})


def test_upsilon_of_rank_one():
    assert upsilon(boolean_lattice(1)) == NCPoly(AB, {"": 1})


def test_ab_index_of_boolean_lattices():
    assert ab_index(boolean_lattice(2)) == NCPoly(AB, {"a": 1, "b": 1})
    assert ab_index(boolean_lattice(3)) == NCPoly(
        AB, {"aa": 1, "ab": 2, "ba": 2, "bb": 1}
    )


def test_cd_index_of_boolean_lattices():
    assert cd_index(boolean_lattice(2)) == NCPoly(CD, {"c": 1})
    assert cd_index(boolean_lattice(3)) == NCPoly(CD, {"cc": 1, "d": 1})
    assert cd_index(boolean_lattice(4)) == NCPoly(
        CD, {"ccc": 1, "cd": 2, "dc": 2}
    )


def test_cd_index_of_ladders_is_a_power_of_c():
    for n in range(1, 6):
        expected = NCPoly(CD, {"c" * n: 1})
        assert cd_index(ladder_poset(n)) == expected


def test_cd_index_of_chain_not_expressible():
    with pytest.raises(NotExpressible):
        cd_index(chain_poset(2))
    with pytest.raises(NotExpressible):
        cd_index(chain_poset(3))


def test_cd_index_of_interval_poset_matches_cube_lattice():
    for n in range(1, 5):
        lhs = cd_index(graded_interval_poset(boolean_lattice(n)))
        rhs = cd_index(cube_lattice(n))
        assert lhs == rhs


def test_cd_index_of_crosspolytope_is_reversed_cube():
    for n in range(1, 4):
        lhs = cd_index(crosspolytope_lattice(n))
        rhs = cd_index(cube_lattice(n)).star()
        assert lhs == rhs


def test_ce_index_of_boolean_cube():
    got = ce_index(boolean_lattice(3))
    assert got == NCPoly(
        CE, {"cc": Fraction(3, 2), "ee": Fraction(-1, 2)}
    )


def test_indices_are_homogeneous():
    for P in (boolean_lattice(3), ladder_poset(3), cube_lattice(2)):
        n = P.top_rank
        assert ab_index(P).homogeneous_degree() == n - 1
        assert cd_index(P).homogeneous_degree() == n - 1


def test_flag_round_trip():
    fv = flag_f_vector(boolean_lattice(3))
    data = flag_to_dict(fv)
    assert data["n"] == 3
    assert data["counts"][0] == {"S": [], "f": 1}
    sizes = [len(entry["S"]) for entry in data["counts"]]
    assert sizes == sorted(sizes)
    assert flag_from_dict(data) == fv


def _cd_or_refusal(route):
    try:
        return route()
    except NotExpressible:
        return None


def test_upsilon_route_agrees_with_cd_index_on_the_corpus():
    # cd_index runs one route (Psi on the ab-index); the flag polynomial
    # rewritten under the Upsilon convention is the independent second one.
    eulerian = 0
    for name, P in corpus(0):
        from_psi = _cd_or_refusal(lambda: cd_index(P))
        from_ups = _cd_or_refusal(lambda: rewrite_ab_to_cd(upsilon(P), "Upsilon"))
        assert from_psi == from_ups, name
        if is_eulerian(P):
            assert from_psi is not None, name
            eulerian += 1
    assert eulerian >= 20
