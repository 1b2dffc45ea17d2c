import random
import re
from fractions import Fraction
from math import comb, factorial

import pytest

from posetops import flags
from posetops.errors import (
    NotBounded,
    NotExpressible,
    NotGraded,
    TooLarge,
)
from posetops.flags import (
    FLAG_RANK_CAP,
    FLAG_WORK_CAP,
    FlagFVector,
    ab_index,
    cd_index,
    ce_index,
    flag_f_vector,
    flag_to_dict,
    upsilon,
)
from posetops.ncpoly import (
    AB,
    CD,
    CE,
    NCPoly,
    ab_words,
    cd_words,
    matrix_rank,
)
from posetops.posets import (
    GradedPoset,
    _bits,
    boolean_lattice,
    chain_poset,
    crosspolytope_lattice,
    cube_lattice,
    direct_product,
    graded_interval_poset,
    induced_subposet,
    is_eulerian,
    ladder_poset,
)
from posetops.verify import SUITES, corpus
from test_ncpoly import substitute


def test_flag_vector_of_boolean_square():
    fv = flag_f_vector(boolean_lattice(2))
    assert fv.n == 2
    # keyed by rank mask, bit r - 1 for rank r
    assert fv.counts[0b0] == 1
    assert fv.counts[0b1] == 2


def test_flag_vector_of_boolean_cube():
    fv = flag_f_vector(boolean_lattice(3))
    # keyed by rank mask, bit r - 1 for rank r; no zero entries
    assert fv.counts == {0b00: 1, 0b01: 3, 0b10: 3, 0b11: 6}


def test_flag_vector_of_ladder():
    fv = flag_f_vector(ladder_poset(2))
    assert fv.counts[0b01] == 2
    assert fv.counts[0b10] == 2
    assert fv.counts[0b11] == 4


def test_flag_vector_total_counts_all_interior_chains():
    P = cube_lattice(2)
    fv = flag_f_vector(P)
    total = sum(f for _, f in fv.sorted_items())
    # interior chain count: empty + 8 singletons + 8 vertex-edge pairs
    assert total == 1 + 8 + 8


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


# c and d written in the flag basis: the ab-index is the flag polynomial
# under a -> a-b, so c = a+b and d = ab+ba become these.
UPSILON_IMAGES = {
    "c": NCPoly(AB, {"a": 1, "b": 2}),
    "d": NCPoly(AB, {"ab": 1, "ba": 1, "bb": 2}),
}


def test_upsilon_route_agrees_with_cd_index_on_the_corpus():
    # cd_index peels the ab-index; the independent second route expands its
    # result in the flag basis, which must give the flag polynomial.  A
    # refusal is confirmed by a rank rise: the flag polynomial lies outside
    # the span of the cd-words expanded the same way.
    eulerian = 0
    for name, P in corpus(0):
        flag_poly = upsilon(P)
        try:
            cd = cd_index(P)
        except NotExpressible:
            basis = [
                substitute(NCPoly(CD, {w: 1}), UPSILON_IMAGES).terms
                for w in cd_words(P.top_rank - 1)
            ]
            assert matrix_rank(basis + [flag_poly.terms]) > matrix_rank(basis), name
            assert not is_eulerian(P), name
            continue
        assert substitute(cd, UPSILON_IMAGES) == flag_poly, name
        eulerian += is_eulerian(P)
    assert eulerian >= 20


# -- the dynamic program against the chain enumeration it replaced ----------------


def _enumerated_flag_vector(P) -> FlagFVector:
    """Every interior chain visited depth first, one count per rank mask."""
    n = P.top_rank
    interior = [i for i in range(len(P.labels)) if 0 < P.rank[i] < n]
    interior.sort(key=lambda i: P.rank[i])
    above = {
        i: [j for j in interior if j != i and P.up[i] >> j & 1] for i in interior
    }
    counts = {0: 1}

    def visit(i, mask):
        mask |= 1 << (P.rank[i] - 1)
        counts[mask] = counts.get(mask, 0) + 1
        for j in above[i]:
            visit(j, mask)

    for i in interior:
        visit(i, 0)
    return FlagFVector(n, counts)


def _ab_index_by_substitution(fv: FlagFVector) -> NCPoly:
    """The flag words under the algebra map a -> a-b, b -> b."""
    words = {
        "".join("b" if mask >> r & 1 else "a" for r in range(fv.n - 1)): count
        for mask, count in fv.counts.items()
    }
    images = {"a": NCPoly(AB, {"a": 1, "b": -1}), "b": NCPoly(AB, {"b": 1})}
    return substitute(NCPoly(AB, words), images)


def _random_subposets_of_boolean_5(seed: int, count: int) -> list:
    """Seeded draws of interior elements, each kept with probability 0.8,
    until `count` of them leave a bounded graded subposet."""
    rng = random.Random(seed)
    big = boolean_lattice(5)
    inner = [x for x in big.labels if x not in (big.bottom, big.top)]
    out = []
    while len(out) < count:
        keep = [x for x in inner if rng.random() < 0.8]
        try:
            P = induced_subposet(big, [big.bottom, *keep, big.top])
        except (NotGraded, NotBounded):
            continue
        out.append((f"random {len(out)} from boolean 5 (seed {seed})", P))
    return out


def _oracle_posets() -> list:
    # corpus(1) differs from corpus(0) only in its random members
    posets = dict(corpus(0) + corpus(1))
    posets = list(posets.items()) + _random_subposets_of_boolean_5(5, 12)
    factors = {f"cube {a}": cube_lattice(a) for a in (1, 2, 3)}
    factors.update({f"boolean {b}": boolean_lattice(b) for b in (1, 2, 3)})
    products = [(f"cube {a}", f"boolean {b}") for a in (1, 2, 3) for b in (1, 2, 3)]
    products += [("cube 1", "cube 2"), ("cube 2", "cube 2"), ("cube 2", "cube 3")]
    products.append(("boolean 2", "boolean 3"))
    for x, y in products:
        posets.append((f"{x} x {y}", direct_product(factors[x], factors[y])))
    posets += [(f"chain {n}", chain_poset(n)) for n in range(1, 9)]
    posets += [(f"ladder {n}", ladder_poset(n)) for n in range(1, 8)]
    return posets


def test_flag_vector_and_ab_index_match_enumeration_and_substitution():
    for name, P in _oracle_posets():
        enumerated = _enumerated_flag_vector(P)
        assert flag_f_vector(P) == enumerated, name
        assert ab_index(P) == _ab_index_by_substitution(enumerated), name


@pytest.mark.parametrize("n", range(1, 12))
def test_boolean_flag_counts_are_multinomials(n):
    # a chain with rank set s1 < ... < sk is a sequence of nested subsets:
    # n! / (s1! (s2 - s1)! ... (n - sk)!) of them
    expected = {}
    for mask in range(1 << (n - 1)):
        cuts = [0] + [r + 1 for r in range(n - 1) if mask >> r & 1] + [n]
        count = factorial(n)
        for lo, hi in zip(cuts, cuts[1:]):
            count //= factorial(hi - lo)
        expected[mask] = count
    assert flag_f_vector(boolean_lattice(n)).counts == expected


def test_ab_index_of_ladder_14_is_a_plus_b_to_the_14th():
    assert ab_index(ladder_poset(14)) == NCPoly(AB, {w: 1 for w in ab_words(14)})


def test_flag_vector_refuses_ranks_over_the_cap():
    assert flag_f_vector(chain_poset(FLAG_RANK_CAP)).n == FLAG_RANK_CAP
    for P in (chain_poset(FLAG_RANK_CAP + 1), ladder_poset(FLAG_RANK_CAP)):
        with pytest.raises(TooLarge):
            flag_f_vector(P)


def test_flag_work_cap_admits_every_generated_boolean_lattice(monkeypatch):
    # x of rank k has C(k, j) interior elements of rank j below it, each
    # topping chains of 2^(j - 1) rank masks; boolean 13 is the largest
    # lattice that generation admits
    def work(n):
        return sum(comb(n, k) * (3**k - 1 - 2**k) // 2 for k in range(1, n))

    assert work(13) == 31_960_110 <= FLAG_WORK_CAP
    B6 = boolean_lattice(6)
    expected = flag_f_vector(B6)
    monkeypatch.setattr(flags, "FLAG_WORK_CAP", work(6))
    assert flag_f_vector(B6) == expected
    monkeypatch.setattr(flags, "FLAG_WORK_CAP", work(6) - 1)
    with pytest.raises(TooLarge, match=f"takes {work(6)} additions"):
        flag_f_vector(B6)


def _work_by_pairs(P) -> int:
    """The additions of the flag count, pair by pair: each interior y below
    an interior x brings the 2^(rank(y) - 1) rank masks of the chains it
    tops."""
    n = P.top_rank
    interior = {x for x, r in enumerate(P.rank) if 0 < r < n}
    return sum(
        1 << (P.rank[y] - 1)
        for x in interior
        for y in _bits(P.down[x] & ~(1 << x))
        if y in interior
    )


def _counted_work(P) -> int:
    """The addition count flag_f_vector reports when the work cap is below
    every count."""
    with pytest.raises(TooLarge) as refused:
        flags.flag_f_vector(P)
    return int(re.search(r"takes (\d+) additions", str(refused.value))[1])


def _work_posets() -> list:
    posets = []
    for name, P in corpus(0):
        posets += [(name, P), (f"I({name})", graded_interval_poset(P))]
    posets += [(f"ladder {n}", ladder_poset(n)) for n in range(1, 7)]
    posets.append(("cube 3 x cube 3", direct_product(cube_lattice(3), cube_lattice(3))))
    return posets


def test_work_count_in_one_pass_equals_the_pair_by_pair_count(monkeypatch):
    monkeypatch.setattr(flags, "FLAG_WORK_CAP", -1)
    for name, P in _work_posets():
        assert _counted_work(P) == _work_by_pairs(P), name


# -- the memo keyed by (rank, down) -------------------------------------------------


def test_returned_values_are_copies_of_the_memo():
    P = boolean_lattice(3)
    fv, ab = flag_f_vector(P), ab_index(P)
    expected_fv, expected_ab = FlagFVector(fv.n, dict(fv.counts)), NCPoly(AB, ab.terms)
    fv.counts[0b11] = 0
    fv.counts.clear()
    ab.terms["aa"] = 7
    ab.terms.pop("bb")
    assert flag_f_vector(P) == expected_fv
    assert ab_index(P) == expected_ab


def test_a_mutated_ab_index_leaves_the_next_call_alone():
    P = direct_product(cube_lattice(2), boolean_lattice(2))
    expected = _ab_index_by_substitution(_enumerated_flag_vector(P))
    flags._flag_counts.cache_clear()
    first = ab_index(P)
    word = next(iter(first.terms))
    first.terms[word] += 5
    first.terms["a" * 4] = -1
    first.terms.pop(next(iter(expected.terms)))
    second = ab_index(P)
    assert flags._flag_counts.cache_info().hits == 1
    assert second == expected and second.terms is not first.terms


def test_relabeled_posets_share_one_memo_entry():
    P = boolean_lattice(3)
    z = [f"z{x}" for x in P.labels]
    Q = GradedPoset(z, [(z[i], z[j]) for i, js in enumerate(P.covers_up) for j in js])
    assert (Q.rank, Q.down) == (P.rank, P.down) and Q.labels != P.labels
    memos = {
        name: memo
        for name, memo in vars(flags).items()
        if hasattr(memo, "cache_clear") and name != "_mask_words"
    }
    assert list(memos) == ["_flag_counts"]
    for memo in memos.values():
        memo.cache_clear()
    for index in (flag_f_vector, upsilon, ab_index, cd_index, ce_index):
        assert index(P) == index(Q), index.__name__
    assert sum(memo.cache_info().currsize for memo in memos.values()) == 1


def test_rank_cap_runs_before_the_memo(monkeypatch):
    P = chain_poset(5)
    ab_index(P)
    hits = flags._flag_counts.cache_info().hits
    flag_f_vector(P)
    assert flags._flag_counts.cache_info().hits == hits + 1
    before = flags._flag_counts.cache_info()
    monkeypatch.setattr(flags, "FLAG_RANK_CAP", 4)
    for index in (flag_f_vector, upsilon, ab_index):
        with pytest.raises(TooLarge, match="rank 5 exceeds"):
            index(P)
    assert flags._flag_counts.cache_info() == before


def test_memo_after_the_ii_suite_holds_each_structure_once(monkeypatch):
    structures = []
    counted = flags.flag_f_vector

    def recording(P):
        structures.append((P.rank, P.down))
        return counted(P)

    monkeypatch.setattr(flags, "flag_f_vector", recording)
    flags._flag_counts.cache_clear()
    SUITES["ii"](0)
    assert flags._flag_counts.cache_info().currsize == len(set(structures))
    assert len(set(structures)) < len(structures)
