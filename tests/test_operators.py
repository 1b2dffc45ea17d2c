import copy
import gc
import random
import tracemalloc
from fractions import Fraction
from functools import cache

import pytest

from posetops import ncpoly, operators
from posetops.errors import DegreeMismatch, InvalidSize, PosetOpsError, TooLarge
from posetops.flags import ab_index, cd_index, upsilon
from posetops.ncpoly import (
    AB,
    CD,
    NCPoly,
    _accumulate,
    ab_words,
    cd_ce_convert,
    cd_words,
    expand_cd,
    monomial,
    unit,
)
from posetops.operators import (
    INTERVAL_MAX_DEGREE,
    _ab_coproduct_word,
    _cd_coproduct_word,
    _framed,
    _mix_ab_pairs,
    _mixing_cd_words,
    ab_interval_transform,
    cd_interval_transform,
    ce_word_count,
    delannoy_ce_coefficient,
    delannoy_mixing,
    eigen_experiments,
    ladder_interval_coefficient,
    ladder_second_kind_ce_coefficient,
    ladder_second_kind_coefficient,
    lift,
    mixing_ab,
    mixing_cd,
    pyramid,
    second_kind_ab_transform,
    second_kind_cd_transform,
    upsilon_interval_transform,
)
from posetops.posets import (
    boolean_lattice,
    chain_poset,
    direct_product,
    graded_interval_poset,
    ladder_poset,
    second_kind_transform,
)
from test_ncpoly import substitute
from test_verify import mutant


def ab(terms):
    return NCPoly(AB, terms)


def cd(terms):
    return NCPoly(CD, terms)


# -- vertex-wise interval transform ----------------------------------------------


def test_iota_on_short_words():
    assert upsilon_interval_transform(unit(AB)) == ab({"a": 1, "b": 2})
    assert upsilon_interval_transform(monomial(AB, "a")) == ab({"aa": 1, "ba": 2})
    assert upsilon_interval_transform(monomial(AB, "b")) == ab(
        {"bb": 4, "ab": 2, "ba": 1}
    )


def test_iota_on_degree_two_words():
    assert upsilon_interval_transform(monomial(AB, "aa")) == ab(
        {"aaa": 1, "baa": 2}
    )
    mixed = ab({"aab": 1, "aba": 1, "bab": 2, "bba": 2, "baa": 1})
    assert upsilon_interval_transform(monomial(AB, "ab")) == mixed
    assert upsilon_interval_transform(monomial(AB, "ba")) == mixed
    assert upsilon_interval_transform(monomial(AB, "bb")) == ab(
        {"bbb": 8, "abb": 4, "bab": 2, "aba": 1, "bba": 2}
    )


def test_iota_matches_interval_poset_flags():
    for P in (boolean_lattice(2), boolean_lattice(3), chain_poset(3), ladder_poset(2)):
        lhs = upsilon(graded_interval_poset(P))
        rhs = upsilon_interval_transform(upsilon(P))
        assert lhs == rhs


def test_iota_rejects_cd_input():
    with pytest.raises(PosetOpsError):
        upsilon_interval_transform(unit(CD))


# -- quasi-shuffle and the ab mixing ----------------------------------------------


@cache
def quasi_shuffle(alpha, beta):
    """Quasi-shuffle of two compositions, the product of monomial
    quasisymmetric functions: interleave the parts, optionally merging one
    part from each side."""
    if not alpha or not beta:
        return {alpha + beta: 1}
    out = {}
    for head, rest in (
        ((alpha[0],), quasi_shuffle(alpha[1:], beta)),
        ((beta[0],), quasi_shuffle(alpha, beta[1:])),
        ((alpha[0] + beta[0],), quasi_shuffle(alpha[1:], beta[1:])),
    ):
        for tail, count in rest.items():
            out[head + tail] = out.get(head + tail, 0) + count
    return out


def compositions(m):
    """Every composition of m, as a tuple of parts; () for m = 0."""
    if m == 0:
        return [()]
    return [(k,) + rest for k in range(1, m + 1) for rest in compositions(m - k)]


def closed_word(parts):
    """The flag word of a composition read with a closing b: one block
    a^(k-1) b per part k."""
    return "".join("a" * (part - 1) + "b" for part in parts)


def shuffled(x, y):
    """The quasi-shuffle of two flag words that end in their closing b,
    through `_mix_ab_pairs`: the ab-word pair whose flag-basis image is x|y
    (without the closing b's) is mixed, and the result is read back in the
    flag basis with its closing b."""
    pair = ncpoly._change_basis({x[:-1] + "|" + y[:-1]: 1}, -1)
    flags = ncpoly._change_basis(_mix_ab_pairs(pair).terms, 1)
    return {word + "b": count for word, count in flags.items()}


def test_quasi_shuffle_of_singletons():
    assert shuffled("b", "b") == {"bb": 2, "ab": 1}
    assert shuffled("b", "bb") == {"bbb": 3, "abb": 1, "bab": 1}
    assert shuffled("ab", "bb") == {
        "abbb": 1,
        "babb": 1,
        "bbab": 1,
        "aabb": 1,
        "baab": 1,
    }


def test_quasi_shuffle_square():
    assert shuffled("bb", "bb") == {
        "bbbb": 6,
        "abbb": 2,
        "babb": 2,
        "bbab": 2,
        "abab": 1,
    }
    assert quasi_shuffle((1, 1), (1, 1)) == {
        (1, 1, 1, 1): 6,
        (2, 1, 1): 2,
        (1, 2, 1): 2,
        (1, 1, 2): 2,
        (2, 2): 1,
    }


def test_word_quasi_shuffle_matches_the_composition_quasi_shuffle():
    # a flag word with its closing b is a nonempty composition; the states
    # with an empty side are reached inside every pair
    assert [len(compositions(m)) for m in range(5)] == [1, 1, 2, 4, 8]
    for total in range(11):
        for m in range(1, total):
            for alpha in compositions(m):
                for beta in compositions(total - m):
                    expected = {
                        closed_word(parts): count
                        for parts, count in quasi_shuffle(alpha, beta).items()
                    }
                    got = shuffled(closed_word(alpha), closed_word(beta))
                    assert got == expected, (alpha, beta)


def test_mixing_ab_base_cases():
    one = unit(AB)
    assert mixing_ab(one, one) == ab({"a": 1, "b": 1})
    assert mixing_ab(one, monomial(AB, "a")) == ab({"aa": 1, "ab": 1, "ba": 1})
    assert mixing_ab(monomial(AB, "a"), one) == ab({"aa": 1, "ab": 1, "ba": 1})
    assert mixing_ab(one, monomial(AB, "b")) == ab({"ab": 1, "ba": 1, "bb": 1})


def test_mixing_ab_degree_two():
    assert mixing_ab(monomial(AB, "a"), monomial(AB, "a")) == ab(
        {"aaa": 1, "baa": 1, "aba": 2, "aab": 1, "bab": 1}
    )
    assert mixing_ab(monomial(AB, "a"), monomial(AB, "b")) == ab(
        {"aab": 1, "aba": 1, "baa": 1, "abb": 1, "bab": 1, "bba": 1}
    )
    assert mixing_ab(unit(AB), monomial(AB, "aa")) == ab(
        {"aaa": 1, "baa": 1, "aba": 1, "aab": 1}
    )


def test_mixing_ab_sum_is_index_of_cube():
    total = mixing_ab(unit(AB), ab({"a": 1, "b": 1}))
    assert total == ab_index(boolean_lattice(3))


def test_mixing_is_symmetric():
    samples = [unit(AB), monomial(AB, "a"), monomial(AB, "ab"), ab({"aa": 1, "b": 2})]
    for p in samples:
        for q in samples:
            assert mixing_ab(p, q) == mixing_ab(q, p)


def test_mixing_matches_direct_product_index():
    B2 = boolean_lattice(2)
    C2 = chain_poset(2)
    lhs = mixing_ab(ab_index(C2), ab_index(B2))
    assert lhs == ab_index(direct_product(C2, B2))
    lhs2 = mixing_ab(ab_index(B2), ab_index(B2))
    assert lhs2 == ab_index(direct_product(B2, B2))


# -- cd mixing ---------------------------------------------------------------------


def test_mixing_cd_small_values():
    one = unit(CD)
    c = monomial(CD, "c")
    assert mixing_cd(one, one) == cd({"c": 1})
    assert mixing_cd(one, c) == cd({"cc": 1, "d": 1})
    assert mixing_cd(c, one) == cd({"cc": 1, "d": 1})
    assert mixing_cd(c, c) == cd({"ccc": 1, "dc": 2, "cd": 2})
    assert mixing_cd(one, monomial(CD, "d")) == cd({"dc": 1, "cd": 1})
    assert mixing_cd(one, monomial(CD, "cc")) == cd({"ccc": 1, "cd": 1, "dc": 1})


def test_mixing_cd_of_c_squared_and_c():
    got = mixing_cd(monomial(CD, "cc"), monomial(CD, "c"))
    assert got == cd({"cccc": 1, "ccd": 2, "cdc": 3, "dcc": 2, "dd": 2})


def test_mixing_cd_agrees_with_ab_mixing():
    pairs = [
        ("", ""),
        ("", "c"),
        ("c", "c"),
        ("", "d"),
        ("c", "d"),
        ("cc", "c"),
        ("d", "d"),
        ("cc", "cc"),
        ("cd", "c"),
        ("dc", "c"),
        ("cd", "cc"),
        ("dc", "d"),
    ]
    for u, v in pairs:
        via_cd = expand_cd(mixing_cd(monomial(CD, u), monomial(CD, v)))
        via_ab = mixing_ab(expand_cd(monomial(CD, u)), expand_cd(monomial(CD, v)))
        assert via_cd == via_ab, (u, v)


def test_pyramid_values():
    assert pyramid(unit(CD)) == cd({"c": 1})
    assert pyramid(unit(AB)) == ab({"a": 1, "b": 1})
    assert pyramid(cd({"cc": 1, "d": 1})) == cd({"ccc": 1, "cd": 2, "dc": 2})
    assert pyramid(cd({"c": 1})) == cd({"cc": 1, "d": 1})


def test_pyramid_tower_gives_boolean_indices():
    p = unit(CD)
    for n in range(2, 6):
        p = pyramid(p)
        assert p == cd_index(boolean_lattice(n))


# -- interval transforms on the index level ----------------------------------------


def test_ab_interval_transform_small_words():
    assert ab_interval_transform(unit(AB)) == ab({"a": 1, "b": 1})
    assert ab_interval_transform(monomial(AB, "a")) == ab(
        {"aa": 1, "ab": 1, "ba": 2}
    )
    assert ab_interval_transform(monomial(AB, "b")) == ab(
        {"ab": 2, "ba": 1, "bb": 1}
    )
    assert ab_interval_transform(ab({"a": 1, "b": 1})) == ab(
        {"aa": 1, "ab": 3, "ba": 3, "bb": 1}
    )


def test_ab_interval_transform_degree_two():
    assert ab_interval_transform(monomial(AB, "aa")) == ab(
        {"aaa": 1, "aba": 2, "baa": 3, "aab": 1, "bab": 1}
    )
    both = ab({"aab": 1, "abb": 1, "bab": 2, "aba": 2, "baa": 1, "bba": 1})
    assert ab_interval_transform(monomial(AB, "ab")) == both
    assert ab_interval_transform(monomial(AB, "ba")) == both
    assert ab_interval_transform(monomial(AB, "bb")) == ab(
        {"abb": 3, "bab": 2, "bbb": 1, "aba": 1, "bba": 1}
    )


def test_ab_interval_transform_matches_interval_poset_index():
    for P in (boolean_lattice(2), boolean_lattice(3), ladder_poset(2)):
        lhs = ab_index(graded_interval_poset(P))
        rhs = ab_interval_transform(ab_index(P))
        assert lhs == rhs


def test_interval_transforms_refuse_degrees_over_the_cap():
    assert INTERVAL_MAX_DEGREE == 12
    top = monomial(AB, "b" * 12)
    assert upsilon_interval_transform(top).degree() == 13
    assert ab_interval_transform(top) == ab_interval_by_words(top)
    over = monomial(AB, "b" * 13)
    for transform in (upsilon_interval_transform, ab_interval_transform):
        with pytest.raises(TooLarge):
            transform(over)
        with pytest.raises(TooLarge):
            transform(over + top)
    with pytest.raises(PosetOpsError):
        ab_interval_transform(unit(CD))


def test_second_kind_ab_transform_refuses_degrees_over_the_cap():
    top = monomial(AB, "b" * 12)
    assert second_kind_ab_transform(top) == second_kind_ab_by_coproduct_terms(top)
    over = monomial(AB, "b" * 13)
    for p in (over, over + top):
        with pytest.raises(TooLarge):
            second_kind_ab_transform(p)
    with pytest.raises(PosetOpsError, match="the transform acts on ab-polynomials"):
        second_kind_ab_transform(unit(CD))


def test_cd_interval_transform_refuses_degrees_over_the_cap():
    top = monomial(CD, "c" * 12)
    expected = {
        w: ladder_interval_coefficient(12, [len(run) for run in w.split("d")])
        for w in cd_words(13)
    }
    assert cd_interval_transform(top) == cd(expected)
    assert cd_interval_transform(monomial(CD, "d" * 6)).degree() == 13
    for over in (monomial(CD, "c" * 13), monomial(CD, "d" * 6 + "c")):
        with pytest.raises(TooLarge):
            cd_interval_transform(over)
        with pytest.raises(TooLarge):
            cd_interval_transform(over + top)
    with pytest.raises(PosetOpsError):
        cd_interval_transform(unit(AB))


def test_second_kind_cd_transform_refuses_degrees_over_the_cap():
    top = monomial(CD, "c" * 12)
    expected = {
        w: ladder_second_kind_coefficient(12, [len(run) for run in w.split("d")])
        for w in cd_words(12)
    }
    assert second_kind_cd_transform(top) == cd(expected)
    for over in (monomial(CD, "c" * 13), monomial(CD, "d" * 6 + "c")):
        with pytest.raises(TooLarge, match="degree 13 exceeds the cap of 12"):
            second_kind_cd_transform(over)
    with pytest.raises(PosetOpsError, match="the transform acts on cd-polynomials"):
        second_kind_cd_transform(monomial(AB, "ab"))


def test_cd_interval_transform_small_words():
    assert cd_interval_transform(unit(CD)) == cd({"c": 1})
    assert cd_interval_transform(monomial(CD, "c")) == cd({"cc": 1, "d": 2})
    assert cd_interval_transform(monomial(CD, "cc")) == cd(
        {"ccc": 1, "cd": 2, "dc": 4}
    )
    assert cd_interval_transform(monomial(CD, "d")) == cd({"cd": 2, "dc": 2})
    assert cd_interval_transform(monomial(CD, "cd")) == cd(
        {"ccd": 1, "dd": 4, "dcc": 2, "cdc": 3}
    )


def test_cd_interval_transform_agrees_with_ab_route():
    for word in ["", "c", "d", "cc", "cd", "dc", "ccc", "dd"]:
        via_cd = expand_cd(cd_interval_transform(monomial(CD, word)))
        via_ab = ab_interval_transform(expand_cd(monomial(CD, word)))
        assert via_cd == via_ab, word


def test_cd_interval_transform_matches_cube_and_ladder():
    # the bottomed interval poset of a ladder is the next ladder's analogue
    assert cd_interval_transform(cd_index(boolean_lattice(2))) == cd_index(
        graded_interval_poset(boolean_lattice(2))
    )
    for n in range(1, 4):
        lhs = cd_interval_transform(cd_index(ladder_poset(n)))
        rhs = cd_index(graded_interval_poset(ladder_poset(n)))
        assert lhs == rhs


# -- second-kind transforms ---------------------------------------------------------


def test_second_kind_ab_small_values():
    assert second_kind_ab_transform(unit(AB)) == ab({"": 2})
    assert second_kind_ab_transform(monomial(AB, "a")) == ab({"a": 3, "b": 1})
    assert second_kind_ab_transform(monomial(AB, "b")) == ab({"a": 1, "b": 3})


def test_second_kind_cd_small_values():
    assert second_kind_cd_transform(monomial(CD, "c")) == cd({"c": 4})
    assert second_kind_cd_transform(monomial(CD, "cc")) == cd({"cc": 6, "d": 4})
    in_ce = cd_ce_convert(second_kind_cd_transform(monomial(CD, "cc")))
    assert in_ce == NCPoly("ce", {"cc": 8, "ee": -2})


def test_second_kind_routes_agree():
    for word in ["", "c", "d", "cc", "cd", "dc", "ccc"]:
        via_cd = expand_cd(second_kind_cd_transform(monomial(CD, word)))
        via_ab = second_kind_ab_transform(expand_cd(monomial(CD, word)))
        assert via_cd == via_ab, word


def test_second_kind_transform_totals_member_indices():
    B2 = boolean_lattice(2)
    members = second_kind_transform(B2)
    total = NCPoly(AB)
    for _, member in members:
        total = total + ab_index(member)
    assert total == second_kind_ab_transform(ab_index(B2))


def test_second_kind_eigen_on_boolean_indices():
    for n in range(1, 5):
        psi = ab_index(boolean_lattice(n))
        assert second_kind_ab_transform(psi) == psi.scaled(2**n)


def test_second_kind_kills_reversal_differences():
    for word in ["ab", "aab", "abb", "aabb", "abab"]:
        diff = monomial(AB, word) - monomial(AB, word).star()
        assert second_kind_ab_transform(diff).is_zero()


def test_lift_basics():
    assert lift(unit(AB)) == ab({"a": 2, "b": -2})
    v = lift(ab_index(boolean_lattice(2)))
    assert v.star() == v
    assert second_kind_ab_transform(v) == v.scaled(4)
    with pytest.raises(PosetOpsError):
        lift(unit(CD))


# -- Delannoy model -----------------------------------------------------------------


def test_delannoy_smallest_cases():
    assert delannoy_mixing(0, 0) == cd({"c": 1})
    assert delannoy_mixing(0, 1) == cd({"cc": 1, "d": 1})
    assert delannoy_mixing(1, 0) == cd({"cc": 1, "d": 1})
    assert delannoy_mixing(1, 1) == cd({"ccc": 1, "dc": 2, "cd": 2})


def test_delannoy_matches_mixing():
    c = "c"
    for i in range(3):
        for j in range(3):
            lhs = delannoy_mixing(i, j)
            rhs = mixing_cd(monomial(CD, c * i), monomial(CD, c * j))
            assert lhs == rhs, (i, j)


def test_delannoy_recurrence():
    c = monomial(CD, "c")
    ne = cd({"d": 2, "cc": -1})
    for i in range(2):
        for j in range(2):
            lhs = delannoy_mixing(i + 1, j + 1)
            rhs = (
                (delannoy_mixing(i, j + 1) + delannoy_mixing(i + 1, j)) * c
                + delannoy_mixing(i, j) * ne
            )
            assert lhs == rhs, (i, j)


def test_delannoy_rejects_negative():
    with pytest.raises(InvalidSize):
        delannoy_mixing(-1, 0)


def test_delannoy_caps_the_path_length():
    # mixing_cd refuses result degree 21, so the longest path meets the word
    # recursion behind it
    assert delannoy_mixing(20, 0) == cd(_mixing_cd_words("c" * 20, ""))
    with pytest.raises(TooLarge):
        mixing_cd(monomial(CD, "c" * 20), unit(CD))
    with pytest.raises(TooLarge):
        delannoy_mixing(11, 10)
    with pytest.raises(TooLarge):
        delannoy_mixing(1000, 1000)


def test_delannoy_result_is_a_copy():
    delannoy_mixing(2, 1).terms.clear()
    assert delannoy_mixing(2, 1) == mixing_cd(monomial(CD, "cc"), monomial(CD, "c"))


def test_delannoy_ce_coefficients():
    assert delannoy_ce_coefficient(0, 0, 0) == 1
    assert delannoy_ce_coefficient(0, 1, 0) == Fraction(3, 2)
    assert delannoy_ce_coefficient(0, 1, 1) == Fraction(-1, 2)
    assert delannoy_ce_coefficient(1, 1, 0) == 3
    assert delannoy_ce_coefficient(1, 1, 1) == -1
    assert delannoy_ce_coefficient(0, 0, 5) == 0


def test_delannoy_ce_form_depends_only_on_pair_count():
    for i in range(3):
        for j in range(3):
            in_ce = cd_ce_convert(delannoy_mixing(i, j))
            for word, coeff in in_ce.terms.items():
                es = word.count("e")
                assert es % 2 == 0
                assert coeff == delannoy_ce_coefficient(i, j, es // 2), (
                    i,
                    j,
                    word,
                )


# -- closed forms for chain powers ---------------------------------------------------


def test_ladder_interval_coefficients():
    assert ladder_interval_coefficient(1, (2,)) == 1
    assert ladder_interval_coefficient(1, (0, 0)) == 2
    assert ladder_interval_coefficient(2, (1, 0)) == 2
    assert ladder_interval_coefficient(2, (0, 1)) == 4
    with pytest.raises(DegreeMismatch):
        ladder_interval_coefficient(2, (1, 1))
    with pytest.raises(DegreeMismatch):
        ladder_interval_coefficient(2, ())


def test_ladder_interval_coefficients_match_transform():
    for n in range(1, 6):
        image = cd_interval_transform(monomial(CD, "c" * n))
        for word, coeff in image.terms.items():
            runs = [len(run) for run in word.split("d")]
            assert coeff == ladder_interval_coefficient(n, tuple(runs)), word


def test_ladder_second_kind_coefficients():
    assert ladder_second_kind_coefficient(2, (2,)) == 6
    assert ladder_second_kind_coefficient(2, (0, 0)) == 4
    with pytest.raises(DegreeMismatch):
        ladder_second_kind_coefficient(2, (1, 0))


def test_ladder_second_kind_coefficients_match_transform():
    for n in range(1, 6):
        image = second_kind_cd_transform(monomial(CD, "c" * n))
        for word, coeff in image.terms.items():
            runs = [len(run) for run in word.split("d")]
            assert coeff == ladder_second_kind_coefficient(n, tuple(runs)), word


def test_ladder_second_kind_ce_coefficients():
    assert ladder_second_kind_ce_coefficient(2, 0) == 8
    assert ladder_second_kind_ce_coefficient(2, 1) == -2
    assert ladder_second_kind_ce_coefficient(4, 1) == -8
    assert ce_word_count(4, 0) == 1
    assert ce_word_count(4, 1) == 3
    assert ce_word_count(4, 2) == 1
    with pytest.raises(DegreeMismatch):
        ladder_second_kind_ce_coefficient(2, 2)


def test_gamma_totals():
    for n in range(1, 5):
        in_ce = cd_ce_convert(second_kind_cd_transform(monomial(CD, "c" * n)))
        assert in_ce.coefficient_total() == 2 * (n + 1)


def test_second_kind_ce_form_of_chain_powers():
    for n in range(1, 5):
        in_ce = cd_ce_convert(second_kind_cd_transform(monomial(CD, "c" * n)))
        seen_by_r = {}
        for word, coeff in in_ce.terms.items():
            # every word must factor into single c's and adjacent ee pairs
            stripped = word.replace("ee", "E")
            assert "e" not in stripped, word
            r = stripped.count("E")
            assert coeff == ladder_second_kind_ce_coefficient(n, r), word
            seen_by_r[r] = seen_by_r.get(r, 0) + 1
        for r, count in seen_by_r.items():
            assert count == ce_word_count(n, r)


# -- eigen experiments ----------------------------------------------------------------


def test_second_kind_is_morphism_for_mixing():
    words = ["", "a", "b", "ab", "ba", "aa", "bb"]
    for u in words:
        for v in words:
            if len(u) + len(v) > 3:
                continue
            p, q = monomial(AB, u), monomial(AB, v)
            lhs = second_kind_ab_transform(mixing_ab(p, q))
            rhs = mixing_ab(
                second_kind_ab_transform(p), second_kind_ab_transform(q)
            )
            assert lhs == rhs, (u, v)


def test_mixing_of_eigenvectors_multiplies_eigenvalues():
    pairs = [
        (unit(AB), 2),
        (lift(unit(AB)), 2),
        (ab_index(boolean_lattice(2)), 4),
        (ab_index(boolean_lattice(3)), 8),
    ]
    for u1, l1 in pairs:
        for u2, l2 in pairs:
            m = mixing_ab(u1, u2)
            assert second_kind_ab_transform(m) == m.scaled(l1 * l2)


def test_lift_keeps_eigenvectors_only_in_low_degree():
    # the two smallest boolean indices survive lifting, the next two do not
    for n, preserved in [(1, True), (2, True), (3, False), (4, False)]:
        v = lift(ab_index(boolean_lattice(n)))
        got = second_kind_ab_transform(v)
        assert (got == v.scaled(2**n)) is preserved, n
    # repeated lifts of the unit stay on the eigenvalue-2 line
    v = unit(AB)
    for _ in range(4):
        v = lift(v)
        assert second_kind_ab_transform(v) == v.scaled(2)


def test_eigen_experiments_shape_and_small_values():
    results = eigen_experiments(3)
    assert [row["n"] for row in results] == [1, 2, 3]
    for row in results:
        n = row["n"]
        assert row["asym_dim"] == 2 ** (n - 1) - 2 ** ((n - 1) // 2)
        assert row["sym_dim"] == 2 ** (n - 1) + 2 ** ((n - 1) // 2)
        assert row["kernel_contains_asym"]
        assert row["compositions_symmetric"]
        assert row["kernel_equals_asym"]
        assert row["spans_sym"]
    assert [row["eigen_composition_count"] for row in results] == [2, 4, 7]
    assert [row["eigen_spans_sym"] for row in results] == [True, True, False]


def test_eigen_experiments_at_degree_seven():
    # the one degree the eigen suite does not reach: the pyramid/lift
    # compositions fall one short of the symmetric space
    assert eigen_experiments(7)[-1] == {
        "n": 7,
        "kernel_dim": 63,
        "asym_dim": 56,
        "kernel_contains_asym": True,
        "kernel_equals_asym": False,
        "sym_dim": 72,
        "composition_count": 128,
        "eigen_composition_count": 29,
        "composition_rank": 71,
        "eigen_composition_rank": 17,
        "compositions_symmetric": True,
        "spans_sym": False,
        "eigen_spans_sym": False,
    }


def test_eigen_experiments_caps():
    with pytest.raises(TooLarge):
        eigen_experiments(8)
    with pytest.raises(InvalidSize):
        eigen_experiments(0)


# -- slow oracles: one path, one word pair, one coproduct term at a time ------------


def delannoy_by_walking(i, j):
    """Halved total of the Delannoy path weights, walking every path."""
    c = monomial(CD, "c")
    ne = cd({"d": 2, "cc": -1})
    total = NCPoly(CD)

    def walk(x, y, weight):
        nonlocal total
        if x == i and y == j:
            total = total + weight
            return
        if x < i:
            walk(x + 1, y, weight * c)
        if y < j:
            walk(x, y + 1, weight * c)
        if x < i and y < j:
            walk(x + 1, y + 1, weight * ne)

    walk(-1, 0, unit(CD))
    walk(0, -1, unit(CD))
    return total.scaled(Fraction(1, 2))


def composition(word):
    return tuple(len(run) + 1 for run in word.split("b"))


def composition_word(parts):
    return "b".join("a" * (part - 1) for part in parts)


TO_FLAGS = {"a": ab({"a": 1, "b": 1}), "b": monomial(AB, "b")}
FROM_FLAGS = {"a": ab({"a": 1, "b": -1}), "b": monomial(AB, "b")}


def mixing_ab_by_word_pairs(p, q):
    """Mixing with a separate flag-basis round trip for every word pair."""
    total = NCPoly(AB)
    for u, cu in p.terms.items():
        for v, cv in q.terms.items():
            mixed = {}
            v_flags = substitute(monomial(AB, v), TO_FLAGS).terms
            for uw, c1 in substitute(monomial(AB, u), TO_FLAGS).terms.items():
                for vw, c2 in v_flags.items():
                    shuffled = quasi_shuffle(composition(uw), composition(vw))
                    for parts, count in shuffled.items():
                        word = composition_word(parts)
                        mixed[word] = mixed.get(word, 0) + c1 * c2 * count
            pair = substitute(NCPoly(AB, mixed), FROM_FLAGS)
            total = total + pair.scaled(cu * cv)
    return total


def second_kind_ab_by_coproduct_terms(p):
    """II word by word: w + w* plus one mixing per deleted letter of w."""
    total = NCPoly(AB)
    for word, coeff in p.terms.items():
        image = monomial(AB, word) + monomial(AB, word[::-1])
        for k in range(len(word)):
            left, right = monomial(AB, word[:k][::-1]), monomial(AB, word[k + 1 :])
            image = image + mixing_ab_by_word_pairs(left, right)
        total = total + image.scaled(coeff)
    return total


def random_ab_polys(seed, count):
    """Seeded ab-polynomials of degrees 0..5, some with mixed degrees, with
    integer and non-integral coefficients."""
    rng = random.Random(seed)
    polys = [lift(unit(AB)), ab({"a": 1, "b": -1}), NCPoly(AB)]
    while len(polys) < count:
        degree = rng.randint(0, 5)
        terms = {}
        for _ in range(rng.randint(1, 4)):
            n = degree if rng.random() < 0.7 else rng.randint(0, 5)
            word = "".join(rng.choice("ab") for _ in range(n))
            terms[word] = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))
        polys.append(ab(terms))
    return polys


def test_delannoy_matches_the_path_walker():
    for i in range(6):
        for j in range(6):
            assert delannoy_mixing(i, j) == delannoy_by_walking(i, j), (i, j)


def test_mixing_ab_matches_the_word_pair_route():
    polys = random_ab_polys(2020, 16)
    for p, q in zip(polys, polys[1:] + polys[:1]):
        assert mixing_ab(p, q) == mixing_ab_by_word_pairs(p, q), (p, q)
    assert any(c.denominator > 1 for p in polys for c in p.terms.values())


def test_second_kind_ab_matches_the_coproduct_term_route():
    for p in random_ab_polys(2021, 16):
        assert second_kind_ab_transform(p) == second_kind_ab_by_coproduct_terms(p), p


_A_PLUS_B = NCPoly(AB, {"a": 1, "b": 1})
_AB_PLUS_BA = NCPoly(AB, {"ab": 1, "ba": 1})


@cache
def _ab_interval_word(word: str) -> NCPoly:
    if not word:
        return _A_PLUS_B
    u, last = word[:-1], word[-1]
    u_star = monomial(AB, u[::-1])
    inner = monomial(AB, "ab" if last == "a" else "ba")
    result = _ab_interval_word(u) * monomial(AB, last) + _AB_PLUS_BA * u_star
    for (u1, u2), coeff in _ab_coproduct_word(u).items():
        piece = _ab_interval_word(u2) * inner * monomial(AB, u1[::-1])
        result = result + piece.scaled(coeff)
    return result


def ab_interval_by_words(p):
    """Iab by its own recursion on ab-words, peeling the last letter, with
    no change of basis."""
    total = NCPoly(AB)
    for word, coeff in p.terms.items():
        total = total + _ab_interval_word(word).scaled(coeff)
    return total


def test_ab_interval_transform_matches_the_ab_recursion_on_every_word():
    for n in range(10):
        for word in ab_words(n):
            p = monomial(AB, word)
            assert ab_interval_transform(p) == ab_interval_by_words(p), word


def test_ab_interval_transform_matches_the_ab_recursion_on_dense_polys():
    rng = random.Random(1994)
    for n, den in ((7, 1), (8, 5), (9, 1)):
        p = ab({w: Fraction(rng.randint(-9, 9) or 1, den) for w in ab_words(n)})
        assert len(p.terms) == 2**n
        assert (den > 1) == any(c.denominator > 1 for c in p.terms.values())
        assert ab_interval_transform(p) == ab_interval_by_words(p), n


# -- the NCPoly-product recursions that the term-dict ones replaced ------------------

_A_PLUS_2B = ab({"a": 1, "b": 2})
_D = monomial(CD, "d")


@cache
def iota_by_products(word):
    if "b" not in word:
        return _A_PLUS_2B * monomial(AB, word)
    first, last = word.index("b"), word.rindex("b")
    i, j = first, len(word) - 1 - last
    if first == last:
        symmetric = monomial(AB, word) + monomial(AB, "a" * j + "b" + "a" * i)
        return _A_PLUS_2B * symmetric + monomial(AB, "b" + "a" * (i + j + 1))
    return (
        iota_by_products(word[:last]) * monomial(AB, "b" + "a" * j)
        + iota_by_products(word[first + 1 :]) * monomial(AB, "b" + "a" * i)
        + iota_by_products(word[first + 1 : last]) * monomial(AB, "b" + "a" * (i + j + 1))
    )


@cache
def mixing_cd_by_products(u, v):
    if not v:
        return monomial(CD, "c") if not u else mixing_cd_by_products(v, u)
    head, last = v[:-1], v[-1]
    if last == "c":
        result = (
            monomial(CD, head) * _D * monomial(CD, u)
            + mixing_cd_by_products(u, head) * monomial(CD, "c")
        )
        for (u1, u2), coeff in _cd_coproduct_word(u).items():
            piece = mixing_cd_by_products(u1, head) * _D * monomial(CD, u2)
            result = result + piece.scaled(coeff)
        return result
    result = (
        monomial(CD, head) * _D * mixing_cd_by_products("", u)
        + mixing_cd_by_products(u, head) * _D
    )
    for (u1, u2), coeff in _cd_coproduct_word(u).items():
        piece = mixing_cd_by_products(u1, head) * _D * mixing_cd_by_products("", u2)
        result = result + piece.scaled(coeff)
    return result


@cache
def cd_interval_by_products(word):
    if not word:
        return monomial(CD, "c")
    u, last = word[:-1], word[-1]
    u_star = monomial(CD, u[::-1])
    if last == "c":
        result = cd_interval_by_products(u) * monomial(CD, "c") + 2 * _D * u_star
        for (u1, u2), coeff in _cd_coproduct_word(u).items():
            piece = cd_interval_by_products(u2) * _D * monomial(CD, u1[::-1])
            result = result + piece.scaled(coeff)
        return result
    result = (
        cd_interval_by_products(u) * _D
        + cd({"dc": 1, "cd": 1}) * u_star
        + _D * u_star * monomial(CD, "c")
    )
    for (u1, u2), coeff in _cd_coproduct_word(u).items():
        u1_star, u2_star = monomial(CD, u1[::-1]), monomial(CD, u2[::-1])
        piece = cd_interval_by_products(u2) * _D * mixing_cd_by_products("", u1[::-1])
        piece = piece + _D * u2_star * _D * u1_star
        result = result + piece.scaled(coeff)
    return result


def second_kind_cd_by_products(word):
    result = monomial(CD, word) + monomial(CD, word[::-1])
    for (u1, u2), coeff in _cd_coproduct_word(word).items():
        result = result + mixing_cd_by_products(u1[::-1], u2).scaled(coeff)
    return result


def delannoy_by_lattice_products(i, j):
    """The lattice-point recursion with one NCPoly product per step."""
    c, ne = monomial(CD, "c"), cd({"d": 2, "cc": -1})
    west = [NCPoly(CD)] * (j + 2)
    for x in range(-1, i + 1):
        here = []
        for y in range(-1, j + 1):
            if y < 0:
                total = west[y + 1] * c
            else:
                total = (west[y + 1] + here[y]) * c + west[y] * ne
            if (x, y) in ((-1, 0), (0, -1)):
                total = total + unit(CD)
            here.append(total)
        west = here
    return west[j + 1].scaled(Fraction(1, 2))


def by_words(p, image):
    total = NCPoly(p.alphabet)
    for word, coeff in p.terms.items():
        total = total + image(word).scaled(coeff)
    return total


def dense_cd(rng, n, den=1):
    return cd({w: Fraction(rng.randint(-9, 9) or 1, den) for w in cd_words(n)})


def test_iota_matches_the_product_recursion_on_every_word():
    for n in range(11):
        for word in ab_words(n):
            got = upsilon_interval_transform(monomial(AB, word))
            assert got == iota_by_products(word), word


def test_cd_word_recursions_match_the_product_recursions_on_every_word():
    for n in range(11):
        for word in cd_words(n):
            p = monomial(CD, word)
            assert cd_interval_transform(p) == cd_interval_by_products(word), word
            assert second_kind_cd_transform(p) == second_kind_cd_by_products(word), word
            for m in range(11 - n):
                for v in cd_words(m):
                    got = mixing_cd(p, monomial(CD, v))
                    assert got == mixing_cd_by_products(word, v), (word, v)


def test_cd_word_recursions_match_the_product_recursions_on_dense_polys():
    rng = random.Random(1998)
    for n, den in ((8, 1), (9, 4), (10, 1)):
        p = dense_cd(rng, n, den)
        assert cd_interval_transform(p) == by_words(p, cd_interval_by_products), n
        assert second_kind_cd_transform(p) == by_words(p, second_kind_cd_by_products)
    for i, j, den in ((6, 6, 1), (7, 5, 3), (4, 8, 1)):
        p, q = dense_cd(rng, i, den), dense_cd(rng, j)
        mixed = by_words(p, lambda u: by_words(q, lambda v: mixing_cd_by_products(u, v)))
        assert mixing_cd(p, q) == mixed, (i, j)


def test_delannoy_matches_the_lattice_products():
    for i in range(13):
        for j in range(13 - i):
            assert delannoy_mixing(i, j) == delannoy_by_lattice_products(i, j), (i, j)


def dense_ab(rng, n, den=1):
    return ab({w: Fraction(rng.randint(-9, 9) or 1, den) for w in ab_words(n)})


@cache
def flag_image(word):
    return substitute(monomial(AB, word), TO_FLAGS).terms


def mixing_by_flag_pairs(pairs):
    """Mixing of weighted ab-word pairs {(u, v): coefficient} summed over
    pairs of flag words: each word is substituted into the flag basis, each
    pair of flag words is quasi-shuffled as compositions on its own, and the
    flag-basis sum is substituted back once."""
    flags = {}
    for (u, v), coeff in pairs.items():
        for x, cx in flag_image(u).items():
            for y, cy in flag_image(v).items():
                flags[x, y] = flags.get((x, y), 0) + coeff * cx * cy
    total = {}
    for (x, y), coeff in flags.items():
        for parts, count in quasi_shuffle(composition(x), composition(y)).items():
            word = composition_word(parts)
            total[word] = total.get(word, 0) + coeff * count
    return substitute(ab(total), FROM_FLAGS)


@cache
def dense_ab_cases():
    """Dense inputs, in which many words meet in one state of the one-pass
    ab routes, each with an oracle that takes one word, or one pair of flag
    words, at a time: (name, route, expected)."""
    rng = random.Random(2010)
    p10, p8 = dense_ab(rng, 10), dense_ab(rng, 8, 3)
    p4, q4 = dense_ab(rng, 4), dense_ab(rng, 4, 2)
    pairs = {(u, v): cu * cv for u, cu in p4.terms.items() for v, cv in q4.terms.items()}
    coproducts = {}
    for word, coeff in p8.terms.items():
        for k in range(len(word)):
            key = word[:k][::-1], word[k + 1 :]
            coproducts[key] = coproducts.get(key, 0) + coeff
    return [
        ("iota 10", lambda: upsilon_interval_transform(p10), by_words(p10, iota_by_products)),
        ("mixing 4, 4", lambda: mixing_ab(p4, q4), mixing_by_flag_pairs(pairs)),
        (
            "second kind 8",
            lambda: second_kind_ab_transform(p8),
            p8 + p8.star() + mixing_by_flag_pairs(coproducts),
        ),
    ]


def test_one_pass_ab_routes_match_the_summed_word_oracles_on_dense_polys():
    for name, route, expected in dense_ab_cases():
        assert route() == expected, name


def test_one_pass_ab_routes_that_replace_a_carried_dict_are_caught(monkeypatch):
    # a state reached from two words must merge what both carry into it
    mutant(monkeypatch, operators._pass_on, "if state in states", "if False")
    for name, route, expected in dense_ab_cases():
        assert route() != expected, name


def test_ab_operators_give_back_their_memory_once_their_results_are_dropped():
    # no ab-side memo outlives a call, so nothing the calls made stays behind
    rng = random.Random(1996)
    p, q, r = dense_ab(rng, 5), dense_ab(rng, 5), dense_ab(rng, 10)
    ab_interval_transform(mixing_ab(unit(AB), unit(AB)))  # any lazy set-up happens here
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert len(mixing_ab(p, q).terms) > 1000
        assert len(ab_interval_transform(r).terms) > 1000
        gc.collect()
        assert tracemalloc.get_traced_memory()[0] - start < 64 * 1024
    finally:
        tracemalloc.stop()


@cache
def cd_interval_by_word(word):
    """The image of one cd-word as a term dict, by the recursion on its last
    letter, memoized word by word: the oracle of the one-pass cd route."""
    if not word:
        return {"c": 1}
    u, last = word[:-1], word[-1]
    u_star = u[::-1]
    coproduct = _cd_coproduct_word(u).items()
    if last == "c":
        out = _accumulate({"d" + u_star: 2}, _framed(cd_interval_by_word(u), "c"))
        for (u1, u2), coeff in coproduct:
            _accumulate(out, _framed(cd_interval_by_word(u2), "d" + u1[::-1], coeff))
        return out
    out = _accumulate(
        dict(_framed(cd_interval_by_word(u), "d")),
        (("dc" + u_star, 1), ("cd" + u_star, 1), ("d" + u_star + "c", 1)),
    )
    for (u1, u2), coeff in coproduct:
        _accumulate(out, (("d" + u2[::-1] + "d" + u1[::-1], coeff),))
        for x, k in _mixing_cd_words("", u1[::-1]).items():  # the pyramid of u1*
            _accumulate(out, _framed(cd_interval_by_word(u2), "d" + x, coeff * k))
    return out


@cache
def dense_cd_interval_cases():
    """Dense cd-inputs of degrees 8 to 12, in which many words hand their
    suffixes to one inner word, each with the word recursion summed over its
    words: (degree, input, expected)."""
    rng = random.Random(1998)
    cases = []
    for n, den in ((8, 1), (9, 4), (10, 1), (11, 7), (12, 1)):
        p = dense_cd(rng, n, den)
        expected = {}
        for word, coeff in p.terms.items():
            _accumulate(expected, _framed(cd_interval_by_word(word), "", coeff))
        cases.append((n, p, cd(expected)))
    return cases


def test_one_pass_cd_interval_transform_matches_the_word_recursion_on_dense_polys():
    for n, p, expected in dense_cd_interval_cases():
        assert cd_interval_transform(p) == expected, n


def test_one_pass_cd_interval_transform_that_replaces_a_carried_dict_is_caught(monkeypatch):
    # a word reached from two heavier words must merge what both hand it
    mutant(monkeypatch, operators._pass_on, "if state in states", "if False")
    for n, p, expected in dense_cd_interval_cases():
        assert cd_interval_transform(p) != expected, n


def test_memo_values_are_not_written_by_their_callers(monkeypatch):
    # Every memo hands its values to all callers, so a caller that writes to
    # one corrupts the next reader.  Clear the memos, record the keys they
    # compute, in the order the computations finish, warm them on dense inputs,
    # snapshot every value, then clear the memos and recompute the keys in
    # that order: each recomputed value is fresh when it is compared.
    keys = {}  # (memo, args), in the order the computations finish
    for module in (ncpoly, operators):
        for name, memo in list(vars(module).items()):
            if not hasattr(memo, "cache_clear"):
                continue
            memo.cache_clear()  # so that warming computes every key it meets

            def recording(*args, memo=memo):
                value = memo(*args)
                keys.setdefault((memo, args), None)
                return value

            monkeypatch.setattr(module, name, recording)
    rng = random.Random(18)
    cd_interval_transform(dense_cd(rng, 10))
    mixing_cd(dense_cd(rng, 6), dense_cd(rng, 5))
    delannoy_mixing(7, 6)
    expand_cd(dense_cd(rng, 9))
    cd_ce_convert(dense_cd(rng, 9))
    warmed = {memo.__name__ for memo, _ in keys}
    assert "_mixing_cd_words" in warmed
    assert {"_cd_coproduct_word", "_expand_cd_word"} <= warmed
    snapshots = {(memo, args): copy.deepcopy(memo(*args)) for memo, args in keys}
    assert not any(isinstance(value, NCPoly) for value in snapshots.values())
    for memo, _ in keys:
        memo.cache_clear()
    for (memo, args), value in snapshots.items():
        assert memo(*args) == value, (memo.__name__, args)
