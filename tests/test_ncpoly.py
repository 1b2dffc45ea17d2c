import random
from fractions import Fraction

import pytest

from posetops import ncpoly
from posetops.errors import (
    AlphabetMismatch,
    NotExpressible,
    NotHomogeneous,
)
from posetops.ncpoly import AB, CD, CE, NCPoly
from posetops.operators import _ab_coproduct_word, second_kind_ab_transform
from posetops.verify import KERNEL_DIMS


def P(alphabet, terms):
    return NCPoly(alphabet, terms)


def test_words_do_not_commute():
    a = P(AB, {"a": 1})
    b = P(AB, {"b": 1})
    assert a * b == P(AB, {"ab": 1})
    assert b * a == P(AB, {"ba": 1})
    assert a * b != b * a


def test_square_of_a_plus_b():
    s = P(AB, {"a": 1, "b": 1})
    assert s * s == P(AB, {"aa": 1, "ab": 1, "ba": 1, "bb": 1})


def test_empty_word_is_unit():
    one = ncpoly.unit(AB)
    p = P(AB, {"ab": 2, "b": -1})
    assert one * p == p
    assert p * one == p


def test_alphabet_mismatch_raises():
    with pytest.raises(AlphabetMismatch):
        P(AB, {"a": 1}) + P(CD, {"c": 1})
    with pytest.raises(AlphabetMismatch):
        P(AB, {"a": 1}) * P(CE, {"e": 1})
    with pytest.raises(AlphabetMismatch):
        P(AB, {"c": 1})


def test_zero_coefficients_are_dropped():
    p = P(AB, {"ab": 1})
    q = P(AB, {"ab": -1, "ba": 0})
    assert (p + q).terms == {}
    assert P(AB, {"a": Fraction(1, 2), "b": 0}).terms == {"a": Fraction(1, 2)}


def test_reverse_star_examples():
    assert P(AB, {"ab": 1}).star() == P(AB, {"ba": 1})
    assert P(AB, {"aab": 1}).star() == P(AB, {"baa": 1})


def test_reverse_star_is_involutive_antiautomorphism():
    for w1 in ncpoly.ab_words(2):
        for w2 in ncpoly.ab_words(3):
            p = P(AB, {w1: 2})
            q = P(AB, {w2: Fraction(1, 3)})
            assert (p * q).star() == q.star() * p.star()
            assert p.star().star() == p


def substitute(p, images):
    """The algebra homomorphism sending each letter of p to its image, one
    NCPoly product per letter: the slow route that the library's word maps
    (expand_cd, cd_ce_convert) replace."""
    target = next(iter(images.values())).alphabet
    total = P(target, {})
    for word, coeff in p.terms.items():
        piece = ncpoly.unit(target)
        for letter in word:
            piece = piece * images[letter]
        total = total + piece.scaled(coeff)
    return total


PSI_IMAGES = {"c": P(AB, {"a": 1, "b": 1}), "d": P(AB, {"ab": 1, "ba": 1})}
CE_IMAGES = {
    "c": P(CE, {"c": 1}),
    "d": P(CE, {"cc": Fraction(1, 2), "ee": Fraction(-1, 2)}),
}


def test_substitute_a_minus_b():
    upsilon = P(AB, {"a": 1, "b": 2})
    images = {"a": P(AB, {"a": 1, "b": -1}), "b": P(AB, {"b": 1})}
    assert substitute(upsilon, images) == P(AB, {"a": 1, "b": 1})


def test_substitute_cd_expansion():
    p = P(CD, {"cc": 1, "d": 1})
    assert substitute(p, PSI_IMAGES) == P(AB, {"aa": 1, "ab": 2, "ba": 2, "bb": 1})


def test_substitute_e_squared():
    p = P(CE, {"ee": 1})
    images = {"c": P(AB, {"a": 1, "b": 1}), "e": P(AB, {"a": 1, "b": -1})}
    assert substitute(p, images) == P(
        AB, {"aa": 1, "ab": -1, "ba": -1, "bb": 1}
    )


def test_expand_cd_word_matches_substitution_on_every_word():
    for n in range(11):
        for w in ncpoly.cd_words(n):
            assert ncpoly.expand_cd_word(w) == substitute(P(CD, {w: 1}), PSI_IMAGES), w


def _dense_cd(rng, n, den):
    return P(CD, {w: Fraction(rng.randint(-9, 9) or 1, den) for w in ncpoly.cd_words(n)})


def test_cd_ce_convert_matches_substitution_on_dense_polys():
    rng = random.Random(2008)
    for n, den in ((6, 1), (8, 3), (9, 1), (10, 2), (10, 1)):
        p = _dense_cd(rng, n, den)
        assert ncpoly.cd_ce_convert(p) == substitute(p, CE_IMAGES), n
        assert ncpoly.expand_cd(p) == substitute(p, PSI_IMAGES), n
    for w in ncpoly.cd_words(7):
        assert ncpoly.cd_ce_convert(P(CD, {w: 1})) == substitute(P(CD, {w: 1}), CE_IMAGES)
    # a d-free word keeps an int coefficient; a d brings in the halves
    assert type(ncpoly.cd_ce_convert(P(CD, {"cc": 3})).coefficient("cc")) is int
    assert ncpoly.cd_ce_convert(P(CD, {"dcd": 8})).terms == {
        "ccccc": 2, "cccee": -2, "eecee": 2, "eeccc": -2
    }


def test_rewrite_c_is_a_plus_b():
    assert ncpoly.rewrite_ab_to_cd(P(AB, {"a": 1, "b": 1})) == P(CD, {"c": 1})


def test_rewrite_rejects_non_eulerian_index():
    # the ab-index of the rank-2 chain
    with pytest.raises(NotExpressible):
        ncpoly.rewrite_ab_to_cd(P(AB, {"a": 1}))


def test_rewrite_requires_homogeneous():
    with pytest.raises(NotHomogeneous):
        ncpoly.rewrite_ab_to_cd(P(AB, {"a": 1, "ab": 1}))


def test_rewrite_round_trips():
    for n in range(0, 8):
        for w in ncpoly.cd_words(n):
            p = ncpoly.expand_cd_word(w)
            assert ncpoly.rewrite_ab_to_cd(p) == P(CD, {w: 1})


def test_cd_word_count_follows_fibonacci():
    sizes = [len(ncpoly.cd_words(n)) for n in range(8)]
    assert sizes == [1, 1, 2, 3, 5, 8, 13, 21]


def test_memoized_results_are_handed_out_as_copies():
    ncpoly.cd_words(3).append("zz")
    assert ncpoly.cd_words(3) == ["ccc", "cd", "dc"]
    ncpoly.expand_cd_word("d").terms.clear()
    assert ncpoly.expand_cd_word("d") == P(AB, {"ab": 1, "ba": 1})


def test_d_in_ce_form():
    assert ncpoly.cd_ce_convert(P(CD, {"d": 1})) == P(
        CE, {"cc": Fraction(1, 2), "ee": Fraction(-1, 2)}
    )


def test_e_fourth_in_cd_form():
    # e^4 = (c^2 - 2d)^2
    cd_form = P(CD, {"cccc": 1, "ccd": -2, "dcc": -2, "dd": 4})
    assert ncpoly.cd_ce_convert(cd_form) == P(CE, {"eeee": 1})


def test_square_lattice_index_in_ce_form():
    assert ncpoly.cd_ce_convert(P(CD, {"cc": 1, "d": 2})) == P(
        CE, {"cc": 2, "ee": -1}
    )


def _ce_to_cd(p):
    """The inverse rewrite, e^2 -> c^2 - 2d, for ce-polynomials whose
    maximal runs of e's all have even length."""
    ee = P(CD, {"cc": 1, "d": -2})
    out = P(CD, {})
    for word, coeff in p.terms.items():
        piece = ncpoly.unit(CD)
        for block in word.replace("ee", "E"):
            assert block != "e", word
            piece = piece * (ee if block == "E" else P(CD, {"c": 1}))
        out = out + piece.scaled(coeff)
    return out


def test_ce_round_trip():
    for n in range(0, 6):
        for w in ncpoly.cd_words(n):
            p = P(CD, {w: Fraction(3, 7)})
            assert _ce_to_cd(ncpoly.cd_ce_convert(p)) == p


def test_coproduct_on_ab_word():
    assert _ab_coproduct_word("ab") == {("", "b"): 1, ("a", ""): 1}


def test_coproduct_of_c():
    assert ncpoly._cd_coproduct_word("c") == {("", ""): 2}


def test_coproduct_of_c_squared():
    assert ncpoly._cd_coproduct_word("cc") == {("", "c"): 2, ("c", ""): 2}


def test_coproduct_of_d():
    assert ncpoly._cd_coproduct_word("d") == {("", "c"): 1, ("c", ""): 1}


def _tensor_apply_left(t):
    out = {}
    for (w1, w2), c in t.items():
        for i in range(len(w1)):
            key = (w1[:i], w1[i + 1 :], w2)
            out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v}


def _tensor_apply_right(t):
    out = {}
    for (w1, w2), c in t.items():
        for i in range(len(w2)):
            key = (w1, w2[:i], w2[i + 1 :])
            out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v}


def test_coproduct_is_coassociative_up_to_degree_five():
    for n in range(1, 6):
        for w in ncpoly.ab_words(n):
            t = _ab_coproduct_word(w)
            assert _tensor_apply_left(t) == _tensor_apply_right(t)


def test_asym_basis_dimensions():
    for n in range(1, 7):
        expected = 2 ** (n - 1) - 2 ** ((n - 1) // 2)
        assert len(ncpoly.asym_basis(n)) == expected
    assert len(ncpoly.asym_basis(3)) == 2


def test_serialization_round_trip():
    p = P(AB, {"": 1, "ab": Fraction(-3, 4), "b": 2})
    data = ncpoly.to_dict(p)
    assert data["terms"][0]["word"] == ""
    assert ncpoly.from_dict(data) == p


def test_serialization_orders_by_length_then_word():
    p = P(CD, {"d": 1, "cc": 1, "c": 5})
    words = [t["word"] for t in ncpoly.to_dict(p)["terms"]]
    assert words == ["c", "d", "cc"]


def _nonzero(terms):
    return {key: c for key, c in terms.items() if c}


def _expanded_cd_coproduct(p):
    """The cd recursion on every word of p, both sides expanded to ab."""
    out = {}
    for w, c in p.terms.items():
        for (w1, w2), k in ncpoly._cd_coproduct_word(w).items():
            for x1, c1 in ncpoly.expand_cd_word(w1).terms.items():
                for x2, c2 in ncpoly.expand_cd_word(w2).terms.items():
                    out[x1, x2] = out.get((x1, x2), 0) + c * k * c1 * c2
    return _nonzero(out)


def _ab_coproduct(p):
    """Delete one letter of every word of p and split there."""
    out = {}
    for w, c in p.terms.items():
        for i in range(len(w)):
            out[w[:i], w[i + 1 :]] = out.get((w[:i], w[i + 1 :]), 0) + c
    return _nonzero(out)


def test_cd_coproduct_expands_to_the_ab_coproduct():
    # the cd recursion and the ab coproduct of the expansion are two routes
    for n in range(0, 8):
        for w in ncpoly.cd_words(n):
            p = P(CD, {w: 1})
            direct = _ab_coproduct(ncpoly.expand_cd(p))
            assert _expanded_cd_coproduct(p) == direct, w
    p = P(CD, {"cdc": Fraction(2, 3), "ddc": -5, "ccccc": 1})
    assert _expanded_cd_coproduct(p) == _ab_coproduct(ncpoly.expand_cd(p))


def test_peeled_rewrite_against_elimination():
    # independent oracle: p is a cd-polynomial exactly when appending it to
    # the expanded cd-words does not raise the rank
    rng = random.Random(7)
    for n in range(0, 8):
        basis = [ncpoly.expand_cd_word(w) for w in ncpoly.cd_words(n)]
        columns = [q.terms for q in basis]
        rank = ncpoly.matrix_rank(columns)
        words = ncpoly.ab_words(n)
        for _ in range(3):
            combo = P(AB, {})
            for q in basis:
                r = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                combo = combo + q.scaled(r)
            bump = P(AB, {rng.choice(words): rng.choice([1, -1, Fraction(1, 2)])})
            for p in (combo, combo + bump):
                expressible = ncpoly.matrix_rank(columns + [p.terms]) == rank
                try:
                    q = ncpoly.rewrite_ab_to_cd(p)
                except NotExpressible:
                    assert not expressible, p
                    continue
                assert expressible, p
                assert ncpoly.expand_cd(q) == p


def test_peeled_rewrite_refuses_low_degrees():
    assert ncpoly.rewrite_ab_to_cd(P(AB, {"": Fraction(3, 2)})) == P(
        CD, {"": Fraction(3, 2)}
    )
    assert ncpoly.rewrite_ab_to_cd(P(AB, {})) == P(CD, {})
    for p in (P(AB, {"a": 1}), P(AB, {"b": 1}), P(AB, {"a": 1, "b": -1})):
        with pytest.raises(NotExpressible):
            ncpoly.rewrite_ab_to_cd(p)
    with pytest.raises(NotExpressible):
        ncpoly.rewrite_ab_to_cd(P(AB, {"ab": 1}))


def test_coefficients_are_int_while_integral():
    p = P(AB, {"a": Fraction(4, 2), "b": Fraction(1, 2), "ab": 3})
    assert type(p.coefficient("a")) is int and p.coefficient("a") == 2
    assert p.coefficient("b") == Fraction(1, 2)
    assert type(p.coefficient("ab")) is int
    q = P(AB, {"a": 2, "b": 3}) * P(AB, {"a": 1, "b": -1})
    assert all(type(c) is int for c in q.terms.values())
    total = P(CE, {"cc": Fraction(1, 2), "ee": Fraction(1, 2)}).coefficient_total()
    assert type(total) is int and total == 1


# -- exact rank: fraction-free elimination against Gauss-Jordan -------------------


def gauss_jordan_rank(columns):
    """The oracle: Gauss-Jordan over Fraction, each pivot row normalised and
    cleared above and below."""
    keys = sorted(set().union(*columns)) if columns else []
    rows = [[Fraction(col.get(k, 0)) for col in columns] for k in keys]
    rank = 0
    for c in range(len(columns)):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][c]
        rows[rank] = [v / pv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _random_entry(rng):
    if rng.random() < 0.5:
        return rng.randint(-6, 6)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 12))


def _random_family(rng):
    """A sparse column family of random shape: wide or tall, with empty
    columns, explicit zero entries, repeated columns, scaled copies and
    combinations of a few base columns (so that pivots get skipped)."""
    words = ncpoly.ab_words(rng.randint(0, 3))
    keys = rng.sample(words, rng.randint(1, len(words)))
    columns = []
    for _ in range(rng.randint(0, 9)):
        kind = rng.random() if columns else 0.4 * rng.random()
        if kind < 0.3:
            columns.append({k: _random_entry(rng) for k in keys if rng.random() < 0.4})
        elif kind < 0.4:
            columns.append({} if rng.random() < 0.5 else {rng.choice(keys): 0})
        elif kind < 0.5:
            columns.append(dict(rng.choice(columns)))
        elif kind < 0.6:
            r = _random_entry(rng) or 1
            columns.append({k: r * v for k, v in rng.choice(columns).items()})
        else:
            total = {}
            for col in rng.sample(columns, rng.randint(1, min(3, len(columns)))):
                r = _random_entry(rng)
                for k, v in col.items():
                    total[k] = total.get(k, 0) + r * v
            columns.append(total)
    rng.shuffle(columns)
    return columns


def test_matrix_rank_matches_gauss_jordan_on_random_families():
    rng = random.Random(16)
    ranks = set()
    for _ in range(3000):
        columns = _random_family(rng)
        rank = ncpoly.matrix_rank(columns)
        assert rank == gauss_jordan_rank(columns), columns
        ranks.add((rank, len(columns)))
    # the families reach full and deficient rank, wide and tall
    assert any(r == n > 0 for r, n in ranks) and any(0 < r < n for r, n in ranks)
    assert (0, 0) in ranks and max(n for _, n in ranks) == 9


def test_matrix_rank_skips_a_pivot_column():
    # after the first pivot, "b" is zero in every row left, so the
    # elimination passes over it to "c"
    columns = [{"a": 1, "b": 1}, {"a": 2, "b": 2}, {"c": Fraction(1, 3)}]
    assert ncpoly.matrix_rank(columns) == gauss_jordan_rank(columns) == 2
    assert ncpoly.matrix_rank([]) == ncpoly.matrix_rank([{}, {"a": 0}]) == 0


def test_second_kind_matrices_give_the_frozen_kernel_dimensions():
    for n, kernel in enumerate(KERNEL_DIMS, 1):
        words = ncpoly.ab_words(n)
        columns = [second_kind_ab_transform(P(AB, {w: 1})).terms for w in words]
        rank = ncpoly.matrix_rank(columns)
        assert len(words) - rank == kernel, n
        assert gauss_jordan_rank(columns) == rank, n
