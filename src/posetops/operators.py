"""Operators on flag polynomials: the interval transforms, the mixing
operator, the pyramid and lift maps, and the Delannoy path model.

Most operators are defined on monomial words by a recursion and extended
linearly.  Word-level results are memoized with functools.cache on private
helpers, because the recursions revisit the same words constantly; the
public functions check their input and stay plain functions.  Every memo
holds a term dict (word -> coefficient), never an NCPoly, and hands that
same dict to every caller, so no caller writes to one.  A product with a
fixed word adds a prefix or suffix to each key (`_framed`), and every sum
goes through `ncpoly._accumulate`.

The ab-side operators that are simpler on flag counts change basis once
into flags (a -> a + b) and once back (a -> a - b).  So `op Iab` is iota
(`op iota`) between the two basis changes; the tests keep the per-word ab
recursion as its oracle.  All three interval transforms (`op iota`, `op Iab`
and `op Icd`) and both second-kind transforms (`op IIab` and the
library's `second_kind_cd_transform`) refuse degrees over
INTERVAL_MAX_DEGREE; `op M` and `op pyr` refuse result degrees over
MIXING_MAX_DEGREE.
"""

from fractions import Fraction
from functools import cache
from math import comb

from .errors import DegreeMismatch, InvalidSize, PosetOpsError, TooLarge
from .ncpoly import (
    AB,
    CD,
    NCPoly,
    _accumulate,
    _apply_wordwise,
    _cd_coproduct_word,
    _change_basis,
    ab_words,
    asym_basis,
    matrix_rank,
    monomial,
    unit,
)

_A_MINUS_B = NCPoly(AB, {"a": 1, "b": -1})


def _ab_coproduct_word(word: str):
    """Delete one letter in every position: word -> {(left, right): count}."""
    return _accumulate({}, (((word[:i], word[i + 1 :]), 1) for i in range(len(word))))


def _framed(terms: dict, suffix: str, scale=1, prefix: str = ""):
    """prefix·terms·suffix times scale, as (word, coefficient) pairs: a
    product with fixed words adds them to each key."""
    return ((prefix + w + suffix, scale * k) for w, k in terms.items())


# -- the vertex-wise interval transform on flag words ---------------------------

@cache
def _iota_word(word: str) -> dict:
    """Raise a flag word of degree m to one of degree m+1 by the recursion
    that peels the outermost pair of b letters."""
    if "b" not in word:
        return {"a" + word: 1, "b" + word: 2}  # (a + 2b)·word
    first, last = word.index("b"), word.rindex("b")
    i, j = first, len(word) - 1 - last
    if first == last:  # (a + 2b)·(a^i b a^j + a^j b a^i) + b a^(i+j+1)
        both = _accumulate({word: 1}, ((word[::-1], 1),))
        out = _accumulate({"b" + "a" * (i + j + 1): 1}, _framed(both, "", prefix="a"))
        return _accumulate(out, _framed(both, "", 2, prefix="b"))
    out: dict = {}
    middle = word[first + 1 : last]
    for inner, k in ((word[:last], j), (word[first + 1 :], i), (middle, i + j + 1)):
        _accumulate(out, _framed(_iota_word(inner), "b" + "a" * k))
    return out


# A dense ab-input of degree 12 takes about 3 s and 200 MB, and each degree
# more 3x that; a dense cd-input of degree 12 takes 0.08-0.14 s and 25 MB, and
# one of degree 14 0.6 s and 81 MB (CPython 3.11, one x86-64 core).  The
# second-kind transform of a dense ab-input takes 3-4.7 s and 297 MB at
# degree 12, and 12 s and 0.9 GB at 13; of a dense cd-input, 0.3 s at 12.
INTERVAL_MAX_DEGREE = 12


def _check_interval_input(p: NCPoly, alphabet: str) -> None:
    if p.alphabet != alphabet:
        raise PosetOpsError(f"the transform acts on {alphabet}-polynomials")
    if p.degree() > INTERVAL_MAX_DEGREE:
        raise TooLarge(f"degree {p.degree()} exceeds the cap of {INTERVAL_MAX_DEGREE}")


def upsilon_interval_transform(p: NCPoly) -> NCPoly:
    """Flag polynomial of the bottomed interval poset from that of the
    original poset, term by term."""
    _check_interval_input(p, AB)
    return _apply_wordwise(p, _iota_word, AB)


# -- mixing operator -------------------------------------------------------------

@cache
def _quasi_shuffle(u: str, v: str) -> dict:
    """Quasi-shuffle of two flag words, each read with a closing b so that
    every block a^(k-1) b is one part: interleave the blocks, optionally
    merging the first block of each side into one.  The memo hands its
    dicts to every caller, and none of them writes to one."""
    if not u or not v:
        return {u + v: 1}
    i, j = u.index("b") + 1, v.index("b") + 1
    out: dict[str, int] = {}
    for head, rest in (
        (u[:i], _quasi_shuffle(u[i:], v)),
        (v[:j], _quasi_shuffle(u, v[j:])),
        (u[: i - 1] + "a" + v[:j], _quasi_shuffle(u[i:], v[j:])),
    ):
        _accumulate(out, ((head + tail, count) for tail, count in rest.items()))
    return out


def _mix_ab_pairs(pairs: dict) -> NCPoly:
    """Mix weighted pairs of ab-words, keyed "u|v": move every pair to the
    flag basis (a -> a+b) at once, quasi-shuffle each pair of flag words into
    one flag-basis total, and move that total back (a -> a-b) once."""
    flags: dict[str, object] = {}
    for key, coeff in _change_basis(pairs, 1).items():
        u, v = key.split("|")
        shuffled = _quasi_shuffle(u + "b", v + "b").items()
        _accumulate(flags, ((word[:-1], coeff * count) for word, count in shuffled))
    return NCPoly._wrap(AB, _change_basis(flags, -1))


# Dense ab-inputs of result degree 13 take 1.3-2.3 s and 196 MB (degrees 6
# and 6), and at 14 take 5-7 s and 576 MB (7 and 6).  Dense cd-inputs take
# 0.05-0.1 s and 23 MB at degrees 6 and 6, 0.4-0.5 s and 69 MB at 7 and 7, and
# 3.3 s and 371 MB at 8 and 8 (CPython 3.11, one x86-64 core).  A constant
# argument, as in the pyramid, is capped alike: uncapped, the pyramid of a^20
# ran past 40 s and 3.7 GB.
MIXING_MAX_DEGREE = 13


def _check_mixing_degrees(p: NCPoly, q: NCPoly) -> None:
    """Refuse arguments whose result degree (deg p + deg q + 1) is over
    MIXING_MAX_DEGREE.  A zero argument (degree -1) makes the result zero."""
    i, j = p.degree(), q.degree()
    if min(i, j) >= 0 and i + j + 1 > MIXING_MAX_DEGREE:
        raise TooLarge(
            f"result degree {i + j + 1} exceeds the cap of {MIXING_MAX_DEGREE}"
        )


def mixing_ab(p: NCPoly, q: NCPoly) -> NCPoly:
    """Mix two ab-polynomials the way direct products mix flag counts.

    Every pair of their words, keyed "u|v", moves to the flag-count basis
    (a -> a+b) in one basis change and quasi-shuffles into one flag-basis
    total, and that total moves back (a -> a-b) once.
    """
    if p.alphabet != AB or q.alphabet != AB:
        raise PosetOpsError("mixing acts on ab-polynomials")
    _check_mixing_degrees(p, q)
    return _mix_ab_pairs(
        {u + "|" + v: cu * cv for u, cu in p.terms.items() for v, cv in q.terms.items()}
    )


@cache
def _mixing_cd_words(u: str, v: str) -> dict:
    if not v:
        return _mixing_cd_words(v, u) if u else {"c": 1}
    head, last = v[:-1], v[-1]
    coproduct = _cd_coproduct_word(u).items()
    if last == "c":
        out = _accumulate({head + "d" + u: 1}, _framed(_mixing_cd_words(u, head), "c"))
        for (u1, u2), coeff in coproduct:
            _accumulate(out, _framed(_mixing_cd_words(u1, head), "d" + u2, coeff))
        return out
    out = _accumulate(
        dict(_framed(_mixing_cd_words(u, head), "d")),
        _framed(_mixing_cd_words("", u), "", prefix=head + "d"),
    )
    for (u1, u2), coeff in coproduct:
        for x, k in _mixing_cd_words("", u2).items():
            _accumulate(out, _framed(_mixing_cd_words(u1, head), "d" + x, coeff * k))
    return out


def mixing_cd(p: NCPoly, q: NCPoly) -> NCPoly:
    if p.alphabet != CD or q.alphabet != CD:
        raise PosetOpsError("this mixing form acts on cd-polynomials")
    _check_mixing_degrees(p, q)
    out: dict = {}
    for u, cu in p.terms.items():
        for v, cv in q.terms.items():
            _accumulate(out, _framed(_mixing_cd_words(u, v), "", cu * cv))
    return NCPoly._wrap(CD, out)


def pyramid(p: NCPoly) -> NCPoly:
    """Mix with the one-point poset: the flag polynomial of the pyramid."""
    if p.alphabet == CD:
        return mixing_cd(unit(CD), p)
    if p.alphabet == AB:
        return mixing_ab(unit(AB), p)
    raise PosetOpsError("pyramid acts on ab- or cd-polynomials")


def lift(p: NCPoly) -> NCPoly:
    if p.alphabet != AB:
        raise PosetOpsError("lift acts on ab-polynomials")
    return _A_MINUS_B * p + p * _A_MINUS_B


# -- interval transforms on the index level --------------------------------------

def ab_interval_transform(p: NCPoly) -> NCPoly:
    """Index of the bottomed interval poset from the index of the poset:
    iota between the basis changes a -> a + b and a -> a - b."""
    _check_interval_input(p, AB)
    flags = _apply_wordwise(NCPoly._wrap(AB, _change_basis(p.terms, 1)), _iota_word, AB)
    return NCPoly._wrap(AB, _change_basis(flags.terms, -1))


@cache
def _cd_interval_word(word: str) -> dict:
    if not word:
        return {"c": 1}
    u, last = word[:-1], word[-1]
    u_star = u[::-1]
    coproduct = _cd_coproduct_word(u).items()
    if last == "c":
        out = _accumulate({"d" + u_star: 2}, _framed(_cd_interval_word(u), "c"))
        for (u1, u2), coeff in coproduct:
            _accumulate(out, _framed(_cd_interval_word(u2), "d" + u1[::-1], coeff))
        return out
    out = _accumulate(
        dict(_framed(_cd_interval_word(u), "d")),
        (("dc" + u_star, 1), ("cd" + u_star, 1), ("d" + u_star + "c", 1)),
    )
    for (u1, u2), coeff in coproduct:
        _accumulate(out, (("d" + u2[::-1] + "d" + u1[::-1], coeff),))
        for x, k in _mixing_cd_words("", u1[::-1]).items():  # the pyramid of u1*
            _accumulate(out, _framed(_cd_interval_word(u2), "d" + x, coeff * k))
    return out


def cd_interval_transform(p: NCPoly) -> NCPoly:
    _check_interval_input(p, CD)
    return _apply_wordwise(p, _cd_interval_word, CD)


# -- second-kind transforms ------------------------------------------------------


def second_kind_ab_transform(p: NCPoly) -> NCPoly:
    """Total index over the members of the one-per-element interval family.

    The image of a word w is w + w* plus the mixing of u1* and u2 over the
    coproduct terms (u1, u2) of w.  All those mixings, over all words of p,
    share one flag-basis total, which moves back to ab-words once.
    """
    _check_interval_input(p, AB)
    pairs = _accumulate(  # "u1*|u2" -> coefficient
        {},
        (
            (u1[::-1] + "|" + u2, coeff * count)
            for word, coeff in p.terms.items()
            for (u1, u2), count in _ab_coproduct_word(word).items()
        ),
    )
    return p + p.star() + _mix_ab_pairs(pairs)


def _second_kind_word_cd(word: str) -> dict:
    out = _accumulate({word: 1}, ((word[::-1], 1),))
    for (u1, u2), coeff in _cd_coproduct_word(word).items():
        _accumulate(out, _framed(_mixing_cd_words(u1[::-1], u2), "", coeff))
    return out


def second_kind_cd_transform(p: NCPoly) -> NCPoly:
    _check_interval_input(p, CD)
    return _apply_wordwise(p, _second_kind_word_cd, CD)


# -- Delannoy path model ---------------------------------------------------------

# The lattice-point recursion makes a few passes over term dicts at each of
# (i+2)(j+2) points, and the dicts grow like Fibonacci(i + j): i + j = 20
# takes about 0.1 s and 25 MB (CPython 3.11, one x86-64 core), every further
# step about 1.6 times as long.
DELANNOY_MAX_STEPS = 20


def delannoy_mixing(i: int, j: int) -> NCPoly:
    """Mixing of two chain powers read off weighted Delannoy paths.

    Paths start at (-1, 0) or (0, -1) and end at (i, j); east and north
    steps weigh c, diagonal steps weigh 2d - c², and weights multiply in
    step order.  The path total W at each lattice point follows from its
    three predecessors,
        W(x, y) = W(x-1, y) c + W(x, y-1) c + W(x-1, y-1) (2d - c²),
    and the grand total W(i, j) is then halved.
    """
    if i < 0 or j < 0:
        raise InvalidSize("path endpoints need i, j >= 0")
    if i + j > DELANNOY_MAX_STEPS:
        raise TooLarge(f"path endpoints need i + j <= {DELANNOY_MAX_STEPS}")
    west = [{}] * (j + 2)  # W(x - 1, y) at index y + 1
    for x in range(-1, i + 1):
        here = []  # W(x, y) at index y + 1
        for y in range(-1, j + 1):
            if y < 0:
                total = dict(_framed(west[y + 1], "c"))
            else:
                east = _accumulate(dict(west[y + 1]), here[y].items())
                total = dict(_framed(east, "c"))
                _accumulate(total, _framed(west[y], "d", 2))
                _accumulate(total, _framed(west[y], "cc", -1))
            if (x, y) in ((-1, 0), (0, -1)):
                _accumulate(total, (("", 1),))
            here.append(total)
        west = here
    return NCPoly._wrap(CD, west[j + 1]).scaled(Fraction(1, 2))


def delannoy_ce_coefficient(i: int, j: int, r: int):
    """Coefficient of any ce-word with r pairs of e's in the ce form of the
    mixed chain powers; zero when no such word fits the degree."""
    if i < 0 or j < 0 or r < 0:
        raise InvalidSize("need i, j, r >= 0")
    if 2 * r > i + j + 1 or i + 1 - r < 0:
        return Fraction(0)
    sign = -1 if r % 2 else 1
    return Fraction(sign, 2) * comb(i + j + 2 - 2 * r, i + 1 - r)


# -- closed-form coefficients for chain powers ------------------------------------


def _check_power_word(n: int, ks, weight: int) -> int:
    ks = tuple(ks)
    if not ks or any(k < 0 for k in ks):
        raise DegreeMismatch("parts must be a nonempty list of nonnegative ints")
    r = len(ks) - 1
    if sum(ks) + 2 * r != weight:
        raise DegreeMismatch(
            f"parts {ks} with {r} d's have degree {sum(ks) + 2 * r}, need {weight}"
        )
    return r


def ladder_interval_coefficient(n: int, ks) -> int:
    """Coefficient of c^{k0} d c^{k1} ... d c^{kr} in the interval transform
    of c^n: the first c-run is free, every later one contributes k+1."""
    r = _check_power_word(n, ks, n + 1)
    value = 2**r
    for k in tuple(ks)[1:]:
        value *= k + 1
    return value


def ladder_second_kind_coefficient(n: int, ks) -> int:
    """Same word shape inside the second-kind transform of c^n: every
    c-run contributes, including the first."""
    r = _check_power_word(n, ks, n)
    value = 2 ** (r + 1)
    for k in ks:
        value *= k + 1
    return value


def ladder_second_kind_ce_coefficient(n: int, r: int) -> int:
    """ce-form coefficient of any word with r adjacent ee-pairs in the
    second-kind transform of c^n."""
    if r < 0 or 2 * r > n:
        raise DegreeMismatch(f"need 0 <= 2r <= {n}")
    sign = -1 if r % 2 else 1
    return sign * 2 ** (n + 1 - 2 * r)


def ce_word_count(n: int, r: int) -> int:
    """Number of degree-n ce-words made of c's and r adjacent ee-pairs."""
    return comb(n - r, r)


# -- eigenvector experiments -------------------------------------------------------


def eigen_experiments(max_n: int) -> list:
    """Exact linear algebra around the second-kind transform, degree by
    degree: kernel dimension, whether the reversal-antisymmetric space
    dies, and how much of the symmetric space the pyramid and lift
    compositions reach.  Everything here is measured, not assumed; in
    particular a composition only counts as an eigenvector when the
    transform really scales it by 2^(pyramids + 1), and for degree 3 and
    up some compositions fail that check."""
    if max_n < 1:
        raise InvalidSize("need max_n >= 1")
    if max_n > 7:
        raise TooLarge("degree capped at 7 to keep exact kernels tractable")
    results = []
    layer = [(unit(AB), 0)]  # the pyramid/lift compositions, with pyramid counts
    for n in range(1, max_n + 1):
        words = ab_words(n)
        columns = [second_kind_ab_transform(monomial(AB, w)).terms for w in words]
        kernel_dim = len(words) - matrix_rank(columns)
        asym = asym_basis(n)
        asym_dim = len(asym)
        kernel_contains_asym = all(
            second_kind_ab_transform(v).is_zero() for v in asym
        )
        sym_dim = len(words) - asym_dim

        layer = [(lift(v), k) for v, k in layer] + [(pyramid(v), k + 1) for v, k in layer]
        compositions = [v for v, _ in layer]
        eigen_compositions = [
            v for v, k in layer if second_kind_ab_transform(v) == v.scaled(2 ** (k + 1))
        ]
        composition_rank = matrix_rank([v.terms for v in compositions])
        eigen_rank = matrix_rank([v.terms for v in eigen_compositions])
        all_symmetric = all(v.star() == v for v in compositions)

        results.append(
            {
                "n": n,
                "kernel_dim": kernel_dim,
                "asym_dim": asym_dim,
                "kernel_contains_asym": kernel_contains_asym,
                "kernel_equals_asym": kernel_contains_asym
                and kernel_dim == asym_dim,
                "sym_dim": sym_dim,
                "composition_count": len(compositions),
                "eigen_composition_count": len(eigen_compositions),
                "composition_rank": composition_rank,
                "eigen_composition_rank": eigen_rank,
                "compositions_symmetric": all_symmetric,
                "spans_sym": composition_rank == sym_dim,
                "eigen_spans_sym": eigen_rank == sym_dim,
            }
        )
    return results
