"""Exact noncommutative polynomials over the alphabets {a,b}, {c,d}, {c,e}
and {x}.  Over the one-letter alphabet {x} a polynomial is an ordinary
univariate one: the word "x"·n stands for x^n.

Words are plain strings.  A coefficient is an int while it is integral and
a fractions.Fraction otherwise: the constructors bring outside input to
that form (a Fraction with denominator 1 becomes an int), and arithmetic
keeps the types it is given.  So flag counts and ab/cd indices stay in int
arithmetic, and fractions enter only through the ½ of the ce basis and the
(x − 1)/2 of face polynomials.  A Fraction that turns integral under
arithmetic stays a Fraction; it compares and hashes equal to the int and
serializes the same way.  No floating point enters any computation.

In the cd alphabet the letter d carries degree 2 (so the expansions
c -> a+b, d -> ab+ba preserve degree); every other letter carries degree 1.
The empty word is the multiplicative unit.

The word-level maps work on term dicts (word -> coefficient), not on
NCPoly temporaries: a product with a fixed word adds a prefix or suffix to
each key, and every sum goes through `_accumulate`.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import cache
from itertools import product
from math import lcm

from .errors import AlphabetMismatch, NotExpressible, NotHomogeneous, TooLarge

AB = "ab"
CD = "cd"
CE = "ce"
X = "x"

# Each alphabet's name spells its letters.
_LETTERS = {name: frozenset(name) for name in (AB, CD, CE, X)}


def _coefficient(c):
    """Outside input as a coefficient: int while integral, Fraction otherwise."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _accumulate(acc: dict, items) -> dict:
    """Add (key, coefficient) pairs into acc, dropping keys whose sum is 0."""
    for key, c in items:
        c += acc.get(key, 0)
        if c:
            acc[key] = c
        else:
            acc.pop(key, None)
    return acc


def word_degree(alphabet: str, word: str) -> int:
    """Degree of a word; d counts twice, every other letter once."""
    if alphabet == CD:
        return len(word) + word.count("d")
    return len(word)


class NCPoly:
    """A finite rational linear combination of words over one alphabet."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: str, terms=()):
        if alphabet not in _LETTERS:
            raise ValueError(f"unknown alphabet {alphabet!r}")
        letters = _LETTERS[alphabet]
        items = []
        for word, coeff in terms.items() if isinstance(terms, dict) else terms:
            if not letters.issuperset(word):
                raise AlphabetMismatch(
                    f"word {word!r} is not over the {alphabet!r} alphabet"
                )
            items.append((word, _coefficient(coeff)))
        self.alphabet = alphabet
        self.terms = _accumulate({}, items)

    @classmethod
    def _wrap(cls, alphabet: str, terms: dict):
        """An instance around terms that are already exact, nonzero and over
        the alphabet, so nothing is checked or copied."""
        out = cls.__new__(cls)
        out.alphabet = alphabet
        out.terms = terms
        return out

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.alphabet == other.alphabet
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.alphabet, frozenset(self.terms.items())))

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, word: str):
        return self.terms.get(word, 0)

    def homogeneous_degree(self):
        """Common degree of all words, None for the zero polynomial.

        Raises NotHomogeneous when words of different degrees are mixed.
        """
        degs = {word_degree(self.alphabet, w) for w in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise NotHomogeneous(f"degrees {sorted(degs)} are mixed")
        return degs.pop()

    def degree(self) -> int:
        """Largest word degree present; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(word_degree(self.alphabet, w) for w in self.terms)

    def coefficient_total(self):
        return _coefficient(sum(self.terms.values()))

    def sorted_items(self):
        """Terms by letter count, then lexicographically."""
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    # -- arithmetic --------------------------------------------------------

    def _require_same(self, other: "NCPoly") -> None:
        if self.alphabet != other.alphabet:
            raise AlphabetMismatch(
                f"cannot combine {self.alphabet!r} with {other.alphabet!r}"
            )

    def __add__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        self._require_same(other)
        return NCPoly._wrap(
            self.alphabet, _accumulate(dict(self.terms), other.terms.items())
        )

    def __neg__(self):
        return NCPoly._wrap(self.alphabet, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, NCPoly):
            return NotImplemented
        self._require_same(other)
        right = other.terms.items()
        products = (
            (w1 + w2, c1 * c2) for w1, c1 in self.terms.items() for w2, c2 in right
        )
        return NCPoly._wrap(self.alphabet, _accumulate({}, products))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, r) -> "NCPoly":
        r = _coefficient(r)
        terms = {w: c * r for w, c in self.terms.items()} if r else {}
        return NCPoly._wrap(self.alphabet, terms)

    def star(self) -> "NCPoly":
        """Word-wise reversal, extended linearly (an anti-automorphism)."""
        return NCPoly._wrap(self.alphabet, {w[::-1]: c for w, c in self.terms.items()})

    # -- display -------------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return f"NCPoly({self.alphabet}: 0)"
        bits = []
        for w, c in self.sorted_items():
            name = w if w else "1"
            bits.append(f"{c}*{name}" if c != 1 else name)
        return f"NCPoly({self.alphabet}: " + " + ".join(bits) + ")"


def unit(alphabet: str) -> NCPoly:
    return NCPoly(alphabet, {"": 1})


def monomial(alphabet: str, word: str) -> NCPoly:
    return NCPoly(alphabet, {word: 1})


# -- word-wise maps -----------------------------------------------------------


def _apply_wordwise(p: NCPoly, image, alphabet: str) -> NCPoly:
    """The linear map sending each word w of p to the term dict image(w)
    over `alphabet`, summed into one accumulator."""
    return NCPoly._wrap(
        alphabet,
        _accumulate(
            {}, ((x, c * k) for w, c in p.terms.items() for x, k in image(w).items())
        ),
    )


def _change_basis(terms: dict, sign: int) -> dict:
    """Substitute a -> a + sign*b in every word, one letter position at a
    time, so the work is n passes over at most 2^n words and nothing is
    memoized.  Keys may join two words with "|"; both are substituted."""
    terms = dict(terms)
    for i in range(max(map(len, terms), default=0)):
        _accumulate(
            terms,
            [
                (word[:i] + "b" + word[i + 1 :], sign * coeff)
                for word, coeff in terms.items()
                if word[i : i + 1] == "a"
            ],
        )
    return terms


# -- word enumeration --------------------------------------------------------


def ab_words(n: int) -> list[str]:
    """All ab-words of degree n in lexicographic order."""
    words = [""]
    for _ in range(n):
        words = [w + x for w in words for x in "ab"]
    return sorted(words)


def cd_words(n: int) -> list[str]:
    """All cd-words of degree n (c has degree 1, d degree 2), sorted."""
    return list(_cd_words(n))


@cache
def _cd_words(n: int) -> tuple[str, ...]:
    if n < 0:
        return ()
    if n == 0:
        return ("",)
    return tuple(
        sorted(
            [w + "c" for w in _cd_words(n - 1)] + [w + "d" for w in _cd_words(n - 2)]
        )
    )


# -- exact linear algebra ----------------------------------------------------


def matrix_rank(columns: list[dict]) -> int:
    """Rank of the sparse column family over the rationals, by Bareiss's
    fraction-free forward elimination (Math. Comp. 22, 1968).  Each column is
    scaled to ints by the lcm of its denominators, which keeps the rank; every
    later entry is a minor of that int matrix, so each division by the
    previous pivot is exact.  No row is normalised or reduced above its pivot."""
    keys = sorted(set().union(*columns))
    scales = [lcm(*(c.denominator for c in col.values())) for col in columns]
    rows = [[int(col.get(k, 0) * s) for k in keys] for col, s in zip(columns, scales)]
    rank, previous = 0, 1
    for j in range(len(keys)):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank][j:]
        p = top[0]
        for row in rows[rank + 1 :]:
            lead = row[j]
            row[j:] = [(p * v - lead * w) // previous for v, w in zip(row[j:], top)]
        rank, previous = rank + 1, p
    return rank


# -- cd and ce rewriting -----------------------------------------------------

_PSI = {"c": ("a", "b"), "d": ("ab", "ba")}


def expand_cd_word(word: str) -> NCPoly:
    """Expansion of one cd-word into the ab alphabet."""
    return NCPoly._wrap(AB, dict(_expand_cd_word(word)))


@cache
def _expand_cd_word(word: str) -> dict:
    """The ab-words of c -> a+b, d -> ab+ba, letter by letter.  The words
    of one step share a length, so no two keys meet.  The memo hands its
    dicts to every caller, and none of them writes to one."""
    terms = {"": 1}
    for letter in word:
        terms = {w + x: 1 for w in terms for x in _PSI[letter]}
    return terms


def expand_cd(p: NCPoly) -> NCPoly:
    """Expansion of a cd-polynomial into the ab alphabet."""
    if p.alphabet != CD:
        raise AlphabetMismatch("expand_cd expects a cd-polynomial")
    return _apply_wordwise(p, _expand_cd_word, AB)


def rewrite_ab_to_cd(p: NCPoly) -> NCPoly:
    """Write a homogeneous ab-polynomial in c = a+b and d = ab+ba, exactly.

    Raises NotExpressible when the input lies outside the span of the
    cd-monomials (non-Eulerian flag data does this).

    The first letter is peeled off.  A cd-polynomial c·p1 + d·p2 of degree
    n expands to a·A + b·B with A = p1 + b·p2 and B = p1 + a·p2, so
    B − A = a·p2 − b·p2.  So p2 is read off the words of B − A that start
    with a, the words starting with b must match −b·p2, p1 = A − b·p2, and
    p1 and p2 are rewritten at degrees n − 1 and n − 2.
    """
    if p.alphabet != AB:
        raise AlphabetMismatch("rewrite_ab_to_cd expects an ab-polynomial")
    out: dict[str, object] = {}
    _peel(p.terms, p.homogeneous_degree(), "", out)
    return NCPoly._wrap(CD, out)


def _peel(terms: dict, n: int, prefix: str, out: dict) -> None:
    """Write into out, under prefix, the cd-terms of the degree-n ab-terms."""
    if not terms:
        return
    if n == 0:
        out[prefix] = terms[""]
        return
    after_a = {w[1:]: c for w, c in terms.items() if w[0] == "a"}
    rest = {w[1:]: c for w, c in terms.items() if w[0] == "b"}
    _accumulate(rest, [(w, -c) for w, c in after_a.items()])
    p2 = {w[1:]: c for w, c in rest.items() if w[:1] == "a"}
    b_part = {w: c for w, c in rest.items() if w[:1] != "a"}
    if b_part != {"b" + w: -c for w, c in p2.items()}:
        raise NotExpressible("not a cd-polynomial under the Psi convention")
    p1 = _accumulate(after_a, [("b" + w, -c) for w, c in p2.items()])
    _peel(p1, n - 1, prefix + "c", out)
    _peel(p2, n - 2, prefix + "d", out)


def _ce_image(word: str, pairs: int) -> dict:
    """A cd-word with k d's under d -> ½cc − ½ee, times 2^pairs: 2^k
    ce-words, each with the int coefficient ±2^(pairs − k), negative for an
    odd number of ee's."""
    first, *rest = word.split("d")
    scale = 1 << pairs - len(rest)
    out = {}
    for choice in product(("cc", "ee"), repeat=len(rest)):
        ce = first + "".join(pair + piece for pair, piece in zip(choice, rest))
        out[ce] = -scale if choice.count("ee") % 2 else scale
    return out


def cd_ce_convert(p: NCPoly) -> NCPoly:
    """Rewrite a cd-polynomial in the ce alphabet using e² = c² − 2d.  The
    sums are in integers, times the common denominator D of p and times
    2^pairs for the most d's in a word of p; each ce-coefficient is divided
    by D·2^pairs once, and an integral quotient is an int."""
    if p.alphabet != CD:
        raise AlphabetMismatch("conversion to ce expects a cd-polynomial")
    pairs = max((word.count("d") for word in p.terms), default=0)
    scale = lcm(*(c.denominator for c in p.terms.values()))
    whole = {w: c.numerator * (scale // c.denominator) for w, c in p.terms.items()}
    scaled = _apply_wordwise(NCPoly._wrap(CD, whole), lambda w: _ce_image(w, pairs), CE)
    divisor = scale << pairs
    for w, c in scaled.terms.items():
        scaled.terms[w] = c // divisor if c % divisor == 0 else Fraction(c, divisor)
    return scaled


# -- coproducts ---------------------------------------------------------------

@cache
def _cd_coproduct_word(word: str) -> dict[tuple[str, str], int]:
    """The coproduct (delete one letter and split there, summed over all
    positions) of the expansion of one cd-word, written back in c and d, by
    the recursion on its last letter of Ehrenborg and Readdy ("Coproducts
    and the cd-index", 1998).  The tests check that it expands to the ab
    coproduct.  The memo hands its dicts to every caller, and none of them
    writes to one."""
    if not word:
        return {}
    head, last = word[:-1], word[-1]
    result = {
        (w1, w2 + last): c for (w1, w2), c in _cd_coproduct_word(head).items()
    }
    # the keys above end their right word with `last`; these do not
    if last == "c":
        result[head, ""] = 2
    else:
        result[head, "c"] = 1
        result[head + "c", ""] = 1
    return result


# -- the reversal-antisymmetric space -----------------------------------------


def asym_basis(n: int) -> list[NCPoly]:
    """The differences w − reverse(w) over words w of degree n with w < reverse(w)."""
    out = []
    for w in ab_words(n):
        rw = w[::-1]
        if w < rw:
            out.append(NCPoly(AB, {w: 1, rw: -1}))
    return out


# -- serialization -------------------------------------------------------------


def to_dict(p: NCPoly) -> dict:
    """The JSON form of p.  A numerator or denominator of more digits than
    CPython writes (sys.get_int_max_str_digits(), 0 or absent before 3.10.7
    for no limit) raises TooLarge here, before a writer starts the output;
    10**limit has over 3 * limit bits, so most coefficients skip the power."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    terms = []
    for w, c in p.sorted_items():
        n = max(abs(c.numerator), c.denominator)
        if limit and n.bit_length() > 3 * limit and n >= 10**limit:
            raise TooLarge(f"term {w!r} has a coefficient of more than {limit} digits")
        terms.append({"word": w, "num": c.numerator, "den": c.denominator})
    return {"alphabet": p.alphabet, "terms": terms}


def from_dict(data: dict) -> NCPoly:
    terms = []
    for t in data["terms"]:
        for part in ("num", "den"):
            if type(t[part]) is not int:
                raise ValueError(
                    f"term {t['word']!r} has a non-integer {part} {t[part]!r}"
                )
        if t["den"] == 0:
            raise ValueError(f"term {t['word']!r} has denominator 0")
        terms.append((t["word"], Fraction(t["num"], t["den"])))
    return NCPoly(data["alphabet"], terms)
