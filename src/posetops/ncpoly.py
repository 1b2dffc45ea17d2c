"""Exact noncommutative polynomials over the alphabets {a,b}, {c,d} and {c,e}.

Words are plain strings.  A coefficient is an int while it is integral and
a fractions.Fraction otherwise: the constructors bring outside input to
that form (a Fraction with denominator 1 becomes an int), and arithmetic
keeps the types it is given.  So flag counts and ab/cd indices stay in int
arithmetic, and fractions enter only through the ½ of the ce basis and of
the sym/asym split.  A Fraction that turns integral under arithmetic stays
a Fraction; it compares and hashes equal to the int and serializes the
same way.  No floating point enters any computation.  In the cd alphabet
the letter d carries degree 2 (so the expansions c -> a+b, d -> ab+ba
preserve degree); every other letter carries degree 1.  The empty word is
the multiplicative unit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .errors import (
    AlphabetMismatch,
    MissingImage,
    NotExpressible,
    NotHomogeneous,
    OddEPower,
)

AB = "ab"
CD = "cd"
CE = "ce"

_LETTERS = {AB: frozenset("ab"), CD: frozenset("cd"), CE: frozenset("ce")}


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


def _word_key(alphabet: str, word: str):
    # canonical term order: letter count first, then lexicographic
    return (len(word), word)


class _Combination:
    """Exact nonzero coefficients on the keys (words or word pairs) of one
    alphabet; the part NCPoly and TensorPoly share."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: str, terms=()):
        if alphabet not in _LETTERS:
            raise ValueError(f"unknown alphabet {alphabet!r}")
        letters = _LETTERS[alphabet]
        items = [
            (self._key(letters, alphabet, key), _coefficient(coeff))
            for key, coeff in (terms.items() if isinstance(terms, dict) else terms)
        ]
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


class NCPoly(_Combination):
    """A finite rational linear combination of words over one alphabet."""

    __slots__ = ()

    @staticmethod
    def _key(letters, alphabet, word):
        if not letters.issuperset(word):
            raise AlphabetMismatch(
                f"word {word!r} is not over the {alphabet!r} alphabet"
            )
        return word

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
        return sorted(
            self.terms.items(), key=lambda kv: _word_key(self.alphabet, kv[0])
        )

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


def monomial(alphabet: str, word: str, coeff=1) -> NCPoly:
    return NCPoly(alphabet, {word: coeff})


def _apply_wordwise(p: NCPoly, image, alphabet: str) -> NCPoly:
    """The linear map sending each word w of p to the polynomial image(w)
    over `alphabet`, summed into one accumulator."""
    return NCPoly._wrap(
        alphabet,
        _accumulate(
            {},
            (
                (x, c * k)
                for w, c in p.terms.items()
                for x, k in image(w).terms.items()
            ),
        ),
    )


class TensorPoly(_Combination):
    """Rational combination of word pairs w1 (x) w2 over one alphabet."""

    __slots__ = ()

    @staticmethod
    def _key(letters, alphabet, pair):
        w1, w2 = pair
        if not (letters.issuperset(w1) and letters.issuperset(w2)):
            raise AlphabetMismatch(f"pair {pair!r} is not over {alphabet!r}")
        return (w1, w2)

    def sorted_items(self):
        return sorted(
            self.terms.items(),
            key=lambda kv: (
                _word_key(self.alphabet, kv[0][0]),
                _word_key(self.alphabet, kv[0][1]),
            ),
        )

    def __repr__(self):
        bits = [
            f"{c}*({w1 or '1'} (x) {w2 or '1'})" for (w1, w2), c in self.sorted_items()
        ]
        return f"TensorPoly({self.alphabet}: " + (" + ".join(bits) or "0") + ")"


# -- substitution ------------------------------------------------------------


def substitute(p: NCPoly, images: dict[str, NCPoly]) -> NCPoly:
    """The algebra homomorphism sending each letter to its image.

    Every letter of p's alphabet needs an image, and all images must share
    one alphabet (which becomes the result's alphabet).
    """
    for letter in sorted(_LETTERS[p.alphabet]):
        if letter not in images:
            raise MissingImage(f"no image for letter {letter!r}")
    target = {img.alphabet for img in images.values()}
    if len(target) != 1:
        raise AlphabetMismatch("images use more than one alphabet")
    target_alphabet = target.pop()

    def image(word: str) -> NCPoly:
        piece = NCPoly._wrap(target_alphabet, {"": 1})
        for letter in word:
            piece = piece * images[letter]
        return piece

    return _apply_wordwise(p, image, target_alphabet)


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
    """Rank of the sparse column family over the rationals (Gauss-Jordan)."""
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


# -- cd and ce rewriting -----------------------------------------------------

_PSI_IMAGES = {
    "c": NCPoly(AB, {"a": 1, "b": 1}),
    "d": NCPoly(AB, {"ab": 1, "ba": 1}),
}
_UPSILON_IMAGES = {
    "c": NCPoly(AB, {"a": 1, "b": 2}),
    "d": NCPoly(AB, {"ab": 1, "ba": 1, "bb": 2}),
}
_CONVENTIONS = {"Psi": _PSI_IMAGES, "Upsilon": _UPSILON_IMAGES}


def expand_cd_word(word: str, convention: str = "Psi") -> NCPoly:
    """Expansion of one cd-word into the ab alphabet."""
    if convention not in _CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    return NCPoly._wrap(AB, dict(_expand_cd_word(word, convention).terms))


@cache
def _expand_cd_word(word: str, convention: str) -> NCPoly:
    return substitute(NCPoly(CD, {word: 1}), _CONVENTIONS[convention])


def expand_cd(p: NCPoly, convention: str = "Psi") -> NCPoly:
    """Expansion of a cd-polynomial into the ab alphabet."""
    if p.alphabet != CD:
        raise AlphabetMismatch("expand_cd expects a cd-polynomial")
    return _apply_wordwise(p, lambda w: expand_cd_word(w, convention), AB)


def rewrite_ab_to_cd(p: NCPoly, convention: str = "Psi") -> NCPoly:
    """Write a homogeneous ab-polynomial in c and d, exactly.

    Under "Psi" c = a+b and d = ab+ba; under "Upsilon" c = a+2b and
    d = ab+ba+2b².  Raises NotExpressible when the input lies outside the
    span of the cd-monomials (non-Eulerian flag data does this).

    The first letter is peeled off.  With c = a + g·b and d = ab + ba + h·bb,
    a cd-polynomial c·p1 + d·p2 of degree n expands to a·A + b·B with
    A = p1 + b·p2 and B = g·p1 + a·p2 + h·b·p2, so
    B − g·A = a·p2 + (h − g)·b·p2.  So p2 is read off the words of B − g·A
    that start with a, the words starting with b must match (h − g)·b·p2,
    p1 = A − b·p2, and p1 and p2 are rewritten at degrees n − 1 and n − 2.
    """
    if p.alphabet != AB:
        raise AlphabetMismatch("rewrite_ab_to_cd expects an ab-polynomial")
    if convention not in _CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    n = p.homogeneous_degree()
    g = _CONVENTIONS[convention]["c"].coefficient("b")
    h = _CONVENTIONS[convention]["d"].coefficient("bb")
    out: dict[str, object] = {}

    def peel(terms: dict, n: int, prefix: str) -> None:
        if not terms:
            return
        if n == 0:
            out[prefix] = terms[""]
            return
        after_a = {w[1:]: c for w, c in terms.items() if w[0] == "a"}
        rest = {w[1:]: c for w, c in terms.items() if w[0] == "b"}
        _accumulate(rest, [(w, -g * c) for w, c in after_a.items()])
        p2 = {w[1:]: c for w, c in rest.items() if w[:1] == "a"}
        b_part = {w: c for w, c in rest.items() if w[:1] != "a"}
        if b_part != _accumulate({}, (("b" + w, (h - g) * c) for w, c in p2.items())):
            raise NotExpressible(
                f"not a cd-polynomial under the {convention} convention"
            )
        p1 = _accumulate(after_a, [("b" + w, -c) for w, c in p2.items()])
        peel(p1, n - 1, prefix + "c")
        peel(p2, n - 2, prefix + "d")

    peel(p.terms, n, "")
    return NCPoly._wrap(CD, out)


_D_AS_CE = NCPoly(CE, {"cc": Fraction(1, 2), "ee": Fraction(-1, 2)})
_EE_AS_CD = NCPoly(CD, {"cc": 1, "d": -2})


def _ce_word_as_cd(word: str) -> NCPoly:
    piece = unit(CD)
    run = 0
    for letter in word + "c":  # sentinel flushes a trailing e-run
        if letter == "e":
            run += 1
            continue
        if run % 2:
            raise OddEPower(f"odd run of e's in {word!r}")
        for _ in range(run // 2):
            piece = piece * _EE_AS_CD
        run = 0
        piece = piece * monomial(CD, "c")
    # drop the sentinel letter c from the right of every word
    return NCPoly._wrap(CD, {w[:-1]: c for w, c in piece.terms.items()})


def cd_ce_convert(p: NCPoly, target: str) -> NCPoly:
    """Rewrite between the cd and ce alphabets using e² = c² − 2d.

    target="ce" accepts any cd-polynomial.  target="cd" needs every maximal
    run of e's to have even length and raises OddEPower otherwise.
    """
    if target == "ce":
        if p.alphabet != CD:
            raise AlphabetMismatch("conversion to ce expects a cd-polynomial")
        return substitute(p, {"c": monomial(CE, "c"), "d": _D_AS_CE})
    if target == "cd":
        if p.alphabet != CE:
            raise AlphabetMismatch("conversion to cd expects a ce-polynomial")
        return _apply_wordwise(p, _ce_word_as_cd, CD)
    raise ValueError(f"target must be 'ce' or 'cd', got {target!r}")


# -- coproducts ---------------------------------------------------------------

@cache
def _cd_coproduct_word(word: str) -> dict[tuple[str, str], int]:
    """The cd coproduct of one word, by recursion on its last letter.  The
    memo hands its dicts to every caller, and none of them writes to one."""
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


def _split_words(p: NCPoly, letters: str) -> TensorPoly:
    """Delete one letter from `letters` and split there, summed over all
    positions of all words of p."""
    return TensorPoly._wrap(
        p.alphabet,
        _accumulate(
            {},
            (
                ((w[:i], w[i + 1 :]), c)
                for w, c in p.terms.items()
                for i, letter in enumerate(w)
                if letter in letters
            ),
        ),
    )


def coproduct_delta(p: NCPoly) -> TensorPoly:
    """Delete one letter and split there, summed over all positions.

    On ab-polynomials this is computed directly.  On cd-polynomials it is
    the recursion on the last cd-letter (Ehrenborg–Readdy); that it expands
    to the ab coproduct of the expanded input is checked in the tests.
    """
    if p.alphabet == AB:
        return _split_words(p, "ab")
    if p.alphabet == CD:
        return TensorPoly._wrap(
            CD,
            _accumulate(
                {},
                (
                    (key, c * k)
                    for w, c in p.terms.items()
                    for key, k in _cd_coproduct_word(w).items()
                ),
            ),
        )
    raise AlphabetMismatch("coproduct is defined on ab and cd polynomials")


def coproduct_delta_prime(p: NCPoly) -> TensorPoly:
    """Split at each b (removing it); zero on words without b."""
    if p.alphabet != AB:
        raise AlphabetMismatch("coproduct_delta_prime expects an ab-polynomial")
    return _split_words(p, "b")


# -- symmetric / antisymmetric decomposition ----------------------------------


def sym_asym_split(p: NCPoly, n: int) -> tuple[NCPoly, NCPoly]:
    """Split a degree-n ab-polynomial into reversal-even and -odd parts."""
    if p.alphabet != AB:
        raise AlphabetMismatch("sym_asym_split expects an ab-polynomial")
    deg = p.homogeneous_degree()
    if deg is not None and deg != n:
        raise NotHomogeneous(f"expected degree {n}, found {deg}")
    half = Fraction(1, 2)
    rev = p.star()
    return (p + rev).scaled(half), (p - rev).scaled(half)


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
    return {
        "alphabet": p.alphabet,
        "terms": [
            {"word": w, "num": c.numerator, "den": c.denominator}
            for w, c in p.sorted_items()
        ],
    }


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
