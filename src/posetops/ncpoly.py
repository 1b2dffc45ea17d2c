"""Exact noncommutative polynomials over the alphabets {a,b}, {c,d} and {c,e}.

Words are plain strings, coefficients are fractions.Fraction; no floating
point enters any computation.  In the cd alphabet the letter d carries
degree 2 (so the expansions c -> a+b, d -> ab+ba preserve degree); every
other letter carries degree 1.  The empty word is the multiplicative unit.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    AlphabetMismatch,
    MissingImage,
    NotCoalgebraElement,
    NotExpressible,
    NotHomogeneous,
    OddEPower,
)

AB = "ab"
CD = "cd"
CE = "ce"

_LETTERS = {AB: frozenset("ab"), CD: frozenset("cd"), CE: frozenset("ce")}

ZERO = Fraction(0)
ONE = Fraction(1)


def word_degree(alphabet: str, word: str) -> int:
    """Degree of a word; d counts twice, every other letter once."""
    if alphabet == CD:
        return len(word) + word.count("d")
    return len(word)


def _word_key(alphabet: str, word: str):
    # canonical term order: letter count first, then lexicographic
    return (len(word), word)


class NCPoly:
    """A finite rational linear combination of words over one alphabet."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: str, terms=()):
        if alphabet not in _LETTERS:
            raise ValueError(f"unknown alphabet {alphabet!r}")
        letters = _LETTERS[alphabet]
        acc: dict[str, Fraction] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for word, coeff in items:
            if not letters.issuperset(word):
                raise AlphabetMismatch(
                    f"word {word!r} is not over the {alphabet!r} alphabet"
                )
            c = acc.get(word, ZERO) + Fraction(coeff)
            if c:
                acc[word] = c
            else:
                acc.pop(word, None)
        self.alphabet = alphabet
        self.terms = acc

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, word: str) -> Fraction:
        return self.terms.get(word, ZERO)

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

    def coefficient_total(self) -> Fraction:
        return sum(self.terms.values(), ZERO)

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
        acc = dict(self.terms)
        for w, c in other.terms.items():
            s = acc.get(w, ZERO) + c
            if s:
                acc[w] = s
            else:
                acc.pop(w, None)
        out = NCPoly.__new__(NCPoly)
        out.alphabet = self.alphabet
        out.terms = acc
        return out

    def __neg__(self):
        out = NCPoly.__new__(NCPoly)
        out.alphabet = self.alphabet
        out.terms = {w: -c for w, c in self.terms.items()}
        return out

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
        acc: dict[str, Fraction] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                s = acc.get(w, ZERO) + c1 * c2
                if s:
                    acc[w] = s
                else:
                    acc.pop(w, None)
        out = NCPoly.__new__(NCPoly)
        out.alphabet = self.alphabet
        out.terms = acc
        return out

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, r) -> "NCPoly":
        r = Fraction(r)
        out = NCPoly.__new__(NCPoly)
        out.alphabet = self.alphabet
        out.terms = {} if not r else {w: c * r for w, c in self.terms.items()}
        return out

    def star(self) -> "NCPoly":
        """Word-wise reversal, extended linearly (an anti-automorphism)."""
        acc: dict[str, Fraction] = {}
        for w, c in self.terms.items():
            rw = w[::-1]
            s = acc.get(rw, ZERO) + c
            if s:
                acc[rw] = s
            else:
                acc.pop(rw, None)
        out = NCPoly.__new__(NCPoly)
        out.alphabet = self.alphabet
        out.terms = acc
        return out

    # -- comparison / display ----------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, NCPoly)
            and self.alphabet == other.alphabet
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.alphabet, frozenset(self.terms.items())))

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


def add(p: NCPoly, q: NCPoly) -> NCPoly:
    return p + q


def scale(r, p: NCPoly) -> NCPoly:
    return p.scaled(r)


def multiply(p: NCPoly, q: NCPoly) -> NCPoly:
    return p * q


def reverse_star(p: NCPoly) -> NCPoly:
    return p.star()


class TensorPoly:
    """Rational combination of word pairs w1 (x) w2 over one alphabet."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: str, terms=()):
        if alphabet not in _LETTERS:
            raise ValueError(f"unknown alphabet {alphabet!r}")
        letters = _LETTERS[alphabet]
        acc: dict[tuple[str, str], Fraction] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for pair, coeff in items:
            w1, w2 = pair
            if not (letters.issuperset(w1) and letters.issuperset(w2)):
                raise AlphabetMismatch(f"pair {pair!r} is not over {alphabet!r}")
            c = acc.get((w1, w2), ZERO) + Fraction(coeff)
            if c:
                acc[(w1, w2)] = c
            else:
                acc.pop((w1, w2), None)
        self.alphabet = alphabet
        self.terms = acc

    def sorted_items(self):
        return sorted(
            self.terms.items(),
            key=lambda kv: (
                _word_key(self.alphabet, kv[0][0]),
                _word_key(self.alphabet, kv[0][1]),
            ),
        )

    def __eq__(self, other):
        return (
            isinstance(other, TensorPoly)
            and self.alphabet == other.alphabet
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.alphabet, frozenset(self.terms.items())))

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

    acc: dict[str, Fraction] = {}
    for word, coeff in p.terms.items():
        partial: dict[str, Fraction] = {"": ONE}
        for letter in word:
            img = images[letter].terms
            nxt: dict[str, Fraction] = {}
            for w1, c1 in partial.items():
                for w2, c2 in img.items():
                    w = w1 + w2
                    s = nxt.get(w, ZERO) + c1 * c2
                    if s:
                        nxt[w] = s
                    else:
                        nxt.pop(w, None)
            partial = nxt
        for w, c in partial.items():
            s = acc.get(w, ZERO) + coeff * c
            if s:
                acc[w] = s
            else:
                acc.pop(w, None)
    return NCPoly(target_alphabet, acc)


# -- word enumeration --------------------------------------------------------


def ab_words(n: int) -> list[str]:
    """All ab-words of degree n in lexicographic order."""
    words = [""]
    for _ in range(n):
        words = [w + x for w in words for x in "ab"]
    return sorted(words)


_CD_WORDS: dict[int, list[str]] = {0: [""], 1: ["c"]}


def cd_words(n: int) -> list[str]:
    """All cd-words of degree n (c has degree 1, d degree 2)."""
    if n < 0:
        return []
    if n not in _CD_WORDS:
        _CD_WORDS[n] = sorted(
            [w + "c" for w in cd_words(n - 1)] + [w + "d" for w in cd_words(n - 2)]
        )
    return _CD_WORDS[n]


# -- exact linear algebra ----------------------------------------------------


def solve_exact(columns: list[dict], target: dict):
    """Solve sum_j x_j * columns[j] = target over the rationals.

    Columns and target are sparse vectors (mapping -> Fraction).  Returns the
    coefficient list when the system has a solution and the columns are
    linearly independent; returns None when inconsistent.
    """
    keys = sorted(set(target).union(*columns)) if columns else sorted(target)
    rows = [
        [Fraction(col.get(k, 0)) for col in columns] + [Fraction(target.get(k, 0))]
        for k in keys
    ]
    ncols = len(columns)
    pivot_rows: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivot_rows.append(c)
        r += 1
    for i in range(r, len(rows)):
        if rows[i][ncols]:
            return None
    if len(pivot_rows) != ncols:
        raise ValueError("columns are linearly dependent")
    solution = [ZERO] * ncols
    for i, c in enumerate(pivot_rows):
        solution[c] = rows[i][ncols]
    return solution


def matrix_rank(columns: list[dict]) -> int:
    """Rank of the sparse column family over the rationals."""
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

_EXPANSION_CACHE: dict[tuple[str, str], NCPoly] = {}


def expand_cd_word(word: str, convention: str = "Psi") -> NCPoly:
    """Expansion of one cd-word into the ab alphabet."""
    if convention not in _CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    key = (convention, word)
    cached = _EXPANSION_CACHE.get(key)
    if cached is None:
        cached = substitute(NCPoly(CD, {word: 1}), _CONVENTIONS[convention])
        _EXPANSION_CACHE[key] = cached
    return cached


def expand_cd(p: NCPoly, convention: str = "Psi") -> NCPoly:
    """Expansion of a cd-polynomial into the ab alphabet."""
    if p.alphabet != CD:
        raise AlphabetMismatch("expand_cd expects a cd-polynomial")
    out = NCPoly(AB)
    for w, c in p.terms.items():
        out = out + expand_cd_word(w, convention).scaled(c)
    return out


def rewrite_ab_to_cd(p: NCPoly, convention: str = "Psi") -> NCPoly:
    """Write a homogeneous ab-polynomial in c and d, exactly.

    Under "Psi" c = a+b and d = ab+ba; under "Upsilon" c = a+2b and
    d = ab+ba+2b².  Raises NotExpressible when the input lies outside the
    span of the cd-monomials (non-Eulerian flag data does this).
    """
    if p.alphabet != AB:
        raise AlphabetMismatch("rewrite_ab_to_cd expects an ab-polynomial")
    if convention not in _CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    n = p.homogeneous_degree()
    if n is None:
        return NCPoly(CD)
    basis = cd_words(n)
    columns = [expand_cd_word(w, convention).terms for w in basis]
    solution = solve_exact(columns, p.terms)
    if solution is None:
        raise NotExpressible(f"not a cd-polynomial under the {convention} convention")
    return NCPoly(CD, {w: c for w, c in zip(basis, solution)})


_D_AS_CE = NCPoly(CE, {"cc": Fraction(1, 2), "ee": Fraction(-1, 2)})
_EE_AS_CD = NCPoly(CD, {"cc": 1, "d": -2})


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
        out = NCPoly(CD)
        for word, coeff in p.terms.items():
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
            piece = NCPoly(CD, {w[:-1]: c for w, c in piece.terms.items()})
            out = out + piece.scaled(coeff)
        return out
    raise ValueError(f"target must be 'ce' or 'cd', got {target!r}")


# -- coproducts ---------------------------------------------------------------

_CD_COPRODUCT_CACHE: dict[str, dict[tuple[str, str], Fraction]] = {}


def _cd_coproduct_word(word: str) -> dict[tuple[str, str], Fraction]:
    cached = _CD_COPRODUCT_CACHE.get(word)
    if cached is not None:
        return cached
    if not word:
        result: dict[tuple[str, str], Fraction] = {}
    else:
        head, last = word[:-1], word[-1]
        result = {}
        for (w1, w2), c in _cd_coproduct_word(head).items():
            key = (w1, w2 + last)
            result[key] = result.get(key, ZERO) + c
        if last == "c":
            key = (head, "")
            result[key] = result.get(key, ZERO) + 2
        else:
            for key in ((head, "c"), (head + "c", "")):
                result[key] = result.get(key, ZERO) + 1
        result = {k: v for k, v in result.items() if v}
    _CD_COPRODUCT_CACHE[word] = result
    return result


def coproduct_delta(p: NCPoly) -> TensorPoly:
    """Delete one letter and split there, summed over all positions.

    On ab-polynomials this is computed directly.  On cd-polynomials the
    result is computed on cd-words and then certified against the ab route:
    the input is expanded (c = a+b, d = ab+ba), the ab coproduct is taken,
    and the two sides must agree; NotCoalgebraElement reports a mismatch.
    """
    if p.alphabet == AB:
        acc: dict[tuple[str, str], Fraction] = {}
        for w, c in p.terms.items():
            for i in range(len(w)):
                key = (w[:i], w[i + 1 :])
                s = acc.get(key, ZERO) + c
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        return TensorPoly(AB, acc)
    if p.alphabet == CD:
        acc = {}
        for w, c in p.terms.items():
            for key, k in _cd_coproduct_word(w).items():
                s = acc.get(key, ZERO) + c * k
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        result = TensorPoly(CD, acc)
        direct = coproduct_delta(expand_cd(p))
        expanded: dict[tuple[str, str], Fraction] = {}
        for (w1, w2), c in result.terms.items():
            for x1, c1 in expand_cd_word(w1).terms.items():
                for x2, c2 in expand_cd_word(w2).terms.items():
                    key = (x1, x2)
                    s = expanded.get(key, ZERO) + c * c1 * c2
                    if s:
                        expanded[key] = s
                    else:
                        expanded.pop(key, None)
        if TensorPoly(AB, expanded) != direct:
            raise NotCoalgebraElement("coproduct left the cd span")
        return result
    raise AlphabetMismatch("coproduct is defined on ab and cd polynomials")


def coproduct_delta_prime(p: NCPoly) -> TensorPoly:
    """Split at each b (removing it); zero on words without b."""
    if p.alphabet != AB:
        raise AlphabetMismatch("coproduct_delta_prime expects an ab-polynomial")
    acc: dict[tuple[str, str], Fraction] = {}
    for w, c in p.terms.items():
        for i, letter in enumerate(w):
            if letter != "b":
                continue
            key = (w[:i], w[i + 1 :])
            s = acc.get(key, ZERO) + c
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
    return TensorPoly(AB, acc)


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
        if t["den"] == 0:
            raise ValueError(f"term {t['word']!r} has denominator 0")
        terms.append((t["word"], Fraction(t["num"], t["den"])))
    return NCPoly(data["alphabet"], terms)
