"""Simplicial complexes, order complexes, edge subdivision, and the
univariate polynomial transforms that go with them.

Faces are stored explicitly (every face, not just facets), so subdivision
and links stay auditable at desk scale.  A global face cap keeps runaway
constructions from exhausting memory.  `SimplicialComplex(faces)` is the
door for outside faces and refuses a family that is not closed downward.
`from_facets`, `link`, `stellar_subdivide` and `order_complex` close
their faces by construction and build through `SimplicialComplex._wrap`,
which sees only to the cap and the empty face.
"""

from fractions import Fraction

from .errors import FaceNotInComplex, InvalidSize, PosetOpsError, TooLarge
from .ncpoly import NCPoly, X, _apply_wordwise, monomial, unit
from .posets import GradedPoset, Poset

FACE_CAP = 1 << 16


# -- univariate polynomials ------------------------------------------------------
# An f-polynomial is an NCPoly over the one-letter alphabet X: the word
# "x"·n stands for x^n.


def chebyshev_T(n: int) -> NCPoly:
    return _chebyshev(n, 1)


def chebyshev_U(n: int) -> NCPoly:
    return _chebyshev(n, 2)


def _chebyshev(n: int, first: int) -> NCPoly:
    """P_n of P_0 = 1, P_1 = first·x, P_k = 2x·P_(k-1) − P_(k-2): T_n for
    first = 1, U_n for first = 2.  A loop, not a recursion, so no degree
    meets the recursion limit."""
    if n < 0:
        raise InvalidSize(f"need n >= 0, got {n}")
    x = monomial(X, "x")
    previous, current = unit(X), first * x
    for _ in range(n):
        previous, current = current, 2 * x * current - previous
    return previous


def cheb_transform_T(p: NCPoly) -> NCPoly:
    """Image of an x-polynomial under x^n ↦ T_n(x)."""
    return _apply_wordwise(p, lambda w: chebyshev_T(len(w)).terms, X)


def vertex_link_transform(p: NCPoly) -> NCPoly:
    """Image of the face polynomial under x^n ↦ 2·U_{n-1}(x), n ≥ 1.

    This is what the summed face polynomial of the links of the original
    vertices in an edgewise subdivision comes out to; the constant term
    of p does not contribute.
    """
    return _apply_wordwise(
        p, lambda w: chebyshev_U(len(w) - 1).terms if w else {}, X
    ).scaled(2)


def univariate_to_dict(p: NCPoly) -> dict:
    """The coefficients of an x-polynomial from x^0 up to its degree as
    [numerator, denominator] pairs, with the zeros NCPoly does not store."""
    return {
        "coeffs": [
            [c.numerator, c.denominator]
            for c in (p.coefficient("x" * n) for n in range(p.degree() + 1))
        ]
    }


# -- simplicial complexes --------------------------------------------------------


class SimplicialComplex:
    """A downward closed family of faces over string vertex labels."""

    __slots__ = ("faces", "vertices")

    def __init__(self, faces):
        """The complex on outside faces, which must be closed downward."""
        self._fill({frozenset(f) for f in faces})
        for face in self.faces:
            for v in face:
                if face - {v} not in self.faces:
                    raise PosetOpsError(
                        f"face {sorted(face)} present without its subset "
                        f"{sorted(face - {v})}"
                    )

    @classmethod
    def _wrap(cls, faces: set) -> "SimplicialComplex":
        """The complex on a downward closed set of frozensets built from checked
        input, so only the face cap and the empty face are seen to."""
        K = cls.__new__(cls)
        K._fill(faces)
        return K

    def _fill(self, faces: set) -> None:
        faces.add(frozenset())
        if len(faces) > FACE_CAP:
            raise TooLarge(f"{len(faces)} faces exceed the cap of {FACE_CAP}")
        self.faces = frozenset(faces)
        self.vertices = tuple(sorted({v for face in faces for v in face}))

    @classmethod
    def from_facets(cls, facets) -> "SimplicialComplex":
        closed: set[frozenset] = set()
        stack = [frozenset(facet) for facet in facets]
        while stack:
            face = stack.pop()
            if face not in closed:
                closed.add(face)
                if len(closed) > FACE_CAP:
                    raise TooLarge(f"more than {FACE_CAP} faces in the downward closure")
                stack += [face - {v} for v in face]
        return cls._wrap(closed)

    def __len__(self) -> int:
        return len(self.faces)

    def __contains__(self, face) -> bool:
        return frozenset(face) in self.faces

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.faces == other.faces

    def __hash__(self):
        return hash(self.faces)

    def __repr__(self):
        return (
            f"<SimplicialComplex with {len(self.vertices)} vertices and "
            f"{len(self.faces)} faces>"
        )

    @property
    def dim(self) -> int:
        return max(len(f) for f in self.faces) - 1

    def f_vector(self):
        counts = [0] * (self.dim + 2)
        for face in self.faces:
            counts[len(face)] += 1
        return counts

    def edges(self):
        return sorted(tuple(sorted(f)) for f in self.faces if len(f) == 2)


_HALF_SHIFT = NCPoly(X, {"": Fraction(-1, 2), "x": Fraction(1, 2)})


def F_polynomial(K: SimplicialComplex) -> NCPoly:
    """The sum of f_(k-1)·((x − 1)/2)^k over the f-vector, the empty face first."""
    out = NCPoly(X)
    power = unit(X)
    for count in K.f_vector():
        out = out + count * power
        power = power * _HALF_SHIFT
    return out


def link(K: SimplicialComplex, face) -> SimplicialComplex:
    face = frozenset(face)
    if face not in K.faces:
        raise FaceNotInComplex(f"{sorted(face)} is not a face")
    return SimplicialComplex._wrap({f - face for f in K.faces if face <= f})


def midpoint_label(u: str, v: str) -> str:
    lo, hi = sorted((u, v))
    return f"mid({lo}|{hi})"


def stellar_subdivide(K: SimplicialComplex, edge) -> SimplicialComplex:
    """Replace every face containing the edge by cones over a fresh midpoint."""
    edge = frozenset(edge)
    if len(edge) != 2:
        raise PosetOpsError(f"{sorted(edge)} is not an edge")
    if edge not in K.faces:
        raise FaceNotInComplex(f"{sorted(edge)} is not a face")
    u, v = sorted(edge)
    m = midpoint_label(u, v)
    if m in K.vertices:
        raise PosetOpsError(f"midpoint label {m!r} already taken")
    kept = set()
    star = []  # the link of the edge: f - edge for every face f holding it
    for f in K.faces:
        if edge <= f:
            star.append(f - edge)
        else:
            kept.add(f)
    for g in (frozenset({m}), frozenset({m, u}), frozenset({m, v})):
        kept.update(g | h for h in star)
    return SimplicialComplex._wrap(kept)


def tchebyshev_triangulation(K: SimplicialComplex) -> SimplicialComplex:
    """Stellar subdivision at every original edge, one after another.

    Midpoints introduced along the way are never subdivided themselves.
    The face numbers of the result do not depend on the order.
    """
    out = K
    for edge in K.edges():
        out = stellar_subdivide(out, edge)
    return out


# -- order complexes -------------------------------------------------------------


def order_complex(P: Poset, strip_extremes: bool = False) -> SimplicialComplex:
    """Chains of the poset as faces; optionally drop bottom and top first."""
    if strip_extremes and not isinstance(P, GradedPoset):
        raise PosetOpsError("only bounded graded posets have extremes to strip")
    skip = {P.bottom_index, P.top_index} if strip_extremes else set()
    indices = [i for i in range(len(P.labels)) if i not in skip]
    above = {
        i: [j for j in indices if j != i and P.up[i] >> j & 1] for i in indices
    }
    faces: set[frozenset] = {frozenset()}
    for i in indices:
        _add_chains(P.labels, above, i, (), faces)
    return SimplicialComplex._wrap(faces)


def _add_chains(labels, above: dict, i: int, chain: tuple, faces: set) -> None:
    """Add to faces the chain extended by element i, and every extension of
    that by the elements above i."""
    chain = chain + (labels[i],)
    faces.add(frozenset(chain))
    if len(faces) > FACE_CAP:
        raise TooLarge(f"more than {FACE_CAP} chains")
    for j in above[i]:
        _add_chains(labels, above, j, chain, faces)
