"""Flag f-vectors of graded posets and the ab, cd, and ce indices built
from them.

The flag f-vector counts chains through the open interior by the set of
ranks they visit.  Chains are enumerated depth first over the order
relation, accumulating one counter per rank-set bitmask (bit r - 1 stands
for rank r); rank-set tuples appear only where outside input or JSON
meets the vector.
"""

from itertools import combinations

from .errors import PosetOpsError
from .ncpoly import AB, NCPoly, cd_ce_convert, rewrite_ab_to_cd, substitute
from .posets import GradedPoset


def _rank_mask(n: int, S) -> int:
    """The bitmask of a rank set given from outside, checked against rank n."""
    mask = 0
    for r in S:
        if not 1 <= r <= n - 1 or mask >> (r - 1) & 1:
            raise PosetOpsError(f"rank set {S} needs distinct ranks inside 1..{n - 1}")
        mask |= 1 << (r - 1)
    return mask


class FlagFVector:
    """Chain counts of a graded poset of rank n, keyed by rank mask; a mask
    that no chain visits is absent."""

    __slots__ = ("n", "counts")

    def __init__(self, n: int, counts: dict):
        self.n = n
        self.counts = counts

    def count(self, S) -> int:
        return self.counts.get(_rank_mask(self.n, S), 0)

    def sorted_items(self):
        """(rank tuple, count) for every subset of 1..n-1, zeros included,
        by size and then lexicographically."""
        ranks = range(1, self.n)
        return [
            (S, self.counts.get(sum(1 << (r - 1) for r in S), 0))
            for k in range(len(ranks) + 1)
            for S in combinations(ranks, k)
        ]

    def __eq__(self, other):
        if not isinstance(other, FlagFVector):
            return NotImplemented
        return self.n == other.n and self.counts == other.counts

    def __repr__(self):
        return f"<FlagFVector n={self.n} with {len(self.counts)} entries>"


def flag_f_vector(P: GradedPoset) -> FlagFVector:
    n = P.top_rank
    interior = [i for i in range(len(P.labels)) if 0 < P.rank[i] < n]
    interior.sort(key=lambda i: P.rank[i])
    above = {
        i: [j for j in interior if j != i and P.up[i] >> j & 1] for i in interior
    }
    counts: dict[int, int] = {0: 1}

    def visit(i: int, mask: int) -> None:
        mask |= 1 << (P.rank[i] - 1)
        counts[mask] = counts.get(mask, 0) + 1
        for j in above[i]:
            visit(j, mask)

    for i in interior:
        visit(i, 0)
    return FlagFVector(n, counts)


def upsilon(P: GradedPoset) -> NCPoly:
    """Flag generating polynomial: each rank set contributes the word with
    letter b at its ranks and a elsewhere."""
    fv = flag_f_vector(P)
    if fv.n < 1:
        raise PosetOpsError("the poset must have rank at least 1")
    return NCPoly(
        AB,
        {
            "".join("b" if mask >> r & 1 else "a" for r in range(fv.n - 1)): count
            for mask, count in fv.counts.items()
        },
    )


def ab_index(P: GradedPoset) -> NCPoly:
    ups = upsilon(P)
    a_minus_b = NCPoly(AB, {"a": 1, "b": -1})
    b_alone = NCPoly(AB, {"b": 1})
    return substitute(ups, {"a": a_minus_b, "b": b_alone})


def cd_index(P: GradedPoset) -> NCPoly:
    """Rewrite the ab-index in c = a+b and d = ab+ba; raises NotExpressible
    for non-Eulerian flag data.  The Upsilon route (the flag polynomial in
    c = a+2b, d = ab+ba+2bb) lands on the same polynomial; the tests check
    that on the Eulerian members of the verify corpus."""
    return rewrite_ab_to_cd(ab_index(P))


def ce_index(P: GradedPoset) -> NCPoly:
    return cd_ce_convert(cd_index(P), "ce")


def flag_to_dict(fv: FlagFVector) -> dict:
    return {
        "n": fv.n,
        "counts": [{"S": list(S), "f": f} for S, f in fv.sorted_items()],
    }


def flag_from_dict(data: dict) -> FlagFVector:
    n = data["n"]
    counts = {_rank_mask(n, e["S"]): e["f"] for e in data["counts"]}
    return FlagFVector(n, {mask: f for mask, f in counts.items() if f})
