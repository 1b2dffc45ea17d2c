"""Flag f-vectors of graded posets and the ab, cd, and ce indices built
from them.

The flag f-vector counts chains through the open interior by the set of
ranks they visit.  Chains are enumerated depth first over the order
relation, accumulating one counter per rank-set bitmask.
"""

from .errors import PosetOpsError
from .ncpoly import AB, NCPoly, cd_ce_convert, rewrite_ab_to_cd, substitute
from .posets import GradedPoset


class FlagFVector:
    """Chain counts of a graded poset, keyed by visited rank sets."""

    __slots__ = ("n", "counts")

    def __init__(self, n: int, counts):
        self.n = n
        self.counts = {}
        for S, value in dict(counts).items():
            key = tuple(sorted(S))
            for r in key:
                if not 1 <= r <= n - 1:
                    raise PosetOpsError(f"rank {r} is not strictly inside 0..{n}")
            if len(set(key)) != len(key):
                raise PosetOpsError(f"rank set {S} repeats a rank")
            self.counts[key] = value

    def count(self, S) -> int:
        return self.counts.get(tuple(sorted(S)), 0)

    def sorted_items(self):
        return sorted(self.counts.items(), key=lambda kv: (len(kv[0]), kv[0]))

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

    subsets = [()]
    for r in range(1, n):
        subsets += [S + (r,) for S in subsets]
    table = {}
    for S in subsets:
        mask = 0
        for r in S:
            mask |= 1 << (r - 1)
        table[S] = counts.get(mask, 0)
    return FlagFVector(n, table)


def upsilon(P: GradedPoset) -> NCPoly:
    """Flag generating polynomial: each rank set contributes the word with
    letter b at its ranks and a elsewhere."""
    fv = flag_f_vector(P)
    if fv.n < 1:
        raise PosetOpsError("the poset must have rank at least 1")
    return NCPoly(
        AB,
        {
            "".join("b" if r in S else "a" for r in range(1, fv.n)): count
            for S, count in fv.counts.items()
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
    return FlagFVector(data["n"], {tuple(e["S"]): e["f"] for e in data["counts"]})
