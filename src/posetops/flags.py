"""Flag f-vectors of graded posets and the ab, cd, and ce indices built
from them.

The flag f-vector counts chains through the open interior by the set of
ranks they visit, one counter per rank-set bitmask (bit r - 1 stands for
rank r); rank-set tuples appear only where outside input or JSON meets the
vector.  The counts come from a dynamic program over the interior in rank
order: each element x keeps the counts of the chains topped by x packed
in one int, lane m for rank mask m, the big-int sum, layer by layer, of
those of the interior elements below it (the set bits of P.down[x]).  A
lane has the sum of bit_length(|layer|) over the layers plus one bits,
rounded up to whole bytes, so no sum carries into the next lane: a chain
takes at most one element per layer, so a count is at most the product of
the layer sizes, which is below 2 to that sum.  A chain topped by y can
visit any rank set whose highest rank is y's, so the program adds exactly
the sum, over interior pairs y < x, of 2^(rank(y) - 1) lanes: under
N^2 * 2^(n - 3) for N elements of rank n, against the number of chains for
an enumeration (13! maximal chains alone in the boolean lattice of rank
13).

The ab-index is upsilon's terms under a -> a-b, on every call, done one
letter position at a time by `ncpoly._change_basis`, the one ab <-> flag
routine of the package: (n - 1) passes over at most 2^(n - 1) words.

The counts read only the order: the ranks P.rank and the down-sets
P.down, in element numbering, and not the labels.  So `_flag_counts`
memoizes them with functools.cache on that pair, the one memo keyed by
order structure: relabeled posets, and the routes of a check that number
their elements alike, share one entry.  The public functions stay plain
functions and hand out fresh values, so a caller that writes to a result
cannot change the next one.  The words of the rank masks are kept once
per rank, by `_mask_words`.

Two caps refuse input that could not finish, with TooLarge: a top rank
over FLAG_RANK_CAP, since the flag vector of rank n has 2^(n - 1) nonzero
entries, and more than FLAG_WORK_CAP additions, counted in one pass over
the up-sets.  Both caps are compared on every call, before the counts are
read, and so is the rank check of `upsilon`; a cap lowered at run time
holds for structures already counted.  Under CPython 3.11 on a shared Xeon
host, whole CLI launches take about 0.15 s for `index ab` on the chain of
rank 16, 0.3 s for `index cd` on the ladder of rank 16, and 1 s for
`index ab` on the boolean lattice of rank 13, the largest that poset
generation admits (31,960,110 additions, 0.8 s of counting).
"""

from functools import cache
from itertools import combinations

from .errors import PosetOpsError, TooLarge
from .ncpoly import (
    AB,
    NCPoly,
    _change_basis,
    cd_ce_convert,
    rewrite_ab_to_cd,
)
from .posets import GradedPoset, _bits

FLAG_RANK_CAP = 16
FLAG_WORK_CAP = 1 << 25


class FlagFVector:
    """Chain counts of a graded poset of rank n, keyed by rank mask; a mask
    that no chain visits is absent."""

    __slots__ = ("n", "counts")

    def __init__(self, n: int, counts: dict):
        self.n = n
        self.counts = counts

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


def _layers(rank: tuple) -> list:
    """The interior by rank: bit x of layers[r - 1] for each x of rank r."""
    n = max(rank)
    layers = [0] * max(n - 1, 0)
    for x, r in enumerate(rank):
        if 0 < r < n:
            layers[r - 1] |= 1 << x
    return layers


def flag_f_vector(P: GradedPoset) -> FlagFVector:
    """Chain counts by rank mask, after both caps; a copy of the memo's.
    Each interior y adds its 2^(rank(y) - 1) masks once per interior x above
    it: P.up[y] less y and the top, so the count holds only when P is bounded."""
    n = P.top_rank
    if n > FLAG_RANK_CAP:
        raise TooLarge(f"rank {n} exceeds the flag-vector cap of {FLAG_RANK_CAP}")
    interior = ((y, r) for y, r in enumerate(P.rank) if 0 < r < n)
    work = sum((P.up[y].bit_count() - 2) << (r - 1) for y, r in interior)
    if work > FLAG_WORK_CAP:
        raise TooLarge(
            f"counting these chains takes {work} additions, "
            f"over the cap of {FLAG_WORK_CAP}"
        )
    return FlagFVector(n, dict(_flag_counts(P.rank, P.down)))


@cache
def _flag_counts(rank: tuple, down: tuple) -> dict:
    """The chains topped by an interior x are x alone and x on top of every
    chain topped by an interior y below x."""
    layers = _layers(rank)
    # Lane s of ending[x] counts the chains topped by x whose other ranks form
    # mask s; the y of rank j + 1 below x fill lanes 2^j to 2^(j+1) - 1.
    size = (sum(layer.bit_count().bit_length() for layer in layers) + 8) // 8
    shifts = [size * 8 << j for j in range(len(layers))]
    ending: dict[int, int] = {}
    total = 1
    for r, layer in enumerate(layers):
        lower = list(zip(layers[:r], shifts))
        for x in _bits(layer):
            here = 1
            for part, shift in lower:
                here += sum(map(ending.__getitem__, _bits(down[x] & part))) << shift
            ending[x] = here
        total += sum(map(ending.__getitem__, _bits(layer))) << shifts[r]
    lanes = total.to_bytes(size << len(layers), "little")
    starts = range(0, len(lanes), size)
    return {m: int.from_bytes(lanes[k : k + size], "little") for m, k in enumerate(starts)}


@cache
def _mask_words(n: int) -> tuple:
    return tuple(
        "".join("b" if mask >> r & 1 else "a" for r in range(n - 1))
        for mask in range(1 << (n - 1))
    )


def upsilon(P: GradedPoset) -> NCPoly:
    """Flag generating polynomial: each rank set contributes the word with
    letter b at its ranks and a elsewhere."""
    fv = flag_f_vector(P)
    if fv.n < 1:
        raise PosetOpsError("the poset must have rank at least 1")
    words = _mask_words(fv.n)
    return NCPoly._wrap(AB, {words[mask]: count for mask, count in fv.counts.items()})


def ab_index(P: GradedPoset) -> NCPoly:
    """The flag polynomial under a -> a-b, one letter position at a time."""
    return NCPoly._wrap(AB, _change_basis(upsilon(P).terms, -1))


def cd_index(P: GradedPoset) -> NCPoly:
    """Rewrite the ab-index in c = a+b and d = ab+ba; raises NotExpressible
    for non-Eulerian flag data.  The tests check the result on the verify
    corpus by a second route: under c = a+2b, d = ab+ba+2bb it must expand
    to the flag polynomial."""
    return rewrite_ab_to_cd(ab_index(P))


def ce_index(P: GradedPoset) -> NCPoly:
    return cd_ce_convert(cd_index(P))


def flag_to_dict(fv: FlagFVector) -> dict:
    return {
        "n": fv.n,
        "counts": [{"S": list(S), "f": f} for S, f in fv.sorted_items()],
    }

