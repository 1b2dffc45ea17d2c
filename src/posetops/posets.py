"""Finite posets, graded posets, and the interval constructions.

The order relation is materialized at construction time as one bitmask row
per element (up[i] holds every j with element i below-or-equal element j),
so comparability tests and interval extraction are cheap afterwards.

One closing routine, `Poset._close`, finishes every poset from the upper
covers of each element given as indices: topological order, the up/down
masks and the refusal of cycles; for a GradedPoset also the bounded and
graded checks and the ranks, in the same order.  The label constructor,
the door of the generators, `induced_subposet` and poset files, parses
(lo, hi) label pairs into index covers and after closing refuses a cover
implied by a longer path (in a GradedPoset the graded check refuses it
first).  Duals, products and intervals hand the index covers of a checked
poset, which imply none of each other, to `Poset._from_covers`.  A
second-kind member is no construction of its own: member x is the upper
interval [[x,x], [0̂,1̂]] of the bottomed interval poset, cut out by
`interval_subposet`.

Derived posets are counted from the masks before they are built (the
intervals of P number the sum of |up[x]|, a product |P|·|Q|, and all
second-kind members together the sum of |down[x]|·|up[x]|) and refused
with TooLarge above GENERATION_CAP elements, the cap of the generators and
of poset files.
"""

from .errors import (
    CycleDetected,
    EndpointsNotExtreme,
    InvalidSize,
    NotAChain,
    NotBounded,
    NotGraded,
    PosetOpsError,
    TooLarge,
)

EMPTY_INTERVAL = "∅"

GENERATION_CAP = 8192


def interval_label(lower: str, upper: str) -> str:
    return f"[{lower},{upper}]"


def pair_label(left: str, right: str) -> str:
    return f"({left},{right})"


class Poset:
    """A finite poset given by element labels and its cover relation."""

    __slots__ = ("labels", "index", "covers_up", "covers_down", "up", "down")

    def __init__(self, labels, cover_pairs):
        labels = tuple(labels)
        index = _label_index(labels)
        covers_up: list[list[int]] = [[] for _ in labels]
        seen: set[tuple[int, int]] = set()
        for lo, hi in cover_pairs:
            if lo not in index or hi not in index:
                raise PosetOpsError(
                    f"cover ({lo!r}, {hi!r}) references an unknown element"
                )
            i, j = index[lo], index[hi]
            if i == j:
                raise CycleDetected(f"cover ({lo!r}, {hi!r}) is a self-loop")
            if (i, j) in seen:
                continue
            seen.add((i, j))
            covers_up[i].append(j)
        self._close(labels, index, covers_up)
        # A cover i < j is implied when another upper cover of i lies below j.
        for i, js in enumerate(self.covers_up):
            cover_mask = sum(1 << j for j in js)
            for j in js:
                if self.down[j] & cover_mask & ~(1 << j):
                    raise PosetOpsError(
                        f"cover ({labels[i]!r}, {labels[j]!r}) is implied "
                        f"by a longer path and must not be listed"
                    )

    @classmethod
    def _from_covers(cls, labels, covers_up):
        """The poset on `labels` whose element i is covered by the distinct,
        unimplied indices in covers_up[i]: the route of every derived poset.
        Repeated labels, cycles and unbounded or ungraded orders still fail."""
        P = cls.__new__(cls)
        labels = tuple(labels)
        P._close(labels, _label_index(labels), covers_up)
        return P

    def _close(self, labels, index, covers_up):
        """The one closing routine: order, up/down masks and the cycle
        check.  Returns the topological order."""
        n = len(labels)
        covers_down: list[list[int]] = [[] for _ in range(n)]
        for i, js in enumerate(covers_up):
            for j in js:
                covers_down[j].append(i)

        indegree = [len(js) for js in covers_down]
        stack = [i for i in range(n) if not indegree[i]]
        order = []
        while stack:
            i = stack.pop()
            order.append(i)
            for j in covers_up[i]:
                indegree[j] -= 1
                if not indegree[j]:
                    stack.append(j)
        if len(order) != n:
            raise CycleDetected("the cover relation contains a cycle")

        up = [0] * n
        for i in reversed(order):
            mask = 1 << i
            for j in covers_up[i]:
                mask |= up[j]
            up[i] = mask
        down = [0] * n
        for i in order:
            mask = 1 << i
            for j in covers_down[i]:
                mask |= down[j]
            down[i] = mask
        self.labels = labels
        self.index = index
        self.covers_up = tuple(tuple(js) for js in covers_up)
        self.covers_down = tuple(tuple(js) for js in covers_down)
        self.up = tuple(up)
        self.down = tuple(down)
        return order

    def __len__(self) -> int:
        return len(self.labels)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} with {len(self)} elements>"

    def cover_pairs(self):
        """All covers as sorted (lower, upper) label pairs."""
        pairs = [
            (self.labels[i], self.labels[j])
            for i in range(len(self.labels))
            for j in self.covers_up[i]
        ]
        pairs.sort()
        return pairs

    def leq(self, x: str, y: str) -> bool:
        return self.up[self.index[x]] >> self.index[y] & 1 == 1

    def less(self, x: str, y: str) -> bool:
        return x != y and self.leq(x, y)

    def interval_indices(self, i: int, j: int) -> int:
        """Bitmask of the elements between i and j inclusive."""
        return self.up[i] & self.down[j]

    def dual(self):
        """The reversed order, of the same class."""
        return type(self)._from_covers(self.labels, self.covers_down)


def _label_index(labels) -> dict:
    index: dict[str, int] = {}
    for i, label in enumerate(labels):
        if label in index:
            raise PosetOpsError(f"duplicate element label {label!r}")
        index[label] = i
    return index


def _bits(mask: int):
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class GradedPoset(Poset):
    """A bounded poset whose covers each raise a rank function by one."""

    __slots__ = ("rank", "bottom_index", "top_index")

    def _close(self, labels, index, covers_up):
        """The poset closing routine, then the bounded and graded checks and
        the ranks, in the same topological order."""
        order = super()._close(labels, index, covers_up)
        mins = [i for i, below in enumerate(self.covers_down) if not below]
        maxes = [i for i, above in enumerate(self.covers_up) if not above]
        if len(mins) != 1:
            raise NotBounded(f"{len(mins)} minimal elements, need exactly one")
        if len(maxes) != 1:
            raise NotBounded(f"{len(maxes)} maximal elements, need exactly one")
        rank = [-1] * len(labels)
        rank[mins[0]] = 0
        for i in order:
            for j in self.covers_up[i]:
                if rank[j] == -1:
                    rank[j] = rank[i] + 1
                elif rank[j] != rank[i] + 1:
                    raise NotGraded(
                        f"cover ({labels[i]!r}, {labels[j]!r}) skips a rank"
                    )
        self.rank = tuple(rank)
        self.bottom_index = mins[0]
        self.top_index = maxes[0]
        return order

    @property
    def bottom(self) -> str:
        return self.labels[self.bottom_index]

    @property
    def top(self) -> str:
        return self.labels[self.top_index]

    @property
    def top_rank(self) -> int:
        return self.rank[self.top_index]

    def rank_of(self, label: str) -> int:
        return self.rank[self.index[label]]


# -- generators ----------------------------------------------------------------


def boolean_lattice(n: int) -> GradedPoset:
    """The lattice of subsets of {1..n}, labeled like "{1,3}"."""
    _check_size(n, lambda n: 2**n)
    subsets = []
    for size in range(n + 1):
        level = [s for s in _subsets(n) if len(s) == size]
        level.sort()
        subsets.extend(level)
    label = {s: "{" + ",".join(str(x) for x in s) + "}" for s in subsets}
    covers = []
    for s in subsets:
        for x in range(1, n + 1):
            if x not in s:
                covers.append((label[s], label[tuple(sorted(s + (x,)))]))
    return GradedPoset([label[s] for s in subsets], covers)


def _subsets(n: int):
    out = [()]
    for x in range(1, n + 1):
        out += [s + (x,) for s in out]
    return out


def chain_poset(n: int) -> GradedPoset:
    """A chain of rank n with labels "0" through str(n)."""
    _check_size(n, lambda n: n + 1)
    labels = [str(i) for i in range(n + 1)]
    return GradedPoset(labels, [(str(i), str(i + 1)) for i in range(n)])


def ladder_poset(n: int) -> GradedPoset:
    """Rank n+1, two elements per middle rank, consecutive ranks fully joined."""
    _check_size(n, lambda n: 2 * n + 2)
    labels = ["0̂"]
    for k in range(1, n + 1):
        labels += [f"+{k}", f"-{k}"]
    labels.append("1̂")
    covers = [("0̂", "+1"), ("0̂", "-1")]
    for k in range(1, n):
        for s in "+-":
            for t in "+-":
                covers.append((f"{s}{k}", f"{t}{k + 1}"))
    covers += [(f"+{n}", "1̂"), (f"-{n}", "1̂")]
    return GradedPoset(labels, covers)


def cube_lattice(n: int) -> GradedPoset:
    """Face lattice of the n-cube: words over 0/1/* plus a bottom face."""
    _check_size(n, lambda n: 3**n + 1)
    words = [""]
    for _ in range(n):
        words = [w + ch for w in words for ch in "01*"]
    words.sort(key=lambda w: (w.count("*"), w))
    covers = []
    for w in words:
        if "*" not in w:
            covers.append((EMPTY_INTERVAL, w))
        for i, ch in enumerate(w):
            if ch != "*":
                covers.append((w, w[:i] + "*" + w[i + 1 :]))
    return GradedPoset([EMPTY_INTERVAL] + words, covers)


def crosspolytope_lattice(n: int) -> GradedPoset:
    """Face lattice of the n-crosspolytope.

    Proper faces are sets of signs on disjoint coordinates; the label for
    {+1, -3} is "{+1,-3}".  A full face "⊤" is adjoined on top.
    """
    _check_size(n, lambda n: 3**n + 1)
    faces = [()]
    for x in range(1, n + 1):
        faces += [f + (s * x,) for f in faces for s in (1, -1)]
    faces.sort(key=lambda f: (len(f), tuple((abs(x), -x) for x in f)))

    def name(face):
        if not face:
            return EMPTY_INTERVAL
        parts = [f"{'+' if x > 0 else '-'}{abs(x)}" for x in face]
        return "{" + ",".join(parts) + "}"

    covers = []
    for f in faces:
        used = {abs(x) for x in f}
        for x in range(1, n + 1):
            if x not in used:
                for s in (1, -1):
                    covers.append((name(f), name(tuple(sorted(f + (s * x,), key=abs)))))
        if len(f) == n:
            covers.append((name(f), "⊤"))
    return GradedPoset([name(f) for f in faces] + ["⊤"], covers)


_GENERATORS = {
    "boolean": boolean_lattice,
    "ladder": ladder_poset,
    "chain": chain_poset,
    "cube": cube_lattice,
    "cubelattice": cube_lattice,
    "crosspolytope": crosspolytope_lattice,
    "crosspolytopelattice": crosspolytope_lattice,
}


def generate(kind: str, n: int) -> GradedPoset:
    key = kind.lower()
    if key not in _GENERATORS:
        known = ", ".join(sorted(set(_GENERATORS)))
        raise PosetOpsError(f"unknown poset kind {kind!r} (known: {known})")
    return _GENERATORS[key](n)


def _check_size(n: int, element_count) -> None:
    """Refuse n < 1, and a family of more than GENERATION_CAP elements before
    building it.  Every family has more than n elements, so a larger n is
    refused before element_count(n), which can have millions of digits, is
    computed; the message leaves the count out for the same reason."""
    if n < 1:
        raise InvalidSize(f"need n >= 1, got {n}")
    if n > GENERATION_CAP or element_count(n) > GENERATION_CAP:
        raise TooLarge(f"n = {n} gives more than the cap of {GENERATION_CAP} elements")


def _check_cap(element_count: int) -> None:
    """Refuse a poset of more than GENERATION_CAP elements before building it."""
    if element_count > GENERATION_CAP:
        raise TooLarge(f"{element_count} elements exceed the cap of {GENERATION_CAP}")


def induced_subposet(P: Poset, elements) -> GradedPoset:
    """The order of P restricted to the given elements.

    Covers are recomputed for the restriction, so two kept elements are
    covered exactly when nothing kept sits strictly between them.  The
    result must still be bounded and graded or the constructor raises.
    """
    idx = []
    for label in elements:
        if label not in P.index:
            raise PosetOpsError(f"unknown element {label!r}")
        idx.append(P.index[label])
    if len(set(idx)) != len(idx):
        raise PosetOpsError("elements repeat")
    keep = 0
    for i in idx:
        keep |= 1 << i
    covers = []
    for i in idx:
        for j in idx:
            if i == j or not P.up[i] >> j & 1:
                continue
            between = P.interval_indices(i, j) & keep & ~(1 << i | 1 << j)
            if not between:
                covers.append((P.labels[i], P.labels[j]))
    return GradedPoset([P.labels[i] for i in idx], covers)


# -- products ------------------------------------------------------------------


def direct_product(P: Poset, Q: Poset) -> Poset:
    """Componentwise order on pairs; graded whenever both factors are.  The
    pair (p, q) has index p * |Q| + q."""
    m = len(Q)
    _check_cap(len(P) * m)
    labels = [pair_label(p, q) for p in P.labels for q in Q.labels]
    covers_up = [
        [p2 * m + q for p2 in p_above] + [p * m + q2 for q2 in q_above]
        for p, p_above in enumerate(P.covers_up)
        for q, q_above in enumerate(Q.covers_up)
    ]
    cls = GradedPoset if isinstance(P, GradedPoset) and isinstance(Q, GradedPoset) else Poset
    return cls._from_covers(labels, covers_up)


def diamond_product(P: GradedPoset, Q: GradedPoset) -> GradedPoset:
    """Product of the posets with bottoms removed, re-bounded from below by
    a new bottom of index 0 under every pair of rank-one elements.  The
    remaining pairs are numbered from 1 in the order of P, then of Q."""
    _check_cap((len(P) - 1) * (len(Q) - 1) + 1)
    keep_q = [q for q in range(len(Q)) if q != Q.bottom_index]
    kept = [(p, q) for p in range(len(P)) if p != P.bottom_index for q in keep_q]
    at = {pair: k for k, pair in enumerate(kept, 1)}
    labels = ["0̂"] + [pair_label(P.labels[p], Q.labels[q]) for p, q in kept]
    atoms = [
        at[p, q] for p in P.covers_up[P.bottom_index] for q in Q.covers_up[Q.bottom_index]
    ]
    covers_up = [atoms] + [
        [at[p2, q] for p2 in P.covers_up[p]] + [at[p, q2] for q2 in Q.covers_up[q]]
        for p, q in kept
    ]
    return GradedPoset._from_covers(labels, covers_up)


# -- interval posets -----------------------------------------------------------


def _interval_pairs(P: Poset):
    """Index pairs (i, j) with i below-or-equal j, in label order."""
    return [(i, j) for i, above in enumerate(P.up) for j in _bits(above)]


def _interval_labels(P: Poset, pairs):
    return [interval_label(P.labels[i], P.labels[j]) for i, j in pairs]


def _interval_covers(P: Poset, pairs, first: int = 0):
    """The upper covers of each interval in `pairs`, as indices numbered from
    `first` in the given order: [i,j] is covered by [k,j] for each lower
    cover k of i and by [i,k] for each upper cover k of j.  The pairs must
    hold every interval that contains one of them."""
    position = {pair: p for p, pair in enumerate(pairs, first)}
    return [
        [position[k, j] for k in P.covers_down[i]]
        + [position[i, k] for k in P.covers_up[j]]
        for i, j in pairs
    ]


def interval_poset(P: Poset) -> Poset:
    """All nonempty intervals of P ordered by inclusion."""
    _check_cap(sum(above.bit_count() for above in P.up))
    pairs = _interval_pairs(P)
    return Poset._from_covers(_interval_labels(P, pairs), _interval_covers(P, pairs))


def graded_interval_poset(P: GradedPoset) -> GradedPoset:
    """The interval poset with the empty interval adjoined as bottom."""
    _check_cap(sum(above.bit_count() for above in P.up) + 1)
    pairs = _interval_pairs(P)
    labels = [EMPTY_INTERVAL] + _interval_labels(P, pairs)
    diagonal = [p for p, (i, j) in enumerate(pairs, 1) if i == j]
    return GradedPoset._from_covers(labels, [diagonal] + _interval_covers(P, pairs, 1))


def interval_subposet(P: GradedPoset, lower: str, upper: str) -> GradedPoset:
    """The interval [lower, upper] of P as a graded poset of its own."""
    if not P.leq(lower, upper):
        raise PosetOpsError(f"{lower!r} is not below {upper!r}")
    mask = P.interval_indices(P.index[lower], P.index[upper])
    kept = list(_bits(mask))
    position = {k: p for p, k in enumerate(kept)}
    covers_up = [[position[j] for j in P.covers_up[k] if mask >> j & 1] for k in kept]
    return GradedPoset._from_covers([P.labels[k] for k in kept], covers_up)


def second_kind_transform(P: GradedPoset) -> list:
    """For each x, the intervals containing x, ordered by inclusion.

    Member x is the upper interval [[x,x], [0̂,1̂]] of the bottomed interval
    poset, which is built once; its bottom is [x,x] and its top is the
    whole ground set.  Returns the (x, member) pairs in the label order of P.
    """
    _check_cap(sum(d.bit_count() * u.bit_count() for d, u in zip(P.down, P.up)))
    G = graded_interval_poset(P)
    whole = interval_label(P.bottom, P.top)
    return [
        (x, interval_subposet(G, interval_label(x, x), whole)) for x in P.labels
    ]


# -- predicates and counts -----------------------------------------------------


def is_eulerian(P: GradedPoset) -> bool:
    """Every interval of rank at least one balances even and odd ranks.

    Only intervals of even length L >= 2 are counted.  If every proper
    subinterval of [x,y] has mu = (-1)^length, and A sums (-1)^(rank z -
    rank x) over z in [x,y], the Möbius recursion from the bottom gives
    mu(x,y) = (-1)^L - A and the one from the top (-1)^L - (-1)^L * A.  So
    A = (-1)^L * A: by induction on L, odd lengths balance by themselves."""
    even_mask = sum(1 << i for i, r in enumerate(P.rank) if r % 2 == 0)
    for i, above in enumerate(P.up):
        same = even_mask if P.rank[i] % 2 == 0 else ~even_mask
        for j in _bits(above & same & ~(1 << i)):
            members = above & P.down[j]
            evens = (members & even_mask).bit_count()
            if 2 * evens != members.bit_count():
                return False
    return True


def pell_number(n: int) -> int:
    if n < 0:
        raise InvalidSize(f"need n >= 0, got {n}")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, 2 * b + a
    return a


def count_chains_with_support(P: GradedPoset, support) -> int:
    """Chains of intervals of P whose endpoint set is exactly the support.

    The support must be a chain running from bottom to top.  Counted are the
    nonempty chains of the interval poset of P whose intervals' endpoints
    together are the support; the outermost interval is then the whole
    ground set.  The count depends only on the length m of the support and
    is P(m) + P(m+1) in Pell numbers, which is what this returns once the
    support is validated: no interval is built.  The pell suite checks that,
    for one support per corpus member and length, against a recursion over
    a chain of length m and against a count on the member's own interval
    poset.
    """
    chain = list(support)
    if not chain:
        raise NotAChain("empty support")
    for label in chain:
        if label not in P.index:
            raise NotAChain(f"unknown element {label!r}")
    if len(set(chain)) != len(chain):
        raise NotAChain("support repeats an element")
    for lower, upper in zip(chain, chain[1:]):
        if not P.less(lower, upper):
            raise NotAChain(f"{lower!r} is not strictly below {upper!r}")
    if chain[0] != P.bottom or chain[-1] != P.top:
        raise EndpointsNotExtreme("support must run from bottom to top")
    m = len(chain) - 1
    return pell_number(m) + pell_number(m + 1)


# -- isomorphism ---------------------------------------------------------------


def is_order_isomorphism(P: Poset, Q: Poset, mapping) -> bool:
    """Whether the label map `mapping`, read on the labels of P, takes P one
    to one onto Q and carries each up-set of P onto the up-set of the image,
    so that x <= y in P exactly when mapping[x] <= mapping[y] in Q.  Keys
    that are no label of P are ignored; a label of P with no image fails."""
    image = [Q.index.get(mapping.get(label)) for label in P.labels]
    if len(P) != len(Q) or None in image or len(set(image)) != len(Q):
        return False
    return all(
        sum(1 << image[j] for j in _bits(above)) == Q.up[image[i]]
        for i, above in enumerate(P.up)
    )


# -- serialization ---------------------------------------------------------------


def poset_to_dict(P: Poset) -> dict:
    graded = isinstance(P, GradedPoset)
    return {
        "elements": list(P.labels),
        "covers": [list(pair) for pair in P.cover_pairs()],
        "rank": {label: P.rank[P.index[label]] for label in P.labels}
        if graded
        else None,
        "bottom": P.bottom if graded else None,
        "top": P.top if graded else None,
    }


def poset_from_dict(data: dict) -> Poset:
    elements = data["elements"]
    if not isinstance(elements, list):
        raise PosetOpsError(f"elements must be a list, not {type(elements).__name__}")
    _check_cap(len(elements))
    for label in elements:
        if not isinstance(label, str):
            raise PosetOpsError(f"element label {label!r} is not a string")
        try:
            label.encode("utf-8")
        except UnicodeEncodeError as error:  # a lone surrogate
            raise PosetOpsError(f"element label {label!r} is not UTF-8 text") from error
    covers = data["covers"]
    if not isinstance(covers, list):
        raise PosetOpsError(f"covers must be a list, not {type(covers).__name__}")
    for pair in covers:
        if not isinstance(pair, list) or len(pair) != 2:
            raise PosetOpsError(f"cover {pair!r} is not a two-element list")
    covers = [tuple(pair) for pair in covers]
    if data.get("rank") is None:
        return Poset(elements, covers)
    P = GradedPoset(elements, covers)
    stored = data["rank"]
    if not isinstance(stored, dict):
        raise NotGraded(f"rank must be an object or null, not {type(stored).__name__}")
    for label in P.labels:
        if stored.get(label) != P.rank_of(label):
            raise NotGraded(
                f"stored rank of {label!r} disagrees with the cover relation"
            )
    if data.get("bottom") != P.bottom:
        raise NotBounded("stored bottom disagrees with the cover relation")
    if data.get("top") != P.top:
        raise NotBounded("stored top disagrees with the cover relation")
    return P
