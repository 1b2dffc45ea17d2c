"""Derived posets built from index covers against their label-route builds.

The package builds duals, products, intervals and second-kind members by
handing index covers to the one closing routine.  The functions below are
the earlier label route, kept as oracles: they format every cover as a pair
of labels and pass it to the `Poset`/`GradedPoset` constructor, which looks
each label up again.
"""

import random

import pytest

from posetops.errors import PosetOpsError
from posetops.posets import (
    EMPTY_INTERVAL,
    GradedPoset,
    Poset,
    direct_product,
    graded_interval_poset,
    interval_label,
    interval_poset,
    interval_subposet,
    pair_label,
    second_kind_transform,
)
from posetops.verify import corpus, interval_ready_corpus

SEEDS = (0, 1)


def label_dual(P):
    cls = GradedPoset if isinstance(P, GradedPoset) else Poset
    return cls(P.labels, [(hi, lo) for lo, hi in P.cover_pairs()])


def label_direct_product(P, Q):
    labels = [pair_label(p, q) for p in P.labels for q in Q.labels]
    covers = []
    for p_lo, p_hi in P.cover_pairs():
        for q in Q.labels:
            covers.append((pair_label(p_lo, q), pair_label(p_hi, q)))
    for q_lo, q_hi in Q.cover_pairs():
        for p in P.labels:
            covers.append((pair_label(p, q_lo), pair_label(p, q_hi)))
    graded = isinstance(P, GradedPoset) and isinstance(Q, GradedPoset)
    return (GradedPoset if graded else Poset)(labels, covers)


def label_interval_pairs(P):
    n = len(P.labels)
    return [(i, j) for i in range(n) for j in range(n) if P.up[i] >> j & 1]


def label_interval_cover_pairs(P, pairs):
    covers = []
    present = set(pairs)
    for i, j in pairs:
        lo, hi = P.labels[i], P.labels[j]
        here = interval_label(lo, hi)
        for k in P.covers_down[i]:
            if (k, j) in present:
                covers.append((here, interval_label(P.labels[k], hi)))
        for k in P.covers_up[j]:
            if (i, k) in present:
                covers.append((here, interval_label(lo, P.labels[k])))
    return covers


def label_interval_poset(P):
    pairs = label_interval_pairs(P)
    labels = [interval_label(P.labels[i], P.labels[j]) for i, j in pairs]
    return Poset(labels, label_interval_cover_pairs(P, pairs))


def label_graded_interval_poset(P):
    pairs = label_interval_pairs(P)
    labels = [EMPTY_INTERVAL] + [
        interval_label(P.labels[i], P.labels[j]) for i, j in pairs
    ]
    covers = [
        (EMPTY_INTERVAL, interval_label(label, label)) for label in P.labels
    ] + label_interval_cover_pairs(P, pairs)
    return GradedPoset(labels, covers)


def label_interval_subposet(P, lower, upper):
    mask = P.interval_indices(P.index[lower], P.index[upper])
    labels = [P.labels[k] for k in range(len(P.labels)) if mask >> k & 1]
    covers = [
        (lo, hi)
        for lo, hi in P.cover_pairs()
        if mask >> P.index[lo] & 1 and mask >> P.index[hi] & 1
    ]
    return GradedPoset(labels, covers)


def label_second_kind_transform(P):
    members = []
    n = len(P.labels)
    for x in P.labels:
        xi = P.index[x]
        pairs = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if P.up[i] >> xi & 1 and P.up[xi] >> j & 1
        ]
        labels = [interval_label(P.labels[i], P.labels[j]) for i, j in pairs]
        members.append(
            (x, GradedPoset(labels, label_interval_cover_pairs(P, pairs)))
        )
    return members


def assert_same_poset(built, oracle):
    assert type(built) is type(oracle)
    assert built.labels == oracle.labels
    assert built.cover_pairs() == oracle.cover_pairs()
    assert built.up == oracle.up and built.down == oracle.down
    if isinstance(oracle, GradedPoset):
        assert built.rank == oracle.rank
        assert (built.bottom, built.top) == (oracle.bottom, oracle.top)


def _once(named):
    """Both corpora share their fixed members; each is checked once."""
    out = {}
    for name, P in named:
        out.setdefault(name, P)
    return list(out.items())


ALL_MEMBERS = _once(m for seed in SEEDS for m in corpus(seed))
READY_MEMBERS = _once(m for seed in SEEDS for m in interval_ready_corpus(seed))


def test_dual_matches_the_label_route():
    for _, P in ALL_MEMBERS:
        assert_same_poset(P.dual(), label_dual(P))
        assert_same_poset(P.dual().dual(), P)


def test_plain_dual_and_product_match_the_label_route():
    vee = Poset(["o", "p", "q"], [("o", "p"), ("o", "q")])
    assert_same_poset(vee.dual(), label_dual(vee))
    assert_same_poset(interval_poset(vee), label_interval_poset(vee))
    for _, P in ALL_MEMBERS[:8]:
        assert_same_poset(direct_product(vee, P), label_direct_product(vee, P))
        assert_same_poset(direct_product(P, vee), label_direct_product(P, vee))


def test_direct_product_matches_the_label_route():
    rng = random.Random(7)
    small = [(name, P) for name, P in ALL_MEMBERS if len(P) <= 16]
    pairs = [(small[k], small[(k * 5 + 3) % len(small)]) for k in range(len(small))]
    pairs += [tuple(rng.sample(small, 2)) for _ in range(20)]
    for (_, A), (_, B) in pairs:
        assert_same_poset(direct_product(A, B), label_direct_product(A, B))


def test_interval_posets_match_the_label_route():
    for _, P in READY_MEMBERS:
        assert_same_poset(interval_poset(P), label_interval_poset(P))
        assert_same_poset(graded_interval_poset(P), label_graded_interval_poset(P))


def test_interval_subposets_match_the_label_route():
    for _, P in READY_MEMBERS:
        for x in P.labels:
            for lower, upper in ((P.bottom, x), (x, P.top)):
                assert_same_poset(
                    interval_subposet(P, lower, upper),
                    label_interval_subposet(P, lower, upper),
                )


def test_second_kind_members_match_the_label_route():
    for _, P in READY_MEMBERS:
        built = second_kind_transform(P)
        oracle = label_second_kind_transform(P)
        assert [x for x, _ in built] == [x for x, _ in oracle]
        for (_, member), (_, expected) in zip(built, oracle):
            assert_same_poset(member, expected)


def test_colliding_derived_labels_are_refused_as_before():
    # "(a,b,c)" names both ("a,b", "c") and ("a", "b,c")
    P = Poset(["a,b", "a"], [])
    Q = Poset(["c", "b,c"], [])
    with pytest.raises(PosetOpsError) as built:
        direct_product(P, Q)
    with pytest.raises(PosetOpsError) as oracle:
        label_direct_product(P, Q)
    assert str(built.value) == str(oracle.value) == "duplicate element label '(a,b,c)'"


def _first_implied_cover(labels, covers):
    """The cover the earlier pairwise scan named: the first i in label
    order, then the first j in listed order, with another upper cover of i
    below j."""
    index = {label: i for i, label in enumerate(labels)}
    up = {i: [] for i in range(len(labels))}
    for lo, hi in covers:
        up[index[lo]].append(index[hi])

    def reachable(k):
        seen, stack = {k}, [k]
        while stack:
            for j in up[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return seen

    for i in range(len(labels)):
        for j in up[i]:
            if any(k != j and j in reachable(k) for k in up[i]):
                return labels[i], labels[j]
    return None


def test_implied_cover_check_names_the_same_cover_as_the_pairwise_scan():
    rng = random.Random(3)
    named = 0
    for _ in range(300):
        n = rng.randint(3, 9)
        labels = [f"x{i}" for i in rng.sample(range(n), n)]
        covers = [
            (labels[i], labels[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.35
        ]
        rng.shuffle(covers)
        expected = _first_implied_cover(labels, covers)
        if expected is None:
            Poset(labels, covers)
            continue
        named += 1
        with pytest.raises(PosetOpsError) as error:
            Poset(labels, covers)
        assert str(error.value) == (
            f"cover {expected!r} is implied by a longer path and must not be listed"
        )
    assert named > 100
