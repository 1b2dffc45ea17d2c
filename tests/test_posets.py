import itertools

import pytest

from posetops.errors import (
    CycleDetected,
    EndpointsNotExtreme,
    InvalidSize,
    NotAChain,
    NotBounded,
    NotGraded,
    PosetOpsError,
    TooLarge,
)
from posetops import posets
from posetops.posets import (
    GradedPoset,
    Poset,
    boolean_lattice,
    chain_poset,
    count_chains_with_support,
    crosspolytope_lattice,
    cube_lattice,
    diamond_product,
    direct_product,
    generate,
    graded_interval_poset,
    induced_subposet,
    interval_label,
    interval_poset,
    interval_subposet,
    is_eulerian,
    is_order_isomorphism,
    ladder_poset,
    pair_label,
    pell_number,
    poset_from_dict,
    poset_to_dict,
    second_kind_transform,
)
from posetops.verify import (
    SIZE_CAP,
    base_families,
    boolean_interval_faces,
    interval_ready_corpus,
    product_interval_map,
)


def elbow_poset():
    # four elements, one maximal chain of length 2 and a pendant atom
    return Poset(["u1", "u2", "u3", "u4"], [("u1", "u2"), ("u2", "u3"), ("u1", "u4")])


def test_duplicate_label_rejected():
    with pytest.raises(PosetOpsError):
        Poset(["x", "x"], [])


def test_unknown_cover_rejected():
    with pytest.raises(PosetOpsError):
        Poset(["x"], [("x", "y")])


def test_self_loop_rejected():
    with pytest.raises(CycleDetected):
        Poset(["x", "y"], [("x", "x")])


def test_cycle_rejected():
    with pytest.raises(CycleDetected):
        Poset(["x", "y", "z"], [("x", "y"), ("y", "z"), ("z", "x")])


def test_transitive_cover_rejected():
    with pytest.raises(PosetOpsError) as error:
        Poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert str(error.value) == (
        "cover ('a', 'c') is implied by a longer path and must not be listed"
    )


def test_leq_on_boolean_square():
    B2 = boolean_lattice(2)
    assert B2.leq("{}", "{1,2}")
    assert B2.leq("{1}", "{1}")
    assert B2.leq("{1}", "{1,2}")
    assert not B2.leq("{1}", "{2}")
    assert not B2.leq("{1,2}", "{1}")
    assert B2.less("{}", "{1}")
    assert not B2.less("{1}", "{1}")
    assert B2.leq("{2}", "{}") or B2.leq("{}", "{2}")
    assert not B2.leq("{1}", "{2}") and not B2.leq("{2}", "{1}")


def test_graded_needs_unique_bottom():
    with pytest.raises(NotBounded):
        GradedPoset(["x", "y", "z"], [("x", "z"), ("y", "z")])


def test_graded_needs_unique_top():
    with pytest.raises(NotBounded):
        GradedPoset(["x", "y", "z"], [("x", "y"), ("x", "z")])


def test_graded_rejects_rank_skip():
    labels = ["bot", "a", "c", "d", "top"]
    covers = [("bot", "a"), ("a", "top"), ("bot", "c"), ("c", "d"), ("d", "top")]
    with pytest.raises(NotGraded):
        GradedPoset(labels, covers)


def test_graded_poset_accepts_diamond():
    P = GradedPoset(["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    assert P.bottom == "0"
    assert P.top == "1"
    assert P.top_rank == 2
    assert P.rank_of("a") == 1


def test_boolean_lattice_shape():
    B3 = boolean_lattice(3)
    assert len(B3) == 8
    assert B3.bottom == "{}"
    assert B3.top == "{1,2,3}"
    assert B3.top_rank == 3
    assert B3.rank_of("{1,3}") == 2
    assert sorted(len(B3.covers_up[i]) for i in range(8)) == [0, 1, 1, 1, 2, 2, 2, 3]


def test_chain_poset_shape():
    C3 = chain_poset(3)
    assert list(C3.labels) == ["0", "1", "2", "3"]
    assert C3.top_rank == 3
    assert C3.leq("0", "3")


def test_ladder_poset_shape():
    L2 = ladder_poset(2)
    assert len(L2) == 6
    assert set(L2.labels) == {"0̂", "+1", "-1", "+2", "-2", "1̂"}
    assert L2.top_rank == 3
    assert L2.leq("+1", "-2")
    assert L2.leq("-1", "+2")
    assert not L2.leq("+1", "-1") and not L2.leq("-1", "+1")


def test_cube_lattice_shape():
    Q2 = cube_lattice(2)
    assert len(Q2) == 10
    assert Q2.bottom == "∅"
    assert Q2.top == "**"
    assert Q2.rank_of("01") == 1
    assert Q2.rank_of("*1") == 2
    assert Q2.leq("01", "*1")
    assert not Q2.leq("01", "*0")


def crosspolytope_faces(n):
    """The face {+1,-3} of the crosspolytope n goes to the cube word that is
    1 at 1, 0 at 3 and * elsewhere, and the full face to the empty face: the
    duality of the crosspolytope n and the n-cube."""
    C = crosspolytope_lattice(n)
    faces = {
        F: "".join(
            "1" if C.leq(f"{{+{k}}}", F) else "0" if C.leq(f"{{-{k}}}", F) else "*"
            for k in range(1, n + 1)
        )
        for F in C.labels
    }
    faces[C.top] = "∅"
    return faces


def test_crosspolytope_lattice_shape():
    C2 = crosspolytope_lattice(2)
    assert len(C2) == 10
    assert C2.bottom == "∅"
    assert C2.top == "⊤"
    assert C2.top_rank == 3
    assert C2.leq("{+1}", "{+1,-2}")
    assert not C2.leq("{+1}", "{-1}") and not C2.leq("{-1}", "{+1}")
    for n in (1, 2, 3):
        assert is_order_isomorphism(
            crosspolytope_lattice(n), cube_lattice(n).dual(), crosspolytope_faces(n)
        )


def test_crosspolytope_1_is_a_diamond():
    assert is_order_isomorphism(
        crosspolytope_lattice(1),
        boolean_lattice(2),
        {"∅": "{}", "{+1}": "{1}", "{-1}": "{2}", "⊤": "{1,2}"},
    )


def test_generate_dispatch():
    assert len(generate("boolean", 2)) == 4
    assert len(generate("Ladder", 1)) == 4
    assert len(generate("cubelattice", 1)) == 4
    with pytest.raises(PosetOpsError):
        generate("mystery", 2)
    with pytest.raises(InvalidSize):
        generate("chain", 0)
    with pytest.raises(TooLarge):
        generate("boolean", 14)


def test_dual_reverses_ranks():
    B3 = boolean_lattice(3)
    D = B3.dual()
    assert D.bottom == "{1,2,3}"
    assert D.top == "{}"
    assert D.rank_of("{1,3}") == 1
    DD = D.dual()
    assert DD.cover_pairs() == B3.cover_pairs()


def test_direct_product_of_boolean_squares():
    B1 = boolean_lattice(1)
    P = direct_product(B1, B1)
    assert len(P) == 4
    assert isinstance(P, GradedPoset)
    assert is_order_isomorphism(
        P,
        boolean_lattice(2),
        {"({},{})": "{}", "({1},{})": "{1}", "({},{1})": "{2}", "({1},{1})": "{1,2}"},
    )
    assert P.rank_of("({1},{})") == 1


def test_direct_product_rank_adds():
    P = direct_product(boolean_lattice(2), chain_poset(2))
    assert len(P) == 12
    assert P.top_rank == 4


def test_diamond_product_of_diamonds():
    I1 = graded_interval_poset(boolean_lattice(1))
    D = diamond_product(I1, I1)
    assert len(D) == 10
    assert D.bottom == "0̂"
    faces = boolean_interval_faces(1)
    squares = {pair_label(u, v): faces[u] + faces[v] for u in faces for v in faces}
    assert is_order_isomorphism(D, cube_lattice(2), {"0̂": "∅", **squares})


def test_diamond_product_of_segments():
    B1 = boolean_lattice(1)
    D = diamond_product(B1, B1)
    assert len(D) == 2
    assert D.top_rank == 1


def test_interval_poset_sizes():
    assert len(interval_poset(boolean_lattice(2))) == 9
    assert len(interval_poset(boolean_lattice(3))) == 27
    assert len(interval_poset(chain_poset(3))) == 10
    assert len(interval_poset(ladder_poset(2))) == 19
    assert len(interval_poset(cube_lattice(2))) == 35


def test_interval_poset_of_elbow():
    P = elbow_poset()
    I = interval_poset(P)
    assert len(I) == 8
    assert set(I.labels) == {
        "[u1,u1]",
        "[u2,u2]",
        "[u3,u3]",
        "[u4,u4]",
        "[u1,u2]",
        "[u1,u3]",
        "[u1,u4]",
        "[u2,u3]",
    }
    assert I.leq("[u2,u2]", "[u1,u3]")
    assert not I.leq("[u1,u2]", "[u2,u3]") and not I.leq("[u2,u3]", "[u1,u2]")
    # singletons form an antichain
    singles = ["[u1,u1]", "[u2,u2]", "[u3,u3]", "[u4,u4]"]
    for x, y in itertools.combinations(singles, 2):
        assert not I.leq(x, y) and not I.leq(y, x)


def test_graded_interval_poset_of_boolean_square():
    J = graded_interval_poset(boolean_lattice(2))
    assert len(J) == 10
    assert J.bottom == "∅"
    assert J.top == "[{},{1,2}]"
    assert J.top_rank == 3
    assert J.rank_of("[{1},{1}]") == 1
    assert J.rank_of("[{},{1}]") == 2
    assert is_order_isomorphism(J, cube_lattice(2), boolean_interval_faces(2))


def test_graded_interval_poset_matches_cube_lattice_rank_3():
    J = graded_interval_poset(boolean_lattice(3))
    assert len(J) == 28
    assert is_order_isomorphism(J, cube_lattice(3), boolean_interval_faces(3))


def test_graded_interval_poset_of_chain():
    J = graded_interval_poset(chain_poset(3))
    assert len(J) == 11
    assert J.top_rank == 4


def test_interval_subposet():
    B3 = boolean_lattice(3)
    upper = interval_subposet(B3, "{1}", "{1,2,3}")
    assert len(upper) == 4
    assert is_order_isomorphism(
        upper,
        boolean_lattice(2),
        {"{1}": "{}", "{1,2}": "{1}", "{1,3}": "{2}", "{1,2,3}": "{1,2}"},
    )
    with pytest.raises(PosetOpsError):
        interval_subposet(B3, "{1}", "{2,3}")


def subset(label):
    return set(label.strip("{}").split(",")) - {""}


def second_kind_member_product(P, x):
    """Member x built the other way: the dual of the lower interval [0̂,x]
    times the upper interval [x,1̂]; the oracle of both routes of the ii
    suite."""
    lower = interval_subposet(P, P.bottom, x).dual()
    upper = interval_subposet(P, x, P.top)
    return direct_product(lower, upper)


def member_pairs(P):
    """Each "[u,v]" to "(u,v)": a second-kind member onto the dual lower
    interval times the upper interval."""
    return {interval_label(u, v): pair_label(u, v) for u in P.labels for v in P.labels}


def test_second_kind_transform_of_boolean_square():
    B2 = boolean_lattice(2)
    members = second_kind_transform(B2)
    assert len(members) == 4
    assert [x for x, _ in members] == list(B2.labels)
    # within the member at x, [u,v] is determined by v minus u
    differences = {
        interval_label(u, v): "{" + ",".join(sorted(subset(v) - subset(u))) + "}"
        for u in B2.labels
        for v in B2.labels
    }
    for x, member in members:
        assert len(member) == 4
        assert member.bottom == f"[{x},{x}]"
        assert member.top == "[{},{1,2}]"
        assert is_order_isomorphism(member, B2, differences)
        assert is_order_isomorphism(
            member, second_kind_member_product(B2, x), member_pairs(B2)
        )


def test_second_kind_member_sizes_on_boolean_cube():
    B3 = boolean_lattice(3)
    members = second_kind_transform(B3)
    sizes = sorted(len(m) for _, m in members)
    # |{intervals through x}| = 2**(3 - |x|) * 2**|x| = 8 for every x
    assert sizes == [8] * 8
    for x, member in members:
        assert is_order_isomorphism(
            member, second_kind_member_product(B3, x), member_pairs(B3)
        )


def label_diamond_product(P, Q):
    """The earlier diamond product, built from label pairs through the
    GradedPoset constructor; kept as the oracle of the index-cover route."""
    new_bottom = "0̂"
    keep_p = [p for p in P.labels if p != P.bottom]
    keep_q = [q for q in Q.labels if q != Q.bottom]
    labels = [new_bottom] + [pair_label(p, q) for p in keep_p for q in keep_q]
    covers = []
    for p in keep_p:
        for q in keep_q:
            if P.rank_of(p) == 1 and Q.rank_of(q) == 1:
                covers.append((new_bottom, pair_label(p, q)))
    for p_lo, p_hi in P.cover_pairs():
        if p_lo == P.bottom:
            continue
        for q in keep_q:
            covers.append((pair_label(p_lo, q), pair_label(p_hi, q)))
    for q_lo, q_hi in Q.cover_pairs():
        if q_lo == Q.bottom:
            continue
        for p in keep_p:
            covers.append((pair_label(p, q_lo), pair_label(p, q_hi)))
    return GradedPoset(labels, covers)


def pair_second_kind_transform(P):
    """The earlier second-kind members, each built on its own from the index
    pairs (i, j) with i <= x <= j; kept as the oracle of the upper-interval
    route."""
    members = []
    for x, label in enumerate(P.labels):
        above = list(posets._bits(P.up[x]))
        pairs = [(i, j) for i in posets._bits(P.down[x]) for j in above]
        member = GradedPoset._from_covers(
            posets._interval_labels(P, pairs), posets._interval_covers(P, pairs)
        )
        members.append((label, member))
    return members


def test_diamond_product_matches_the_label_route():
    checked = 0
    for (_, A), (_, B) in itertools.product(base_families(), repeat=2):
        if len(A) * len(B) <= SIZE_CAP:
            assert poset_to_dict(diamond_product(A, B)) == poset_to_dict(
                label_diamond_product(A, B)
            )
            checked += 1
    assert checked == 213  # of the 225 ordered pairs


def test_second_kind_members_match_the_pair_route():
    for _, P, _ in interval_ready_corpus(0):
        built = [(x, poset_to_dict(m)) for x, m in second_kind_transform(P)]
        oracle = [(x, poset_to_dict(m)) for x, m in pair_second_kind_transform(P)]
        assert built == oracle


@pytest.mark.parametrize(
    "build, size",
    [
        (interval_poset, 10),  # the intervals of the chain of rank 3
        (graded_interval_poset, 11),  # and the empty interval
        (second_kind_transform, 20),  # 1*4 + 2*3 + 3*2 + 4*1
        (lambda P: direct_product(P, P), 16),
        (lambda P: diamond_product(P, P), 10),  # 3 * 3 + a new bottom
    ],
)
def test_derived_posets_are_counted_against_the_cap(monkeypatch, build, size):
    P = chain_poset(3)
    monkeypatch.setattr(posets, "GENERATION_CAP", size)
    build(P)
    monkeypatch.setattr(posets, "GENERATION_CAP", size - 1)
    with pytest.raises(TooLarge, match=f"^{size} elements exceed the cap of {size - 1}$"):
        build(P)


def test_is_eulerian():
    assert is_eulerian(boolean_lattice(1))
    assert is_eulerian(boolean_lattice(3))
    assert is_eulerian(ladder_poset(3))
    assert is_eulerian(cube_lattice(2))
    assert is_eulerian(crosspolytope_lattice(2))
    assert not is_eulerian(chain_poset(2))
    assert not is_eulerian(chain_poset(4))
    # a chain of rank 1 is vacuously balanced
    assert is_eulerian(chain_poset(1))


def test_pell_numbers():
    assert [pell_number(n) for n in range(8)] == [0, 1, 2, 5, 12, 29, 70, 169]


def brute_force_support_count(P, support):
    I = interval_poset(P)
    want = set(support)
    pairs = [(u, v) for u in P.labels for v in P.labels if P.leq(u, v)]
    endpoints = {label: {u, v} for label, (u, v) in zip(I.labels, pairs)}
    count = 0
    for size in range(1, len(I) + 1):
        for combo in itertools.combinations(I.labels, size):
            if all(
                I.leq(x, y) or I.leq(y, x) for x, y in itertools.combinations(combo, 2)
            ):
                seen = set()
                for label in combo:
                    seen |= endpoints[label]
                if seen == want:
                    count += 1
    return count


def test_support_counts_match_brute_force():
    C2 = chain_poset(2)
    assert count_chains_with_support(C2, ["0", "1", "2"]) == 7
    assert brute_force_support_count(C2, ["0", "1", "2"]) == 7

    B2 = boolean_lattice(2)
    assert count_chains_with_support(B2, ["{}", "{1}", "{1,2}"]) == 7
    assert brute_force_support_count(B2, ["{}", "{1}", "{1,2}"]) == 7

    C1 = chain_poset(1)
    assert count_chains_with_support(C1, ["0", "1"]) == 3
    assert brute_force_support_count(C1, ["0", "1"]) == 3


def test_support_counts_follow_pell_sums():
    for m in range(1, 5):
        P = chain_poset(m)
        assert count_chains_with_support(P, [str(i) for i in range(m + 1)]) == (
            pell_number(m) + pell_number(m + 1)
        )


def test_support_count_on_ladder():
    L2 = ladder_poset(2)
    assert count_chains_with_support(L2, ["0̂", "+1", "1̂"]) == 7
    assert count_chains_with_support(L2, ["0̂", "-2", "1̂"]) == 7
    assert count_chains_with_support(L2, ["0̂", "1̂"]) == 3


def test_support_count_input_validation():
    B2 = boolean_lattice(2)
    with pytest.raises(NotAChain):
        count_chains_with_support(B2, [])
    with pytest.raises(NotAChain):
        count_chains_with_support(B2, ["{}", "{1}", "{1}", "{1,2}"])
    with pytest.raises(NotAChain):
        count_chains_with_support(B2, ["{}", "{1}", "{2}", "{1,2}"])
    with pytest.raises(NotAChain):
        count_chains_with_support(B2, ["{}", "nope", "{1,2}"])
    with pytest.raises(EndpointsNotExtreme):
        count_chains_with_support(B2, ["{}", "{1}"])
    with pytest.raises(EndpointsNotExtreme):
        count_chains_with_support(B2, ["{1}", "{1,2}"])


def test_subposet_keeps_induced_order():
    B2 = boolean_lattice(2)
    sub = induced_subposet(B2, ["{}", "{1}", "{1,2}"])
    assert sub.cover_pairs() == sorted([("{}", "{1}"), ("{1}", "{1,2}")])
    skip = induced_subposet(B2, ["{}", "{1,2}"])
    assert skip.cover_pairs() == [("{}", "{1,2}")]


def test_induced_subposet_recomputes_covers():
    B3 = boolean_lattice(3)
    sub = induced_subposet(B3, ["{}", "{1}", "{1,2}", "{1,2,3}"])
    assert isinstance(sub, GradedPoset)
    assert sub.rank_of("{1,2,3}") == 3
    assert sub.cover_pairs() == sorted(
        [("{}", "{1}"), ("{1}", "{1,2}"), ("{1,2}", "{1,2,3}")]
    )


def test_induced_subposet_rejects_ungradable_selection():
    B3 = boolean_lattice(3)
    with pytest.raises(NotGraded):
        induced_subposet(B3, ["{}", "{1}", "{1,2}", "{3}", "{1,2,3}"])
    with pytest.raises(NotBounded):
        induced_subposet(B3, ["{}", "{1}", "{2,3}"])


def test_induced_subposet_checks_labels():
    B2 = boolean_lattice(2)
    with pytest.raises(PosetOpsError):
        induced_subposet(B2, ["{}", "{4}"])
    with pytest.raises(PosetOpsError):
        induced_subposet(B2, ["{}", "{}", "{1,2}"])


def test_order_isomorphism_takes_the_named_maps_past_the_old_caps():
    # 244 and 90 elements; the search these replace stopped at 64 and 128
    J = graded_interval_poset(boolean_lattice(5))
    assert len(J) == 244
    assert is_order_isomorphism(J, cube_lattice(5), boolean_interval_faces(5))
    A, B = boolean_lattice(2), chain_poset(3)
    I = interval_poset(direct_product(A, B))
    assert len(I) == 90
    assert is_order_isomorphism(
        I, direct_product(interval_poset(A), interval_poset(B)), product_interval_map(A, B)
    )


def test_order_isomorphism_reads_the_map_not_the_labels():
    renamed = GradedPoset(
        ["w", "x", "y", "z"], [("w", "x"), ("w", "y"), ("x", "z"), ("y", "z")]
    )
    mapping = {"{}": "w", "{1}": "x", "{2}": "y", "{1,2}": "z"}
    assert is_order_isomorphism(boolean_lattice(2), renamed, mapping)
    # keys that are no label of the source are ignored
    assert is_order_isomorphism(boolean_lattice(2), renamed, {**mapping, "{3}": "w"})


def test_order_isomorphism_refuses_wrong_maps():
    J, cube = graded_interval_poset(boolean_lattice(2)), cube_lattice(2)
    faces = boolean_interval_faces(2)
    assert is_order_isomorphism(J, cube, faces)
    # not one to one
    assert not is_order_isomorphism(J, cube, {**faces, "[{},{}]": faces["[{1},{1}]"]})
    # two images swapped
    swapped = {**faces, "[{},{}]": faces["[{1},{1}]"], "[{1},{1}]": faces["[{},{}]"]}
    assert not is_order_isomorphism(J, cube, swapped)
    # * on S and 1 on T minus S
    flipped = {k: v.translate(str.maketrans("1*", "*1")) for k, v in faces.items()}
    assert not is_order_isomorphism(J, cube, flipped)
    # partial, and images outside the target
    partial = dict(faces)
    del partial["[{},{1,2}]"]
    assert not is_order_isomorphism(J, cube, partial)
    assert not is_order_isomorphism(J, cube, {**faces, "∅": "2*"})
    # a bijection that reverses the order
    B2 = boolean_lattice(2)
    assert not is_order_isomorphism(B2, B2.dual(), {x: x for x in B2.labels})
    # different sizes
    assert not is_order_isomorphism(B2, chain_poset(2), {"{}": "0", "{1}": "1", "{2}": "2"})


def test_poset_round_trip():
    B2 = boolean_lattice(2)
    data = poset_to_dict(B2)
    assert data["bottom"] == "{}"
    assert data["top"] == "{1,2}"
    assert data["rank"]["{1}"] == 1
    back = poset_from_dict(data)
    assert isinstance(back, GradedPoset)
    assert back.cover_pairs() == B2.cover_pairs()


def test_plain_poset_round_trip():
    P = elbow_poset()
    data = poset_to_dict(P)
    assert data["rank"] is None
    assert data["bottom"] is None
    assert data["top"] is None
    back = poset_from_dict(data)
    assert not isinstance(back, GradedPoset)
    assert back.cover_pairs() == P.cover_pairs()


def test_poset_from_dict_checks_stored_rank():
    data = poset_to_dict(boolean_lattice(2))
    data["rank"]["{1}"] = 2
    with pytest.raises(NotGraded):
        poset_from_dict(data)
    data = poset_to_dict(boolean_lattice(2))
    data["bottom"] = "{1}"
    with pytest.raises(NotBounded):
        poset_from_dict(data)
