import inspect
import itertools
import sys
import textwrap
from fractions import Fraction
from functools import reduce

import pytest

from posetops import flags, ncpoly, posets, verify
from posetops.complexes import SimplicialComplex, midpoint_label, stellar_subdivide
from posetops.errors import PosetOpsError
from posetops.flags import ab_index
from posetops.ncpoly import AB, CD, NCPoly, X
from posetops.posets import (
    Poset,
    boolean_lattice,
    chain_poset,
    count_chains_with_support,
    interval_poset,
    interval_subposet,
    second_kind_transform,
)
from posetops.verify import (
    SUITES,
    base_families,
    canonical,
    case,
    complex_corpus,
    corpus,
    edge_order_f_vectors,
    interval_ready_corpus,
    product_route_totals,
    random_bounded_subposets,
    run_suite,
    upset_route_total,
)
from test_flags import (
    _counted_work,
    _enumerated_flag_vector,
    _oracle_posets,
    _work_by_pairs,
    _work_posets,
)
from test_ncpoly import CE_IMAGES, substitute
from test_posets import eulerian_by_definition, second_kind_member_product

CASE_KEYS = {"description", "expected", "actual", "pass"}


def test_base_families_roster():
    named = base_families()
    assert len(named) == 15
    names = [name for name, _ in named]
    assert names.count("boolean 3") == 1
    assert names.count("cube 3") == 1
    assert "cube 4" not in names


def test_random_subposets_are_deterministic():
    first = random_bounded_subposets(0)
    second = random_bounded_subposets(0)
    assert [name for name, _ in first] == [name for name, _ in second]
    assert [P.cover_pairs() for _, P in first] == [P.cover_pairs() for _, P in second]
    other = random_bounded_subposets(1)
    assert [name for name, _ in other] == [
        f"random {k} from boolean 4 (seed 1)" for k in range(20)
    ]
    assert [sorted(P.labels) for _, P in first] != [sorted(P.labels) for _, P in other]


def test_corpus_composition():
    members = corpus(0)
    assert len(members) == 163
    names = [name for name, _ in members]
    assert len(set(names)) == len(names)
    assert "dual(ladder 2)" in names
    assert "boolean 1 x boolean 1" in names
    products = [(name, P) for name, P in members if " x " in name]
    assert len(products) == 113
    assert all(len(P.labels) <= 200 for _, P in products)
    randoms = [name for name in names if name.startswith("random ")]
    assert len(randoms) == 20


def test_interval_ready_filter():
    ready = {name: P for name, P, _ in interval_ready_corpus(0)}
    full = dict(corpus(0))
    assert "boolean 2 x boolean 4" in full
    assert "boolean 2 x boolean 4" not in ready
    assert "chain 1 x cube 3" in ready
    assert all(
        P.top_rank <= 5 and len(P.labels) <= 200 for P in ready.values()
    )


@pytest.mark.parametrize("seed", [0, 1])
def test_every_corpus_member_fits_the_size_cap(seed):
    # products are capped where they are built and no other member comes
    # near the cap, so interval_ready_corpus filters on rank alone
    assert [name for name, P in corpus(seed) if len(P.labels) > verify.SIZE_CAP] == []


def test_complex_corpus_stays_small():
    named = complex_corpus()
    assert len(named) == 9
    assert all(len(K.edges()) <= 6 for _, K in named)


def test_canonical_forms():
    # x-polynomials take the coefficient-list form, zeros included
    p = NCPoly(X, {"": Fraction(-3, 6), "xx": 1})
    assert canonical(p) == {"coeffs": [[-1, 2], [0, 1], [1, 1]]}
    x = NCPoly(X, {"x": Fraction(1, 1)})
    assert canonical([x, 2]) == [{"coeffs": [[0, 1], [1, 1]]}, 2]
    poly = NCPoly(AB, {"ab": Fraction(2)})
    assert canonical(poly) == canonical(NCPoly(AB, {"ab": Fraction(4, 2)}))


def test_case_compares_canonical_forms():
    good = case("same value", {"x": Fraction(1, 2)}, {"x": Fraction(2, 4)})
    assert set(good) == CASE_KEYS
    assert good["pass"]
    bad = case("off by one", 1, 2)
    assert not bad["pass"]
    assert bad["expected"] == 1 and bad["actual"] == 2


def test_run_suite_ladder_passes():
    report = run_suite("ladder")
    assert report["suite"] == "ladder"
    assert report["summary"]["total"] == len(report["cases"])
    assert report["summary"]["failed"] == 0
    assert report["summary"]["passed"] == report["summary"]["total"]
    assert all(set(entry) == CASE_KEYS for entry in report["cases"])


def test_run_suite_rejects_unknown_name():
    with pytest.raises(PosetOpsError):
        run_suite("no-such-suite")


def test_suite_roster_matches_cli_contract():
    assert list(SUITES) == [
        "iota",
        "jojic-ab",
        "jojic-cd",
        "ii",
        "mixing",
        "delannoy",
        "ladder",
        "pell",
        "tcheb-triangulation",
        "typeb",
        "eigen",
    ]


def test_eigen_suite_reports_the_two_known_lift_failures():
    report = run_suite("eigen")
    failing = [entry for entry in report["cases"] if not entry["pass"]]
    assert len(failing) == 2
    texts = sorted(entry["description"] for entry in failing)
    assert all("lift" in text for text in texts)
    assert "boolean 3" in texts[0]
    assert "boolean 4" in texts[1]


def test_eigen_measurements_fail_when_any_measured_field_is_off(monkeypatch):
    # the expected side is frozen, so no field is compared with itself
    reports = verify.eigen_experiments(6)
    for field in reports[0]:
        off = list(
            {**rep, field: not value if type(value) is bool else value + 1}
            for rep in reports
            for value in [rep[field]]
        )
        monkeypatch.setattr(verify, "eigen_experiments", lambda max_n: off)
        measured = [
            c for c in verify.eigen_cases()
            if isinstance(c["actual"], dict) and "kernel_dim" in c["actual"]
        ]
        assert len(measured) == 6 and not any(c["pass"] for c in measured), field


def f_vectors_by_permutation(K, subdivide):
    """The oracle: fold subdivide over every order of the edges of K."""
    return {
        tuple(reduce(subdivide, order, K).f_vector())
        for order in itertools.permutations(K.edges())
    }


def test_level_walk_finds_the_f_vectors_of_every_edge_order(monkeypatch):
    calls = {}

    def counted(K, edge):
        calls[name] = calls.get(name, 0) + 1
        return stellar_subdivide(K, edge)

    monkeypatch.setattr(verify, "stellar_subdivide", counted)
    for name, K in complex_corpus():
        assert edge_order_f_vectors(K) == f_vectors_by_permutation(K, stellar_subdivide)
    # one subdivision per distinct complex and edge left, against the
    # 1,956 nonempty prefixes of the 720 orders of six edges
    assert calls["a solid tetrahedron"] == 876
    assert calls["the hexagon boundary"] == 192
    assert sum(calls.values()) == 1293


def test_level_walk_sees_a_subdivision_that_depends_on_the_order(monkeypatch):
    # the fault: a midpoint at a, u or v0 loses its faces with older midpoints
    def faulty(K, edge):
        L = stellar_subdivide(K, edge)
        if not {"a", "u", "v0"} & set(edge):
            return L
        new = midpoint_label(*edge)
        return SimplicialComplex(
            f for f in L.faces
            if not (new in f and any(x != new and x.startswith("mid(") for x in f))
        )

    monkeypatch.setattr(verify, "stellar_subdivide", faulty)
    sizes = {}
    for name, K in complex_corpus():
        by_permutation = f_vectors_by_permutation(K, faulty)
        assert edge_order_f_vectors(K) == by_permutation, name
        sizes[name] = len(by_permutation)
    assert {name: n for name, n in sizes.items() if n > 1} == {
        "a solid triangle": 2,
        "two triangles sharing an edge": 2,
        "a solid tetrahedron": 5,
    }


def test_support_chain_recursion_agrees_with_the_closed_form():
    # the two routes the pell suite compares, on full supports of chains
    for m in range(1, 13):
        support = [str(i) for i in range(m + 1)]
        closed = count_chains_with_support(chain_poset(m), support)
        assert verify._support_chain_count(m) == closed, m


def test_pell_suite_fails_exactly_the_lengths_its_recursion_miscounts(monkeypatch):
    recursion = verify._support_chain_count
    monkeypatch.setattr(
        verify, "_support_chain_count", lambda m: recursion(m) + (m == 3)
    )
    cases = verify.support_count_cases(0)
    failed = [c["description"] for c in cases if not c["pass"]]
    # P(m) + P(m+1) differs for each m, and the actual side does not read the recursion
    length_3 = [c["description"] for c in cases if c["actual"] == [17]]
    assert length_3 and failed == length_3


def test_pell_suite_fails_every_corpus_case_without_containments(monkeypatch):
    def no_containments(P):
        I = interval_poset(P)
        return Poset._from_covers(I.labels, [[] for _ in I.labels])

    monkeypatch.setattr(verify, "interval_poset", no_containments)
    cases = verify.support_count_cases(0)
    # the corpus cases are the ones that compare lists of counts
    corpus_cases = [c for c in cases if isinstance(c["expected"], list)]
    assert corpus_cases and not any(c["pass"] for c in corpus_cases)


# -- the two routes of the ii suite ----------------------------------------------


def summed_index(members) -> NCPoly:
    return sum(map(ab_index, members), NCPoly(AB))


def factor_keys(P) -> list:
    """For each x of P, the ranks and down-sets of [0̂,x] and [x,1̂]."""
    cuts = [(interval_subposet(P, P.bottom, x), interval_subposet(P, x, P.top)) for x in P.labels]
    return [(lo.rank, lo.down, up.rank, up.down) for lo, up in cuts]


@pytest.mark.parametrize("seed", [0, 1])
def test_upset_route_is_the_summed_index_of_the_built_members(seed):
    for name, P, G in interval_ready_corpus(seed):
        members = [m for _, m in second_kind_transform(P)]
        assert upset_route_total(G) == summed_index(members), name


@pytest.mark.parametrize("seed", [0, 1])
def test_product_route_weights_each_distinct_product_by_its_elements(monkeypatch, seed):
    # the corpus is built before the counting starts: it makes products too
    ready = [(name, P) for name, P, _ in interval_ready_corpus(seed)]
    built, cuts = [], []
    product, cut = verify.direct_product, verify.interval_subposet
    monkeypatch.setattr(verify, "direct_product", lambda A, B: built.append(1) or product(A, B))
    monkeypatch.setattr(verify, "interval_subposet", lambda *a: cuts.append(1) or cut(*a))
    totals = product_route_totals([P for _, P in ready])
    for (name, P), total in zip(ready, totals, strict=True):
        members = [second_kind_member_product(P, x) for x in P.labels]
        assert total == summed_index(members), name
    distinct = {key for _, P in ready for key in factor_keys(P)}
    assert len(built) == len(distinct) == {0: 264, 1: 268}[seed]
    # each distinct lower factor is cut out once, and so is each distinct upper one
    lowers = {(lo_rank, lo_down) for lo_rank, lo_down, _, _ in distinct}
    uppers = {(up_rank, up_down) for _, _, up_rank, up_down in distinct}
    assert len(cuts) == len(lowers) + len(uppers) == {0: 169, 1: 173}[seed]


@pytest.mark.parametrize("seed", [0, 1])
def test_the_order_key_tells_apart_exactly_the_cut_subposets(seed):
    # the key is read off P's masks; the cut subposets' ranks and down-sets
    # must determine it and be determined by it
    pairs = {}
    for _, P, _ in interval_ready_corpus(seed):
        for x, cut in enumerate(factor_keys(P)):
            key = verify._order_key(P, P.down[x]), verify._order_key(P, P.up[x])
            assert pairs.setdefault(key, cut) == cut
    assert len(set(pairs.values())) == len(pairs)


def mutant(monkeypatch, function, old: str, new: str) -> None:
    """Put into function's module a copy of function with `old` in its
    source read as `new`; callers that look the name up there then call the
    copy."""
    module = sys.modules[function.__module__]
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1
    namespace = dict(vars(module))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(module, function.__name__, namespace[function.__name__])


def failing(cases, route: str) -> list:
    return [c["description"] for c in cases if route in c["description"] and not c["pass"]]


def test_ii_suite_fails_when_the_upset_route_deletes_the_last_letter(monkeypatch):
    mutant(monkeypatch, upset_route_total, "word[1:]", "word[:-1]")
    cases = verify.second_kind_corpus_cases(0)
    assert len(failing(cases, "via up-sets")) == 90  # of 103
    assert failing(cases, "via dual-lower") == []


def test_ii_suite_fails_when_the_product_route_drops_the_weights(monkeypatch):
    mutant(monkeypatch, product_route_totals, "scaled(count)", "scaled(1)")
    cases = verify.second_kind_corpus_cases(0)
    # the members with two elements whose factor pairs are equal
    shared = [
        f"{name}: summed member index via dual-lower times upper products"
        for name, P, _ in interval_ready_corpus(0)
        if len(set(factor_keys(P))) < len(P)
    ]
    assert shared and failing(cases, "via dual-lower") == shared
    assert failing(cases, "via up-sets") == []


def test_ii_suite_fails_when_the_product_route_keys_the_lower_factor_alone(monkeypatch):
    mutant(monkeypatch, product_route_totals, "key = lower, upper", "key = lower")
    cases = verify.second_kind_corpus_cases(0)
    assert failing(cases, "via dual-lower") and failing(cases, "via up-sets") == []


# -- planted faults in the fast paths, each against its oracle --------------------


def test_is_eulerian_with_the_parity_mask_inverted_misjudges_chains(monkeypatch):
    # the inverted mask counts only the odd lengths, which the chains balance
    same = "even_mask if P.rank[i] % 2 == 0 else ~even_mask"
    flipped = "~even_mask if P.rank[i] % 2 == 0 else even_mask"
    mutant(monkeypatch, posets.is_eulerian, same, flipped)
    wrong = {
        name
        for name, P in _oracle_posets()
        if posets.is_eulerian(P) != eulerian_by_definition(P)
    }
    assert {"chain 3", "chain 5", "chain 7"} <= wrong


def test_work_count_that_keeps_the_top_in_the_up_sets_is_caught(monkeypatch):
    monkeypatch.setattr(flags, "FLAG_WORK_CAP", -1)
    mutant(monkeypatch, flags.flag_f_vector, "bit_count() - 2", "bit_count() - 1")
    wrong = [name for name, P in _work_posets() if _counted_work(P) != _work_by_pairs(P)]
    assert "cube 3 x cube 3" in wrong and "ladder 1" in wrong


def test_flag_counts_in_one_byte_lanes_carry_out_of_the_packed_int(monkeypatch):
    width = "(sum(layer.bit_count().bit_length() for layer in layers) + 8) // 8"
    mutant(monkeypatch, flags._flag_counts, width, "1")
    B5, B6 = boolean_lattice(5), boolean_lattice(6)
    assert flags.flag_f_vector(B5) == _enumerated_flag_vector(B5)  # at most 5! = 120
    # every chain extends to a maximal one, so the top lane holds the largest
    # count, here 6! = 720, and its carry leaves the bytes of the lanes
    with pytest.raises(OverflowError):
        flags.flag_f_vector(B6)


def test_ce_conversion_with_the_divisor_off_by_one_misses_substitution(monkeypatch):
    mutant(monkeypatch, ncpoly.cd_ce_convert, "scale << pairs", "scale << pairs + 1")
    for word in ("d", "cdc", "dd"):
        p = NCPoly(CD, {word: 1})
        assert ncpoly.cd_ce_convert(p) != substitute(p, CE_IMAGES), word


def test_the_suites_build_one_interval_poset_per_ready_member(monkeypatch):
    built = []
    build = verify.graded_interval_poset
    monkeypatch.setattr(verify, "graded_interval_poset", lambda P: built.append(P) or build(P))
    verify._interval_ready.cache_clear()
    for suite in ("iota", "jojic-ab", "jojic-cd", "ii", "typeb"):
        SUITES[suite](0)
    ready = [P for _, P, _ in interval_ready_corpus(0)]
    assert len(ready) == 103
    members = [P for P in built if any(P is Q for Q in ready)]
    assert sorted(map(id, members)) == sorted(map(id, ready))
    # the rest are the boolean lattices whose interval posets typeb checks
    assert len(built) - len(members) == 7


def test_the_suites_judge_each_ready_member_eulerian_once(monkeypatch):
    judged = []
    judge = verify.is_eulerian
    monkeypatch.setattr(verify, "is_eulerian", lambda P: judged.append(P) or judge(P))
    verify._eulerian_ready.cache_clear()
    for suite in ("jojic-cd", "typeb"):
        SUITES[suite](0)
    ready = [P for _, P, _ in interval_ready_corpus(0)]
    members = [P for P in judged if any(P is Q for Q in ready)]
    assert sorted(map(id, members)) == sorted(map(id, ready))
    # the rest are the interval posets of the Eulerian members, which typeb judges
    eulerian = [G for _, _, G in verify._eulerian_ready(0)]
    assert sorted(map(id, judged[len(ready) :])) == sorted(map(id, eulerian))
