"""Named verification suites pitting every operator against brute force.

Each suite returns a report dict with one entry per check.  A check
compares an independently enumerated value (the expected side) with the
operator or closed form under test (the actual side); both sides are
canonicalized before the comparison, so a pass means byte-for-byte equal
serialized forms.

The poset corpus is deterministic: the standard families, their duals,
pairwise direct products under a size cap, and twenty pseudo-random
bounded subposets of the rank-4 subset lattice drawn from a seeded
generator.
"""

from __future__ import annotations

import itertools
import random
from functools import cache, partial

from .complexes import (
    F_polynomial,
    SimplicialComplex,
    cheb_transform_T,
    link,
    order_complex,
    stellar_subdivide,
    tchebyshev_triangulation,
    univariate_to_dict,
    vertex_link_transform,
)
from .errors import NotBounded, NotGraded, PosetOpsError
from .flags import ab_index, cd_index, upsilon
from .ncpoly import (
    AB,
    CD,
    CE,
    NCPoly,
    X,
    _accumulate,
    asym_basis,
    cd_ce_convert,
    cd_words,
    expand_cd,
    expand_cd_word,
    monomial,
    to_dict as poly_to_dict,
    unit,
)
from .operators import (
    ab_interval_transform,
    cd_interval_transform,
    ce_word_count,
    delannoy_ce_coefficient,
    delannoy_mixing,
    eigen_experiments,
    ladder_interval_coefficient,
    ladder_second_kind_ce_coefficient,
    ladder_second_kind_coefficient,
    lift,
    mixing_ab,
    mixing_cd,
    second_kind_ab_transform,
    second_kind_cd_transform,
    upsilon_interval_transform,
)
from .posets import (
    EMPTY_INTERVAL,
    GradedPoset,
    Poset,
    _bits,
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
    second_kind_transform,
)

SIZE_CAP = 200


# -- the corpus -----------------------------------------------------------------


# (family, largest n) of the base families, in corpus order
_FAMILIES = (("boolean", 4), ("ladder", 4), ("chain", 4), ("cube", 3))


def base_families() -> list:
    """The standard graded posets every suite starts from."""
    return [
        (f"{kind} {n}", generate(kind, n))
        for kind, largest in _FAMILIES
        for n in range(1, largest + 1)
    ]


def _capped_pairs() -> list:
    """The pairs of base families whose direct product fits SIZE_CAP."""
    pairs = itertools.combinations_with_replacement(base_families(), 2)
    return [(a, b) for a, b in pairs if len(a[1].labels) * len(b[1].labels) <= SIZE_CAP]


def random_bounded_subposets(seed: int) -> list:
    """Twenty bounded graded subposets of the rank-4 subset lattice.

    Interior elements are kept independently with probability 0.6; draws
    that break gradedness are rejected and redrawn, so the stream is a
    deterministic function of the seed.
    """
    rng = random.Random(seed)
    big = boolean_lattice(4)
    interior = [x for x in big.labels if x not in (big.bottom, big.top)]
    out = []
    for k in range(20):
        while True:
            keep = [x for x in interior if rng.random() < 0.6]
            try:
                P = induced_subposet(big, [big.bottom] + keep + [big.top])
            except (NotGraded, NotBounded):
                continue
            out.append((f"random {k} from boolean 4 (seed {seed})", P))
            break
    return out


def corpus(seed: int = 0) -> list:
    """Named corpus: families, duals, capped products, random subposets."""
    return list(_corpus(seed))


@cache
def _corpus(seed: int) -> tuple:
    named = base_families()
    out = list(named)
    out += [(f"dual({name})", P.dual()) for name, P in named]
    out += [(f"{na} x {nb}", direct_product(A, B)) for (na, A), (nb, B) in _capped_pairs()]
    out += random_bounded_subposets(seed)
    return tuple(out)


def interval_ready_corpus(seed: int = 0) -> list:
    """(name, P, the bottomed interval poset of P) for the corpus members of
    rank at most 5, small enough for interval-poset enumeration (every member
    already has at most SIZE_CAP elements); built once per process."""
    return list(_interval_ready(seed))


@cache
def _interval_ready(seed: int) -> tuple:
    return tuple(
        (name, P, graded_interval_poset(P)) for name, P in corpus(seed) if P.top_rank <= 5
    )


_COMPLEX_FACETS = {
    "a point": [["p"]],
    "one edge": [["u", "v"]],
    "a path of two edges": [["u", "v"], ["v", "w"]],
    "the triangle boundary": [["u", "v"], ["v", "w"], ["u", "w"]],
    "a solid triangle": [["u", "v", "w"]],
    "the square boundary": [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]],
    "two triangles sharing an edge": [["u", "v", "w"], ["v", "w", "x"]],
    "the hexagon boundary": [[f"v{i}", f"v{(i + 1) % 6}"] for i in range(6)],
    "a solid tetrahedron": [["a", "b", "c", "d"]],
}


def complex_corpus() -> list:
    """Small named complexes, every one with at most six edges."""
    return [
        (name, SimplicialComplex.from_facets(facets))
        for name, facets in _COMPLEX_FACETS.items()
    ]


# -- report plumbing ------------------------------------------------------------


def canonical(value):
    """JSON-ready canonical form used for exact case comparison."""
    if isinstance(value, NCPoly):
        return univariate_to_dict(value) if value.alphabet == X else poly_to_dict(value)
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return value


def case(description: str, expected, actual) -> dict:
    expected = canonical(expected)
    actual = canonical(actual)
    return {
        "description": description,
        "expected": expected,
        "actual": actual,
        "pass": expected == actual,
    }


# -- interval transforms ----------------------------------------------------------


def iota_example_cases() -> list:
    """Frozen values of the flag-word interval transform on short words."""
    frozen = [
        ("a", {"aa": 1, "ba": 2}),
        ("b", {"ab": 2, "ba": 1, "bb": 4}),
        ("ab", {"aab": 1, "aba": 1, "baa": 1, "bab": 2, "bba": 2}),
        ("ba", {"aab": 1, "aba": 1, "baa": 1, "bab": 2, "bba": 2}),
        ("bb", {"aba": 1, "abb": 4, "bab": 2, "bba": 2, "bbb": 8}),
    ]
    return [
        case(
            f"flag-word interval transform of {word}",
            NCPoly(AB, terms),
            upsilon_interval_transform(monomial(AB, word)),
        )
        for word, terms in frozen
    ]


def interval_corpus_cases(seed: int, index, transform, index_name: str) -> list:
    """An index of every manageable bottomed interval poset, both routes:
    enumerated on the interval poset, and `transform` of the poset's index.
    The cd-index is taken only of the Eulerian members, the ones that have
    one."""
    return [
        case(
            f"{name}: {index_name} of the bottomed interval poset",
            index(G),
            transform(index(P)),
        )
        for name, P, G in interval_ready_corpus(seed)
        if index is not cd_index or is_eulerian(P)
    ]


def interval_cd_cases(seed: int = 0) -> list:
    """cd-level interval transform against the ab route and raw posets."""
    cases = [
        case(
            f"cd interval transform of {word or 'the empty word'} expands to the ab one",
            ab_interval_transform(expand_cd_word(word)),
            expand_cd(cd_interval_transform(monomial(CD, word))),
        )
        for total in range(5)
        for word in cd_words(total)
    ]
    return cases + interval_corpus_cases(seed, cd_index, cd_interval_transform, "cd-index")


# -- second-kind transform ---------------------------------------------------------


def second_kind_corpus_cases(seed: int = 0) -> list:
    """Total ab-index over second-kind members, two poset routes each."""
    members = interval_ready_corpus(seed)
    product_totals = product_route_totals([P for _, P, _ in members])
    cases = []
    for (name, P, G), product_total in zip(members, product_totals):
        operator_value = second_kind_ab_transform(ab_index(P))
        for route, total in (
            ("up-sets in the interval poset", upset_route_total(G)),
            ("dual-lower times upper products", product_total),
        ):
            cases.append(
                case(f"{name}: summed member index via {route}", total, operator_value)
            )
    return cases


def upset_route_total(G: GradedPoset) -> NCPoly:
    """The summed ab-index of the second-kind members, read off the bottomed
    interval poset G.  A chain of G through the atom [x,x] is that atom and a
    chain of member x one rank up: the members' flag words are those of G
    that start with b, that b deleted.  Under a -> a-b a leading b stays and
    a leading a becomes a-b, so reading both letters as 1 gives the sum."""
    terms = ((word[1:], c) for word, c in ab_index(G).terms.items())
    return NCPoly._wrap(AB, _accumulate({}, terms))


def product_route_totals(members) -> list:
    """For each P, the summed ab-index of dual([0̂,x]) x [x,1̂] over its x.
    Factor pairs with equal ranks and down-sets give equal products, so each
    distinct pair is multiplied and indexed once, weighted by its x.  A pair
    is keyed off P's masks and cut out of P only for a key not seen before."""
    index = {}
    totals = []
    for P in members:
        weight = {}
        for x, label in enumerate(P.labels):
            key = _order_key(P, P.down[x]), _order_key(P, P.up[x])
            if key not in index:
                lower = interval_subposet(P, P.bottom, label)
                upper = interval_subposet(P, label, P.top)
                index[key] = ab_index(direct_product(lower.dual(), upper))
            _accumulate(weight, [(key, 1)])
        terms = (index[key].scaled(count) for key, count in weight.items())
        totals.append(sum(terms, NCPoly(AB)))
    return totals


def _order_key(P: GradedPoset, mask: int) -> tuple:
    """The interval of P on mask, cut out as a poset, up to the numbering of
    its elements: their lower covers as masks of their positions in mask.
    The covers fix the down-sets and the ranks, and are fixed by them."""
    kept = list(_bits(mask))
    position = {k: 1 << p for p, k in enumerate(kept)}.get
    return tuple(sum(position(j, 0) for j in P.covers_down[k]) for k in kept)


# -- mixing ------------------------------------------------------------------------


def mixing_word_cases() -> list:
    """Definition route against the cd recursion, plus symmetry."""
    cases = [
        case(
            "mixing two empty words gives c",
            monomial(CD, "c"),
            mixing_cd(unit(CD), unit(CD)),
        )
    ]
    pairs = [
        (u, v, f"({u or '1'}, {v or '1'})")
        for i in range(6) for j in range(6 - i) for u in cd_words(i) for v in cd_words(j)
    ]
    for u, v, shown in pairs:
        cases.append(
            case(
                f"mixing of {shown}: cd recursion expands to the definition",
                mixing_ab(expand_cd_word(u), expand_cd_word(v)),
                expand_cd(mixing_cd(monomial(CD, u), monomial(CD, v))),
            )
        )
    for u, v, shown in pairs:
        if u < v:
            cases.append(
                case(
                    f"mixing is symmetric on {shown}",
                    mixing_cd(monomial(CD, u), monomial(CD, v)),
                    mixing_cd(monomial(CD, v), monomial(CD, u)),
                )
            )
    return cases


def mixing_poset_cases() -> list:
    """Mixing of two ab-indices against the index of the direct product."""
    return [
        case(
            f"ab-index of {na} x {nb} is the mixing of the factor indices",
            ab_index(direct_product(A, B)),
            mixing_ab(ab_index(A), ab_index(B)),
        )
        for (na, A), (nb, B) in _capped_pairs()
    ]


def product_interval_map(A: Poset, B: Poset) -> dict:
    """The map [(a,b),(a',b')] -> ([a,a'],[b,b']) on the intervals of A x B,
    with the empty interval going to the new bottom 0̂.  It takes I(A x B)
    onto I(A) x I(B), the bottomed interval poset of A x B onto the diamond
    product of the factors' bottomed interval posets, and the second-kind
    member at (p, q) onto the product of the factors' members at p and q."""
    mapping = {EMPTY_INTERVAL: "0̂"}
    for a, a2 in itertools.product(A.labels, repeat=2):
        for b, b2 in itertools.product(B.labels, repeat=2):
            if A.leq(a, a2) and B.leq(b, b2):
                mapping[interval_label(pair_label(a, b), pair_label(a2, b2))] = (
                    pair_label(interval_label(a, a2), interval_label(b, b2))
                )
    return mapping


def product_law_cases() -> list:
    """Interval and second-kind constructions split over direct products,
    each through the map of `product_interval_map`."""
    factors = ("boolean 1", "boolean 2", "chain 1", "chain 2")
    small = [(name, P) for name, P in base_families() if name in factors]
    cases = []
    for (na, A), (nb, B) in itertools.combinations_with_replacement(small, 2):
        prod = direct_product(A, B)
        mapping = product_interval_map(A, B)
        cases.append(
            case(
                f"interval poset of {na} x {nb} is the product of interval posets",
                True,
                is_order_isomorphism(
                    interval_poset(prod),
                    direct_product(interval_poset(A), interval_poset(B)),
                    mapping,
                ),
            )
        )
        cases.append(
            case(
                f"bottomed interval poset of {na} x {nb} is the bounded product "
                "of the factors' bottomed interval posets",
                True,
                is_order_isomorphism(
                    graded_interval_poset(prod),
                    diamond_product(
                        graded_interval_poset(A), graded_interval_poset(B)
                    ),
                    mapping,
                ),
            )
        )
        members_prod = dict(second_kind_transform(prod))
        members_a = dict(second_kind_transform(A))
        members_b = dict(second_kind_transform(B))
        mismatched = []
        for p in A.labels:
            for q in B.labels:
                combined = direct_product(members_a[p], members_b[q])
                if not is_order_isomorphism(
                    members_prod[pair_label(p, q)], combined, mapping
                ):
                    mismatched.append(pair_label(p, q))
        cases.append(
            case(
                f"second-kind members of {na} x {nb} split memberwise",
                [],
                mismatched,
            )
        )
    return cases


# -- weighted lattice paths ----------------------------------------------------------


def _ce_words(degree: int, pairs: int) -> list:
    """The ce-words of the given degree with that many ee pairs: the
    cd-words with that many d's, each d read as ee."""
    return [w.replace("d", "ee") for w in cd_words(degree) if w.count("d") == pairs]


def _ce_pattern(degree: int, coefficient) -> NCPoly:
    """The ce-polynomial of the given degree whose words with r ee pairs
    have the coefficient coefficient(r)."""
    pairs = range(degree // 2 + 1)
    return NCPoly(CE, {w: coefficient(r) for r in pairs for w in _ce_words(degree, r)})


def delannoy_cases() -> list:
    """Path-weighted mixing of c-powers: values, ce coefficients, recurrence."""
    cases = []
    mixed = {}
    for i in range(6):
        for j in range(6):
            mixed[i, j] = mixing_cd(monomial(CD, "c" * i), monomial(CD, "c" * j))
            cases.append(
                case(
                    f"mixing of c^{i} and c^{j} via weighted lattice paths",
                    mixed[i, j],
                    delannoy_mixing(i, j),
                )
            )
    cases += [
        case(
            f"ce form of the mixing of c^{i} and c^{j} follows the binomial pattern",
            cd_ce_convert(mixed[i, j]),
            _ce_pattern(i + j + 1, partial(delannoy_ce_coefficient, i, j)),
        )
        for i, j in mixed
    ]
    two_d_minus_cc = NCPoly(CD, {"d": 2, "cc": -1})
    for i in range(5):
        for j in range(5):
            recurrence = (
                (mixed[i, j + 1] + mixed[i + 1, j]) * monomial(CD, "c")
                + mixed[i, j] * two_d_minus_cc
            )
            cases.append(
                case(
                    f"two-variable recurrence at c^{i + 1}, c^{j + 1}",
                    mixed[i + 1, j + 1],
                    recurrence,
                )
            )
    return cases


# -- two-wide towers -------------------------------------------------------------


def _cd_word_runs(word: str) -> tuple:
    return tuple(len(block) for block in word.split("d"))


def ladder_cases() -> list:
    """Closed forms for interval and second-kind transforms of c-powers."""
    cases = []
    # (name, transform, closed form, degree raise)
    transforms = (
        ("interval", cd_interval_transform, ladder_interval_coefficient, 1),
        ("second-kind", second_kind_cd_transform, ladder_second_kind_coefficient, 0),
    )
    for kind, transform, coefficient, rise in transforms:
        for n in range(1, 7):
            cases.append(
                case(
                    f"{kind} transform of c^{n} matches the run-product closed form",
                    transform(monomial(CD, "c" * n)),
                    NCPoly(CD, {
                        word: coefficient(n, _cd_word_runs(word))
                        for word in cd_words(n + rise)
                    }),
                )
            )
    for n in range(1, 7):
        pairs = range(n // 2 + 1)
        cases.append(
            case(
                f"ce form of the second-kind transform of c^{n} is a signed "
                "power pattern",
                cd_ce_convert(second_kind_cd_transform(monomial(CD, "c" * n))),
                _ce_pattern(n, partial(ladder_second_kind_ce_coefficient, n)),
            )
        )
        cases.append(
            case(
                f"ce word count at degree {n} follows the binomial count",
                True,
                all(len(_ce_words(n, r)) == ce_word_count(n, r) for r in pairs),
            )
        )
    for n in range(1, 4):
        tower = ladder_poset(n)
        cases.append(
            case(
                f"raw enumeration: cd-index of the bottomed interval poset of "
                f"ladder {n}",
                cd_index(graded_interval_poset(tower)),
                cd_interval_transform(monomial(CD, "c" * n)),
            )
        )
        cases.append(
            case(
                f"raw enumeration: summed second-kind member index of ladder {n}",
                sum((ab_index(m) for _, m in second_kind_transform(tower)), NCPoly(AB)),
                expand_cd(second_kind_cd_transform(monomial(CD, "c" * n))),
            )
        )
    ce_totals = {
        n: cd_ce_convert(second_kind_cd_transform(monomial(CD, "c" * n))).coefficient_total()
        for n in range(1, 9)
    }
    cases += [
        case(f"total ce weight at degree {n} is 2(n+1)", 2 * (n + 1), total)
        for n, total in ce_totals.items()
    ]
    cases.append(case("total ce weight at degree 4 is 10", 10, ce_totals[4]))
    return cases


# -- nested interval chains --------------------------------------------------------


def _support_chain_count(m: int) -> int:
    """Chains of nested intervals over a fixed (m+1)-chain that use every
    chain element as an endpoint, counted by innermost interval and
    outward extension."""
    full = (1 << (m + 1)) - 1
    count = 0
    for i in range(m + 1):
        for j in range(i, m + 1):
            count += _extensions(m, i, j, full & ~(1 << i) & ~(1 << j))
    return count


@cache
def _extensions(m: int, i: int, j: int, needed: int) -> int:
    """Chains of nested intervals over the (m+1)-chain with innermost
    interval [i, j] whose other endpoints cover the elements of the mask
    needed."""
    total = 1 if needed == 0 else 0
    for k in range(i, -1, -1):
        for l in range(j, m + 1):
            if (k, l) != (i, j):
                total += _extensions(m, k, l, needed & ~(1 << k) & ~(1 << l))
    return total


def _interval_support_count(I: Poset, support) -> int:
    """Nonempty chains of the interval poset I whose endpoint set is exactly
    the support, by a DP over the intervals between support elements in
    containment order, keyed by the endpoint mask of each chain."""
    m = len(support) - 1
    endpoints = {
        I.index[interval_label(support[i], support[j])]: 1 << i | 1 << j
        for i in range(m + 1)
        for j in range(i, m + 1)
    }
    done = []
    for t in sorted(endpoints, key=lambda t: I.down[t].bit_count()):
        topped = {endpoints[t]: 1}
        for s, below in done:
            if I.down[t] >> s & 1:
                pairs = ((mask | endpoints[t], count) for mask, count in below.items())
                _accumulate(topped, pairs)
        done.append((t, topped))
    full = (1 << (m + 1)) - 1
    return sum(topped.get(full, 0) for _, topped in done)


def support_count_cases(seed: int = 0) -> list:
    """Chains of nested intervals with full support follow the Pell pattern.

    For each corpus member and each length m up to min(rank, 6) one support
    is taken: the bottom, the first m - 1 elements of a maximal chain, and
    the top.  The recursion over a chain of length m is checked against the
    closed form that `count_chains_with_support` returns and against a
    count on the member's own interval poset."""
    cases = [
        case(
            f"rank-{n} chain: nested-interval chains over the full support",
            count,
            count_chains_with_support(chain_poset(n), [str(i) for i in range(n + 1)]),
        )
        for n, count in ((1, 3), (2, 7))
    ]
    for name, P in corpus(seed):
        I = interval_poset(P)
        chain = [P.bottom_index]
        for m in range(1, min(P.top_rank, 6) + 1):
            support = [P.labels[i] for i in chain] + [P.top]
            cases.append(
                case(
                    f"{name}: the support along one bottom-to-top chain of length {m} "
                    f"carries P({m}) + P({m + 1}) nested-interval chains",
                    [_support_chain_count(m)],
                    sorted({
                        count_chains_with_support(P, support),
                        _interval_support_count(I, support),
                    }),
                )
            )
            chain.append(P.covers_up[chain[-1]][0])
    return cases


# -- edgewise subdivisions -----------------------------------------------------------


def edge_order_f_vectors(K: SimplicialComplex) -> set:
    """The f-vectors of the subdivisions of K at its edges in every order.

    The orders are walked one edge at a time over distinct complexes: orders
    whose prefixes reach equal complexes have equal futures, so each level
    keeps every distinct complex once.  An original edge stays a face until
    it is subdivided, so a complex determines the edges it has left.
    """
    level = {K: K.edges()}
    while any(level.values()):
        level = {
            stellar_subdivide(L, edge): rest[:k] + rest[k + 1 :]
            for L, rest in level.items()
            for k, edge in enumerate(rest)
        }
    return {tuple(L.f_vector()) for L in level}


def triangulation_cases() -> list:
    """Order independence, face polynomial law, and the summed link law."""
    cases = []
    for name, K in complex_corpus():
        reference = tchebyshev_triangulation(K)
        distinct = sorted(edge_order_f_vectors(K))
        cases.append(
            case(
                f"{name}: one face count across all orders of its "
                f"{len(K.edges())} edges",
                [reference.f_vector()],
                [list(fv) for fv in distinct],
            )
        )
        cases.append(
            case(
                f"{name}: face polynomial of the subdivision is the "
                "first-kind transform of the original",
                F_polynomial(reference),
                cheb_transform_T(F_polynomial(K)),
            )
        )
        cases.append(
            case(
                f"{name}: summed link face polynomial over original vertices "
                "is the doubled second-kind transform",
                sum((F_polynomial(link(reference, {v})) for v in K.vertices), NCPoly(X)),
                vertex_link_transform(F_polynomial(K)),
            )
        )
    return cases


def containment_edge_order(P: Poset, edges):
    """Sort comparable pairs so that larger intervals come first, an order
    compatible with containment."""

    def width(edge):
        x, y = edge
        if not P.leq(x, y):
            x, y = y, x
        return P.interval_indices(P.index[x], P.index[y]).bit_count()

    return sorted(edges, key=lambda e: (-width(e), e))


def order_complex_of_intervals_check(P: Poset) -> bool:
    """Compare the 1-skeleton of the order complex of the interval poset
    with that of the edgewise subdivision of the order complex of P,
    identifying [u,u] with u and [u,v] with the midpoint of the edge {u,v}.

    Both complexes are flag complexes: an order complex is one, and a stellar
    subdivision at an edge keeps a flag complex flag (Lutz and Nevo, "Stellar
    theory for flag complexes", Math. Scand. 118, 2016).  A flag complex is
    the clique complex of its graph, so equal graphs mean equal complexes.
    The graphs are adjacency masks over the indices of the interval poset.
    Subdividing the edge {u,v} removes it and joins the midpoint w to u, v
    and every common neighbour of u and v."""
    I = interval_poset(P)
    point = [I.index[interval_label(u, u)] for u in P.labels]
    adj = [0] * len(I.labels)
    comparable = []
    for i, above in enumerate(P.up):
        for j in _bits(above & ~(1 << i)):
            adj[point[i]] |= 1 << point[j]
            adj[point[j]] |= 1 << point[i]
            comparable.append((P.labels[i], P.labels[j]))
    for lo, hi in containment_edge_order(P, comparable):
        u, v, w = point[P.index[lo]], point[P.index[hi]], I.index[interval_label(lo, hi)]
        common = adj[u] & adj[v]
        adj[w] = common | 1 << u | 1 << v
        adj[u] = adj[u] & ~(1 << v) | 1 << w
        adj[v] = adj[v] & ~(1 << u) | 1 << w
        for t in _bits(common):
            adj[t] |= 1 << w
    return all(adj[t] == (I.up[t] | I.down[t]) & ~(1 << t) for t in range(len(adj)))


def interval_complex_cases(seed: int = 0) -> list:
    """Order complex of the interval poset equals the edgewise subdivision."""
    # The graph check is fast on every member, but the report bytes are
    # pinned by tests/test_golden.py and perfbench/reference.json, so the
    # suite keeps the members it has always checked.
    return [
        case(
            f"{name}: order complex of the interval poset is the "
            "containment-ordered edgewise subdivision",
            True,
            order_complex_of_intervals_check(P),
        )
        for name, P in corpus(seed)
        if len(P.labels) <= 8
    ]


# -- Eulerian intervals ---------------------------------------------------------------


_SUBSET_INTERVAL_ROWS = {
    1: [1, 2],
    2: [1, 8, 8],
    3: [1, 26, 72, 48],
    4: [1, 80, 464, 768, 384],
}


def boolean_interval_faces(n: int) -> dict:
    """The map from the bottomed interval poset of boolean n onto the cube n
    face lattice: [S,T] goes to the word that is 1 on S, * on T minus S and
    0 elsewhere, and the empty interval to the empty face."""
    B = boolean_lattice(n)
    faces = {EMPTY_INTERVAL: EMPTY_INTERVAL}
    for S, T in itertools.product(B.labels, repeat=2):
        if B.leq(S, T):
            faces[interval_label(S, T)] = "".join(
                "1" if B.leq(f"{{{k}}}", S) else "*" if B.leq(f"{{{k}}}", T) else "0"
                for k in range(1, n + 1)
            )
    return faces


def interval_eulerian_cases(seed: int = 0) -> list:
    """Eulerian posets keep Eulerian interval posets; sphere face counts."""
    cases = [
        case(
            f"{name}: the bottomed interval poset of an Eulerian poset is Eulerian",
            True,
            is_eulerian(G),
        )
        for name, P, G in interval_ready_corpus(seed)
        if is_eulerian(P)
    ]
    for n, row in _SUBSET_INTERVAL_ROWS.items():
        K = order_complex(graded_interval_poset(boolean_lattice(n)), strip_extremes=True)
        counts = K.f_vector()
        cases.append(
            case(
                f"face numbers of the proper interval complex of boolean {n}",
                row,
                counts,
            )
        )
        reduced_euler = sum((-1) ** (k - 1) * value for k, value in enumerate(counts))
        cases.append(
            case(
                f"reduced Euler characteristic for boolean {n} matches a "
                f"{n - 1}-sphere",
                (-1) ** (n - 1),
                reduced_euler,
            )
        )
        cross = order_complex(crosspolytope_lattice(n), strip_extremes=True)
        cases.append(
            case(
                f"boolean {n}: same face numbers as the proper part of the "
                "crosspolytope face lattice",
                cross.f_vector(),
                counts,
            )
        )
    for n in range(1, 4):
        cases.append(
            case(
                f"bottomed interval poset of boolean {n} is the cube {n} "
                "face lattice",
                True,
                is_order_isomorphism(
                    graded_interval_poset(boolean_lattice(n)),
                    cube_lattice(n),
                    boolean_interval_faces(n),
                ),
            )
        )
    return cases


# -- eigenvectors ----------------------------------------------------------------------


# Frozen measurements of II at degrees 1..6: the kernel dimension, the
# dimension of the reversal-antisymmetric space (the kernel is strictly
# larger from degree 5 on), that of the symmetric space, which the 2^n
# pyramid/lift compositions span, how many of those compositions II scales
# by 2^(pyramids + 1), and the rank of their span.
KERNEL_DIMS = (0, 1, 2, 6, 13, 30)
ASYM_DIMS = (0, 1, 2, 6, 12, 28)
SYM_DIMS = (2, 3, 6, 10, 20, 36)
EIGEN_COUNTS = (2, 4, 7, 11, 16, 22)
EIGEN_RANKS = (2, 3, 5, 7, 10, 13)


def eigen_cases() -> list:
    """Eigenvalues of the second-kind transform and kernel measurements."""
    cases = []
    boolean_indices = {n: ab_index(boolean_lattice(n)) for n in range(1, 5)}
    routes = (
        (
            lambda v: v,
            "second-kind transform scales the boolean {n} index by 2^{n}",
            "the reversal-antisymmetric basis at degree {n} is annihilated",
        ),
        (
            lift,
            "lift of the boolean {n} index keeps eigenvalue 2^{n}",
            "lifted reversal-antisymmetric vectors at degree {n} stay in the kernel",
        ),
    )
    for route, scaled_text, kernel_text in routes:
        for n, psi in boolean_indices.items():
            v = route(psi)
            cases.append(
                case(scaled_text.format(n=n), v.scaled(2**n), second_kind_ab_transform(v))
            )
        for n in range(1, 7):
            survivors = [
                i
                for i, v in enumerate(asym_basis(n))
                if not second_kind_ab_transform(route(v)).is_zero()
            ]
            cases.append(case(kernel_text.format(n=n), [], survivors))
    one = unit(AB)
    eigen_pairs = [
        ("two empty words", one, 2, one, 2),
        ("the empty word and the boolean 2 index", one, 2, boolean_indices[2], 4),
        ("the boolean 2 index with itself", boolean_indices[2], 4, boolean_indices[2], 4),
        ("the boolean 2 and boolean 3 indices", boolean_indices[2], 4, boolean_indices[3], 8),
        ("the boolean 3 index with itself", boolean_indices[3], 8, boolean_indices[3], 8),
        ("a lifted empty word and the boolean 2 index", lift(one), 2, boolean_indices[2], 4),
    ]
    for text, p, lam_p, q, lam_q in eigen_pairs:
        mixed = mixing_ab(p, q)
        cases.append(
            case(
                f"mixing eigenvectors multiplies eigenvalues: {text}",
                mixed.scaled(lam_p * lam_q),
                second_kind_ab_transform(mixed),
            )
        )
    for n, rep in enumerate(eigen_experiments(6), 1):
        kernel, asym, sym = KERNEL_DIMS[n - 1], ASYM_DIMS[n - 1], SYM_DIMS[n - 1]
        count, rank = EIGEN_COUNTS[n - 1], EIGEN_RANKS[n - 1]
        expected = dict(
            n=n, kernel_dim=kernel, asym_dim=asym, sym_dim=sym,
            composition_count=2**n, composition_rank=sym,
            eigen_composition_count=count, eigen_composition_rank=rank,
            kernel_equals_asym=kernel == asym, eigen_spans_sym=rank == sym,
            kernel_contains_asym=True, compositions_symmetric=True, spans_sym=True,
        )
        cases.append(
            case(
                f"degree {n} measurements: kernel dimension {kernel} vs "
                f"antisymmetric dimension {asym}; pyramid/lift compositions "
                f"span {sym} of the {sym}-dimensional symmetric space; "
                f"{count} of {2**n} compositions are eigenvectors",
                expected,
                rep,
            )
        )
    return cases


# -- suites ------------------------------------------------------------------------


# Each suite maps the seed to its list of cases.
SUITES = {
    "iota": lambda seed: iota_example_cases() + interval_corpus_cases(
        seed, upsilon, upsilon_interval_transform, "flag-word index"
    ),
    "jojic-ab": lambda seed: interval_corpus_cases(
        seed, ab_index, ab_interval_transform, "ab-index"
    ),
    "jojic-cd": interval_cd_cases,
    "ii": second_kind_corpus_cases,
    "mixing": lambda seed: (
        mixing_word_cases() + mixing_poset_cases() + product_law_cases()
    ),
    "delannoy": lambda seed: delannoy_cases(),
    "ladder": lambda seed: ladder_cases(),
    "pell": support_count_cases,
    "tcheb-triangulation": lambda seed: (
        triangulation_cases() + interval_complex_cases(seed)
    ),
    "typeb": interval_eulerian_cases,
    "eigen": lambda seed: eigen_cases(),
}


def run_suite(suite: str, seed: int = 0) -> dict:
    """Run one named suite (or "all") and wrap the cases in a report."""
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        known = ", ".join(list(SUITES) + ["all"])
        raise PosetOpsError(f"unknown suite {suite!r} (known: {known})")
    cases = []
    for name in names:
        try:
            cases.extend(SUITES[name](seed))
        except PosetOpsError as error:
            cases.append(
                {
                    "description": f"suite {name} aborted early",
                    "expected": "a completed run",
                    "actual": f"{type(error).__name__}: {error}",
                    "pass": False,
                }
            )
    passed = sum(1 for entry in cases if entry["pass"])
    return {
        "suite": suite,
        "cases": cases,
        "summary": {
            "total": len(cases),
            "passed": passed,
            "failed": len(cases) - passed,
        },
    }
