"""Acceptance gate: one test per numbered acceptance check, exact equality.

Run with the rest of the tests, from a source checkout:

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors

Each test prints a single summary line.  A failing test names the first
failing check with its expected and computed values.

Check 11 asserts the documented negative result about lifting.  The `eigen`
suite states that the lifted rank-3 and rank-4 boolean indices keep the
eigenvalue 2^n of the second-kind transform II; that claim is false, so those
two suite cases fail and the suite exits 1.  Check 11 requires every other
eigen case to pass and, for each of those two witnesses, recomputes
L = lift(ab_index(B_n)) and II(L), requires the suite case to carry exactly
2^n L and II(L) and to be marked failed, and requires II(L) to be no rational
multiple of L at all.  It also asserts the kernel and antisymmetric
dimensions from the suite's degree 1..6 measurements against the README.
"""

from posetops.flags import ab_index, upsilon
from posetops.operators import (
    ab_interval_transform,
    lift,
    second_kind_ab_transform,
    upsilon_interval_transform,
)
from posetops.posets import boolean_lattice
from posetops.verify import (
    canonical,
    case,
    delannoy_cases,
    eigen_cases,
    interval_complex_cases,
    interval_corpus_cases,
    interval_eulerian_cases,
    iota_example_cases,
    ladder_cases,
    mixing_poset_cases,
    mixing_word_cases,
    product_law_cases,
    second_kind_corpus_cases,
    support_count_cases,
    triangulation_cases,
)


def report(number: int, label: str, cases: list) -> None:
    failed = [entry for entry in cases if not entry["pass"]]
    verdict = "PASS" if not failed else "FAIL"
    print(f"acceptance {number} ({label}): {verdict} ({len(cases)} checks)")
    assert not failed, (
        f"acceptance {number} ({label}): {len(failed)} of {len(cases)} checks "
        f"failed; first failure: {failed[0]['description']} | "
        f"expected {failed[0]['expected']!r} | got {failed[0]['actual']!r}"
    )


def test_01_interval_transform_worked_examples():
    report(1, "interval transform on the five worked flag words", iota_example_cases())


def test_02_interval_index_routes_agree_on_corpus():
    cases = interval_corpus_cases(
        0, upsilon, upsilon_interval_transform, "flag-word index"
    ) + interval_corpus_cases(0, ab_index, ab_interval_transform, "ab-index")
    report(2, "interval-poset index equals the transformed index", cases)


def test_03_second_kind_routes_agree_on_corpus():
    report(
        3,
        "second-kind transform equals memberwise poset enumeration",
        second_kind_corpus_cases(0),
    )


def test_04_mixing_operator_consistency():
    cases = mixing_word_cases() + mixing_poset_cases()
    report(4, "mixing: cd recursion, symmetry, and product indices", cases)


def test_05_delannoy_path_model():
    report(5, "c-power mixing matches the weighted-path model", delannoy_cases())


def test_06_ladder_closed_forms():
    report(6, "ladder transforms: closed coefficients and totals", ladder_cases())


def test_07_triangulation_invariance_and_link_law():
    report(
        7,
        "edge-subdivision order invariance and the doubled link law",
        triangulation_cases(),
    )


def test_08_interval_complex_equals_triangulation():
    report(
        8,
        "interval order complex equals the edge-subdivided complex",
        interval_complex_cases(0),
    )


def test_09_support_chain_counts_are_pell_sums():
    report(9, "nested-chain counts follow the Pell pattern", support_count_cases(0))


def test_10_interval_balance_and_subset_lattice_rows():
    report(
        10,
        "interval construction keeps Eulerian balance; subset-lattice rows",
        interval_eulerian_cases(0),
    )


# Degrees 1..6, as stated in the README.
KERNEL_DIMS = [0, 1, 2, 6, 13, 30]
ASYM_DIMS = [0, 1, 2, 6, 12, 28]


def proportionality_witness(p, q):
    """Words u, v with p[u] q[v] != p[v] q[u]; None when q is a multiple of p
    (for nonzero p)."""
    words = sorted(set(p.terms) | set(q.terms))
    for u in words:
        for v in words:
            pu, pv = p.coefficient(u), p.coefficient(v)
            if pu * q.coefficient(v) != pv * q.coefficient(u):
                return u, v
    return None


def false_lift_witness_case(n: int, entry: dict) -> dict:
    """The suite's failing lift case at boolean n, checked against an
    independent recomputation: it must carry 2^n L and II(L), be marked
    failed, and II(L) must not be c L for any rational c."""
    lifted = lift(ab_index(boolean_lattice(n)))
    image = second_kind_ab_transform(lifted)
    witness = proportionality_witness(lifted, image)
    return case(
        f"lift of the boolean {n} index is no eigenvector of II for any "
        f"eigenvalue (words {witness})",
        {
            "suite expected": canonical(lifted.scaled(2**n)),
            "suite actual": canonical(image),
            "suite pass": False,
            "II(L) is a multiple of L": False,
        },
        {
            "suite expected": entry["expected"],
            "suite actual": entry["actual"],
            "suite pass": entry["pass"],
            "II(L) is a multiple of L": witness is None,
        },
    )


def test_11_eigenvectors_kernel_report_and_lift_witnesses():
    cases = eigen_cases()
    false_claims = {
        f"lift of the boolean {n} index keeps eigenvalue 2^{n}": n for n in (3, 4)
    }
    checks = []
    for text, n in false_claims.items():
        matching = [entry for entry in cases if entry["description"] == text]
        assert len(matching) == 1, f"eigen suite has {len(matching)} cases {text!r}"
        checks.append(false_lift_witness_case(n, matching[0]))
    checks += [entry for entry in cases if entry["description"] not in false_claims]
    reports = [
        entry["actual"] for entry in cases if "measurements" in entry["description"]
    ]
    checks += [
        case("measured degrees", list(range(1, 7)), [r["n"] for r in reports]),
        case("kernel dimensions", KERNEL_DIMS, [r["kernel_dim"] for r in reports]),
        case("antisymmetric dimensions", ASYM_DIMS, [r["asym_dim"] for r in reports]),
    ]
    report(11, "transform eigenvectors, kernel dimensions, lift witnesses", checks)


def test_12_products_distribute_through_interval_constructions():
    report(
        12,
        "interval constructions send direct products to products",
        product_law_cases(),
    )
