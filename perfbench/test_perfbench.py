"""Tests of the benchmark's own code: span arithmetic and call verdicts.

    python3 -m pytest perfbench/test_perfbench.py
"""

from fractions import Fraction

import layers
import run


def test_self_time_subtracts_direct_children_only():
    # 0 [0, 10] holds 1 [1, 4] and 3 [5, 9]; 1 holds 2 [2, 3].
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert layers.self_times(start, end, parent) == [3.0, 2.0, 1.0, 4.0]


def test_self_times_of_a_layer_add_up_to_its_top_span():
    start = [0.0, 0.5, 0.75, 2.0, 2.5]
    end = [4.0, 1.5, 1.0, 3.5, 3.0]
    parent = [-1, 0, 1, 0, 3]
    assert sum(layers.self_times(start, end, parent)) == end[0] - start[0]


def test_tracer_records_nesting_and_group_time():
    tracer = layers.Tracer()

    def inner():
        return 1

    def outer():
        return inner() + inner()

    inner = tracer.wrap(inner, "ncpoly")
    outer = tracer.wrap(outer, "operators")
    assert outer() == 2
    assert list(tracer.parent) == [-1, 0, 0]
    assert [tracer.names[f] for f in tracer.function] == [
        "operators.test_tracer_records_nesting_and_group_time.<locals>.outer",
        "ncpoly.test_tracer_records_nesting_and_group_time.<locals>.inner",
        "ncpoly.test_tracer_records_nesting_and_group_time.<locals>.inner",
    ]
    whole = tracer.end[0] - tracer.start[0]
    assert layers.group_time(tracer, {tracer.names[0], tracer.names[1]}) == whole


CALLS = [
    {"id": "first", "verify": False},
    {"id": "second", "verify": True},
]


def outcome(code=0, digest="aa", failed=0):
    return [
        {"code": code, "digest": digest},
        {"code": 0, "digest": "bb", "failed": failed},
    ]


def test_clean_calls_pass():
    reference = {"first": "aa", "second": "bb"}
    assert run.judge(CALLS, [], outcome(), reference) == [False, False]


def test_exit_code_2_fails_the_call():
    assert run.judge(CALLS, [], outcome(code=2), {}) == [True, False]


def test_crash_without_exit_code_fails_the_call():
    assert run.judge(CALLS, [], outcome(code=None), {}) == [True, False]


def test_digest_mismatch_against_reference_fails_the_call():
    reference = {"first": "ff", "second": "bb"}
    assert run.judge(CALLS, [], outcome(), reference) == [True, False]


def test_digest_differing_from_first_child_fails_the_call():
    first = {"first": "aa", "second": "cc"}
    assert run.judge(CALLS, [], outcome(), {}, first) == [False, True]


def test_missing_output_fails_the_call():
    assert run.judge(CALLS, [], outcome(digest=None), {}) == [True, False]


def test_verify_report_with_a_failed_case_fails_the_call():
    assert run.judge(CALLS, [], outcome(failed=1), {}) == [False, True]


def test_cross_route_mismatch_fails_the_left_call():
    checks = [("equal", "first", "second")]
    assert run.judge(CALLS, checks, outcome(), {}) == [True, False]
    checks = [("equal-reference", "first", "other/call")]
    assert run.judge(CALLS, checks, outcome(), {"other/call": "aa"}) == [False, False]
    assert run.judge(CALLS, checks, outcome(), {"other/call": "ab"}) == [True, False]


def test_ce_to_cd_uses_e_squared_is_c_squared_minus_2d():
    ce = {"alphabet": "ce", "terms": [
        {"word": "cee", "num": 1, "den": 2},
        {"word": "c", "num": 3, "den": 1},
    ]}
    assert run.ce_to_cd(ce) == {"ccc": Fraction(1, 2), "cd": Fraction(-1), "c": Fraction(3)}
