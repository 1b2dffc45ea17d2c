import importlib
import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from posetops.cli import _parser, _split_support, build_parser, main
from posetops.errors import PosetOpsError, TooLarge
from posetops.ncpoly import AB, NCPoly, cd_words, to_dict
from posetops.posets import GradedPoset, chain_poset, pell_number, poset_to_dict
from test_golden import CALLS, DIGESTS, _run, _write_inputs


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def terms_by_word(data):
    assert data["terms"] == sorted(
        data["terms"], key=lambda t: (len(t["word"]), t["word"])
    )
    return {t["word"]: (t["num"], t["den"]) for t in data["terms"]}


def write_poly(path, alphabet, terms):
    path.write_text(
        json.dumps(
            {
                "alphabet": alphabet,
                "terms": [
                    {"word": w, "num": num, "den": den} for w, num, den in terms
                ],
            }
        ),
        encoding="utf-8",
    )


def test_gen_emits_the_poset(capsys):
    code, out, err = run_cli(capsys, ["poset", "gen", "--kind", "boolean", "--n", "2"])
    assert code == 0 and err == ""
    data = json.loads(out)
    assert sorted(data["elements"]) == sorted(["{}", "{1}", "{2}", "{1,2}"])
    assert data["bottom"] == "{}"
    assert data["top"] == "{1,2}"
    assert data["rank"]["{2}"] == 1


def test_index_cd_on_generated_boolean(capsys):
    code, out, err = run_cli(capsys, ["index", "cd", "--kind", "boolean", "--n", "3"])
    assert code == 0
    data = json.loads(out)
    assert data["alphabet"] == "cd"
    assert terms_by_word(data) == {"d": (1, 1), "cc": (1, 1)}


def test_index_cd_rejects_non_eulerian_input(capsys):
    code, out, err = run_cli(capsys, ["index", "cd", "--kind", "chain", "--n", "2"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_index_reads_poset_files(tmp_path, capsys):
    poset_path = tmp_path / "ladder4.json"
    code, _, _ = run_cli(
        capsys,
        ["poset", "gen", "--kind", "ladder", "--n", "4", "--out", str(poset_path)],
    )
    assert code == 0
    code, out, _ = run_cli(capsys, ["index", "cd", "--in", str(poset_path)])
    assert code == 0
    assert terms_by_word(json.loads(out)) == {"cccc": (1, 1)}


def test_chains_counts_with_bracketed_support(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "poset",
            "chains",
            "--kind",
            "boolean",
            "--n",
            "2",
            "--support",
            "{},{1},{1,2}",
        ],
    )
    assert code == 0
    assert json.loads(out) == 7


def test_chains_counts_on_ladder(capsys):
    code, out, _ = run_cli(
        capsys,
        ["poset", "chains", "--kind", "ladder", "--n", "2", "--support", "0̂,+1,1̂"],
    )
    assert code == 0
    assert json.loads(out) == 7


def test_chains_counts_a_long_support_by_the_closed_form(capsys):
    support = ",".join(str(i) for i in range(41))
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, ["poset", "chains", "--kind", "chain", "--n", "40", "--support", support]
    )
    assert time.perf_counter() - start < 1
    assert code == 0 and err == ""
    assert json.loads(out) == pell_number(40) + pell_number(41)


def test_chains_needs_a_poset_source(capsys):
    code, out, err = run_cli(capsys, ["poset", "chains", "--support", "x"])
    assert code == 2
    assert "error:" in err


def test_second_kind_lists_one_member_per_element(tmp_path, capsys):
    poset_path = tmp_path / "chain2.json"
    run_cli(capsys, ["poset", "gen", "--kind", "chain", "--n", "2", "--out", str(poset_path)])
    code, out, _ = run_cli(capsys, ["poset", "second-kind", "--in", str(poset_path)])
    assert code == 0
    data = json.loads(out)
    assert len(data["members"]) == 3
    assert all(set(m) == {"generator", "poset"} for m in data["members"])


def test_eulerian_flag(tmp_path, capsys):
    poset_path = tmp_path / "b2.json"
    run_cli(capsys, ["poset", "gen", "--kind", "boolean", "--n", "2", "--out", str(poset_path)])
    code, out, _ = run_cli(capsys, ["poset", "eulerian", "--in", str(poset_path)])
    assert code == 0 and json.loads(out) == {"eulerian": True}
    chain_path = tmp_path / "c2.json"
    run_cli(capsys, ["poset", "gen", "--kind", "chain", "--n", "2", "--out", str(chain_path)])
    code, out, _ = run_cli(capsys, ["poset", "eulerian", "--in", str(chain_path)])
    assert code == 0 and json.loads(out) == {"eulerian": False}


def test_op_delannoy_small_case(capsys):
    code, out, _ = run_cli(capsys, ["op", "delannoy", "--i", "1", "--j", "1"])
    assert code == 0
    assert terms_by_word(json.loads(out)) == {
        "ccc": (1, 1),
        "cd": (2, 1),
        "dc": (2, 1),
    }


def test_op_delannoy_refuses_endpoints_past_the_cap(capsys):
    code, out, err = run_cli(capsys, ["op", "delannoy", "--i", "1000", "--j", "1000"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def assert_refused(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("which", ["flag", "ab"])
@pytest.mark.parametrize("kind", ["chain", "ladder"])
def test_index_refuses_generated_ranks_over_the_cap(capsys, which, kind):
    # rank 40 or 41: the flag vector alone would have 2^39 entries
    assert_refused(*run_cli(capsys, ["index", which, "--kind", kind, "--n", "40"]))


@pytest.mark.parametrize("command", [["poset", "gen"], ["index", "flag"]], ids="-".join)
@pytest.mark.parametrize("kind", ["boolean", "chain", "ladder", "cube", "crosspolytope"])
def test_generation_refuses_huge_n_before_counting(capsys, command, kind):
    # 2^n or 3^n at this n has hundreds of millions of digits
    code, out, err = run_cli(capsys, command + ["--kind", kind, "--n", "1000000000"])
    assert_refused(code, out, err)
    assert len(err) < 100 and "cap of 8192" in err


def test_poset_files_over_the_generation_cap_are_refused(tmp_path, capsys):
    labels = [str(i) for i in range(8193)]
    path = tmp_path / "chain8192.json"
    path.write_text(
        json.dumps({"elements": labels, "covers": [list(c) for c in zip(labels, labels[1:])]}),
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, ["poset", "dual", "--in", str(path)])
    assert_refused(code, out, err)
    assert "8193 elements exceed the cap of 8192" in err


def _wide_top_poset():
    """Rank 16: a chain up to rank 13, then two ranks of 65 elements with
    every cover between them; counting its flags takes 35,684,208 additions."""
    labels = ["0", *(f"c{r}" for r in range(1, 14)), "T"]
    covers = [(f"c{r}", f"c{r + 1}") for r in range(1, 13)] + [("0", "c1")]
    low = [f"u{i}" for i in range(65)]
    high = [f"v{i}" for i in range(65)]
    covers += [("c13", u) for u in low] + [(v, "T") for v in high]
    covers += [(u, v) for u in low for v in high]
    return GradedPoset(labels + low + high, covers)


@pytest.mark.parametrize("which", ["flag", "ce"])
def test_index_refuses_poset_files_over_the_caps(tmp_path, capsys, which):
    tall = tmp_path / "chain17.json"
    tall.write_text(json.dumps(poset_to_dict(chain_poset(17))), encoding="utf-8")
    assert_refused(*run_cli(capsys, ["index", which, "--in", str(tall)]))
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(poset_to_dict(_wide_top_poset())), encoding="utf-8")
    code, out, err = run_cli(capsys, ["index", which, "--in", str(wide)])
    assert_refused(code, out, err)
    assert "additions" in err


def test_poset_file_with_an_implied_cover_is_refused(tmp_path, capsys):
    path = tmp_path / "implied.json"
    path.write_text(
        json.dumps(
            {
                "elements": ["a", "b", "c"],
                "covers": [["a", "b"], ["b", "c"], ["a", "c"]],
                "rank": None,
            }
        ),
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, ["poset", "dual", "--in", str(path)])
    assert_refused(code, out, err)
    assert "cover ('a', 'c') is implied by a longer path" in err


def test_graded_poset_file_with_an_implied_cover_is_refused(tmp_path, capsys):
    # in a graded poset an implied cover always skips a rank
    path = tmp_path / "implied.json"
    path.write_text(
        json.dumps(
            {
                "elements": ["a", "b", "c"],
                "covers": [["a", "b"], ["b", "c"], ["a", "c"]],
                "rank": {"a": 0, "b": 1, "c": 2},
                "bottom": "a",
                "top": "c",
            }
        ),
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, ["poset", "dual", "--in", str(path)])
    assert_refused(code, out, err)
    assert "skips a rank" in err


def test_labels_that_utf8_cannot_write_are_refused_before_output(tmp_path, capsys):
    # json.load turns the escape "\ud800" into a lone surrogate, which the
    # UTF-8 writer cannot encode; it once failed after the first bytes
    path, out_path = tmp_path / "surrogate.json", tmp_path / "out.json"
    poset = {"elements": ["\ud800", "b"], "covers": [["\ud800", "b"]], "rank": None}
    path.write_text(json.dumps(poset), encoding="utf-8")
    for argv in ([], ["--out", str(out_path)]):
        code, out, err = run_cli(capsys, ["poset", "dual", "--in", str(path)] + argv)
        assert_refused(code, out, err)
        assert "is not UTF-8 text" in err
    assert not out_path.exists()
    poset = {"elements": ["\u00e9", "b"], "covers": [["\u00e9", "b"]], "rank": None}
    path.write_text(json.dumps(poset), encoding="utf-8")
    code, out, err = run_cli(capsys, ["poset", "dual", "--in", str(path)])
    assert code == 0 and err == "" and json.loads(out)["covers"] == [["b", "\u00e9"]]


@pytest.mark.parametrize(
    "action, kind, n",
    [
        ("intervals", "chain", "3000"),  # 4,504,501 intervals
        ("graded-intervals", "chain", "3000"),
        ("second-kind", "chain", "600"),  # 36,361,101 member elements
        ("product", "boolean", "12"),  # 4096^2 pairs
        ("diamond", "boolean", "12"),
    ],
)
def test_derived_posets_over_the_cap_are_refused(tmp_path, capsys, action, kind, n):
    path = str(tmp_path / "in.json")
    assert main(["poset", "gen", "--kind", kind, "--n", n, "--out", path]) == 0
    argv = ["poset", action, "--in", path]
    if action in ("product", "diamond"):
        argv += ["--in2", path]
    code, out, err = run_cli(capsys, argv)
    assert_refused(code, out, err)
    assert "exceed the cap of 8192" in err


def test_op_refuses_a_zero_denominator(tmp_path, capsys):
    poly = tmp_path / "zero_den.json"
    write_poly(poly, "ab", [("a", 1, 0)])
    code, out, err = run_cli(capsys, ["op", "lift", "--in", str(poly)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "denominator 0" in err and "Traceback" not in err


def test_op_mixing_units_gives_c(tmp_path, capsys):
    unit = tmp_path / "unit.json"
    write_poly(unit, "cd", [("", 1, 1)])
    code, out, _ = run_cli(
        capsys, ["op", "M", "--in", str(unit), "--in2", str(unit)]
    )
    assert code == 0
    assert terms_by_word(json.loads(out)) == {"c": (1, 1)}


def test_op_mixing_rejects_mixed_alphabets(tmp_path, capsys):
    ab_path = tmp_path / "ab.json"
    cd_path = tmp_path / "cd.json"
    write_poly(ab_path, "ab", [("a", 1, 1)])
    write_poly(cd_path, "cd", [("c", 1, 1)])
    code, _, err = run_cli(
        capsys, ["op", "M", "--in", str(ab_path), "--in2", str(cd_path)]
    )
    assert code == 2
    assert "error:" in err


def test_op_lift_requires_ab_input(tmp_path, capsys):
    cd_path = tmp_path / "cd.json"
    write_poly(cd_path, "cd", [("c", 1, 1)])
    code, _, err = run_cli(capsys, ["op", "lift", "--in", str(cd_path)])
    assert code == 2
    assert "error:" in err


def test_out_file_keeps_stdout_quiet(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run_cli(
        capsys,
        ["index", "ab", "--kind", "boolean", "--n", "2", "--out", str(target)],
    )
    assert code == 0
    assert out == ""
    text = target.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert terms_by_word(json.loads(text)) == {"a": (1, 1), "b": (1, 1)}


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unopenable_out_path_is_refused(tmp_path, capsys, where):
    target = tmp_path / "missing" / "x.json" if where == "missing directory" else tmp_path
    argv = ["poset", "gen", "--kind", "chain", "--n", "2", "--out", str(target)]
    code, out, err = run_cli(capsys, argv)
    assert_refused(code, out, err)
    assert "cannot write" in err


@pytest.mark.parametrize("op", ["Iab", "iota", "IIab"])
def test_op_interval_transforms_refuse_degrees_over_the_cap(tmp_path, capsys, op):
    poly = tmp_path / "deg13.json"
    write_poly(poly, "ab", [("b" * 13, 1, 1), ("ab", 1, 1)])
    code, out, err = run_cli(capsys, ["op", op, "--in", str(poly)])
    assert_refused(code, out, err)
    assert "degree 13" in err


def test_op_icd_admits_degree_12_and_refuses_13(tmp_path, capsys):
    poly = tmp_path / "cd.json"
    write_poly(poly, "cd", [("d" * 6, 1, 1), ("c" * 12, 1, 1)])
    code, out, err = run_cli(capsys, ["op", "Icd", "--in", str(poly)])
    assert code == 0 and err == ""
    assert {len(t["word"]) + t["word"].count("d") for t in json.loads(out)["terms"]} == {13}
    write_poly(poly, "cd", [("d" * 6 + "c", 1, 1), ("c", 1, 1)])
    code, out, err = run_cli(capsys, ["op", "Icd", "--in", str(poly)])
    assert_refused(code, out, err)
    assert "degree 13" in err


def test_op_mixing_admits_result_degree_13_and_refuses_14(tmp_path, capsys):
    p, q = tmp_path / "p.json", tmp_path / "q.json"
    write_poly(p, "ab", [("b" * 6, 1, 1)])
    write_poly(q, "ab", [("a" * 6, 1, 1)])
    code, out, err = run_cli(capsys, ["op", "M", "--in", str(p), "--in2", str(q)])
    assert code == 0 and err == ""
    assert {len(t["word"]) for t in json.loads(out)["terms"]} == {13}
    write_poly(p, "ab", [("b" * 7, 1, 1), ("a", 1, 1)])
    code, out, err = run_cli(capsys, ["op", "M", "--in", str(p), "--in2", str(q)])
    assert_refused(code, out, err)
    assert "result degree 14" in err


def test_op_mixing_caps_cd_polynomials_like_ab(tmp_path, capsys):
    # dense cd-inputs of degrees 6 and 6 mix to degree 13; 7 and 6 are refused
    p, q = tmp_path / "p.json", tmp_path / "q.json"
    dense6 = [(w, k % 7 - 3 or 1, 1) for k, w in enumerate(cd_words(6))]
    write_poly(p, "cd", dense6)
    write_poly(q, "cd", dense6)
    code, out, err = run_cli(capsys, ["op", "M", "--in", str(p), "--in2", str(q)])
    assert code == 0 and err == ""
    assert {len(t["word"]) + t["word"].count("d") for t in json.loads(out)["terms"]} == {13}
    write_poly(p, "cd", [("c" * 7, 1, 1)])
    code, out, err = run_cli(capsys, ["op", "M", "--in", str(p), "--in2", str(q)])
    assert_refused(code, out, err)
    assert "result degree 14" in err


def test_op_pyramid_and_mixing_with_the_unit_admit_result_degree_13(tmp_path, capsys):
    # the pyramid mixes with the unit; a dense degree-12 input reaches the cap
    words = [""]
    for _ in range(12):
        words = [w + x for w in words for x in "ab"]
    poly, unit = tmp_path / "dense12.json", tmp_path / "unit.json"
    write_poly(poly, "ab", [(w, k % 19 - 9 or 1, 1) for k, w in enumerate(words)])
    write_poly(unit, "ab", [("", 1, 1)])
    code, pyr, err = run_cli(capsys, ["op", "pyr", "--in", str(poly)])
    assert code == 0 and err == ""
    assert {len(t["word"]) for t in json.loads(pyr)["terms"]} == {13}
    code, mixed, err = run_cli(capsys, ["op", "M", "--in", str(unit), "--in2", str(poly)])
    assert code == 0 and err == "" and mixed == pyr


@pytest.mark.parametrize(
    "alphabet, letter, n", [("ab", "a", 20), ("ab", "b", 3000), ("cd", "c", 3000)]
)
def test_op_pyramid_refuses_result_degrees_over_the_cap(tmp_path, capsys, alphabet, letter, n):
    # uncapped, the first ran past 40 s and 3.7 GB and the other two
    # overflowed the recursion
    poly = tmp_path / "p.json"
    write_poly(poly, alphabet, [(letter * n, 1, 1)])
    started = time.perf_counter()
    code, out, err = run_cli(capsys, ["op", "pyr", "--in", str(poly)])
    assert time.perf_counter() - started < 5
    assert_refused(code, out, err)
    assert f"result degree {n + 1}" in err


def test_op_mixing_with_zero_gives_zero_past_the_cap(tmp_path, capsys):
    zero, p = tmp_path / "zero.json", tmp_path / "p.json"
    write_poly(zero, "ab", [])
    write_poly(p, "ab", [("a" * 14, 1, 1)])
    for argv in (
        ["M", "--in", str(zero), "--in2", str(p)],
        ["M", "--in", str(p), "--in2", str(zero)],
        ["pyr", "--in", str(zero)],
    ):
        code, out, err = run_cli(capsys, ["op"] + argv)
        assert code == 0 and err == "" and json.loads(out)["terms"] == []


@pytest.mark.parametrize("command", [["op", "iota"], ["index", "ab"]])
def test_deeply_nested_json_is_refused(tmp_path, capsys, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000, encoding="utf-8")
    code, out, err = run_cli(capsys, command + ["--in", str(deep)])
    assert_refused(code, out, err)
    assert "nests too deeply" in err


@pytest.mark.parametrize(
    "text, reason",
    [
        ('{"alphabet": "ab", "terms": [{"word": "a", "num": 1%s, "den": 1}]}' % ("0" * 4999),
         "Exceeds the limit (4300 digits)"),
        ("\udcff", "can't decode byte 0xff"),
        ("{", "is not valid JSON"),
    ],
)
def test_unreadable_json_is_refused(tmp_path, capsys, text, reason):
    path = tmp_path / "p.json"
    path.write_text(text, encoding="utf-8", errors="surrogateescape")
    code, out, err = run_cli(capsys, ["op", "lift", "--in", str(path)])
    assert_refused(code, out, err)
    assert reason in err


def test_coefficients_too_long_to_write_are_refused_before_output(tmp_path, capsys):
    p, out_path = tmp_path / "p.json", tmp_path / "out.json"
    write_poly(p, "ab", [("a", 10**3999 + 7, 1)])
    for argv in (["--in2", str(p)], ["--in2", str(p), "--out", str(out_path)]):
        code, out, err = run_cli(capsys, ["op", "M", "--in", str(p)] + argv)
        assert_refused(code, out, err)
        assert "has a coefficient of more than 4300 digits" in err
    assert not out_path.exists()
    widest = NCPoly(AB, {"a": -(10**4300 - 1), "b": Fraction(1, 10**4300 - 1)})
    assert to_dict(widest)["terms"][0]["num"] == -(10**4300 - 1)
    with pytest.raises(TooLarge, match="term 'b'"):
        to_dict(NCPoly(AB, {"a": 1, "b": Fraction(1, 10**4300)}))


def test_repeated_runs_are_byte_identical(tmp_path, capsys):
    argv = ["index", "upsilon", "--kind", "cube", "--n", "2"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, argv + ["--out", str(a_path)])
    run_cli(capsys, argv + ["--out", str(b_path)])
    assert a_path.read_bytes() == b_path.read_bytes()


def test_usage_errors_exit_64(capsys):
    assert main(["bogus"]) == 64
    assert main([]) == 64
    assert main(["verify", "--suite", "no-such-suite"]) == 64
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_a_shared_parser_prints_the_pinned_bytes(tmp_path, capsys):
    """Every golden call, in order and then reversed, in one process, with a
    help page, a usage error and a domain error between calls."""
    _write_inputs(tmp_path)
    help_page = build_parser().format_help()
    for argv in CALLS + CALLS[::-1]:
        assert run_cli(capsys, ["--help"]) == (0, help_page, "")
        code, out, err = run_cli(capsys, ["verify", "--suite", "nope"])
        assert (code, out) == (64, "") and "invalid choice: 'nope'" in err
        code, out, err = run_cli(capsys, ["op", "delannoy", "--i", "-1", "--j", "0"])
        assert (code, out) == (2, "") and err.startswith("error:") and err.count("\n") == 1
        assert _run(argv, tmp_path, capsys)[:2] == DIGESTS[" ".join(argv)], argv


def test_main_builds_the_parser_once(capsys):
    _parser.cache_clear()
    calls = [["op", "delannoy", "--i", "1", "--j", "1"], ["--help"], ["bogus"]] * 2
    assert [main(argv) for argv in calls] == [0, 0, 64] * 2
    capsys.readouterr()
    info = _parser.cache_info()
    assert (info.misses, info.hits) == (1, len(calls) - 1)


def test_verify_ladder_passes(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "ladder"])
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "ladder"
    assert report["summary"]["failed"] == 0


def test_verify_eigen_reports_failure_exit(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "eigen"])
    assert code == 1
    assert json.loads(out)["summary"]["failed"] == 2


def test_split_support_honors_brackets():
    assert _split_support("{},{1},{1,2}") == ["{}", "{1}", "{1,2}"]
    assert _split_support("[u,v], (p,q)") == ["[u,v]", "(p,q)"]
    assert _split_support("x") == ["x"]
    with pytest.raises(PosetOpsError):
        _split_support("{1,{2}")
    with pytest.raises(PosetOpsError):
        _split_support("a,,b")


def console_script_command():
    """The `posetops` console script if it is installed; otherwise a fresh
    interpreter that runs the `[project.scripts]` entry point of
    pyproject.toml the way the generated wrapper does."""
    exe = shutil.which("posetops")
    if exe is not None:
        return [exe], None
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["posetops"]
    module_name, _, function_name = entry.partition(":")
    assert callable(getattr(importlib.import_module(module_name), function_name))
    wrapper = (
        f"import sys; from {module_name} import {function_name}; "
        f"sys.argv[0] = 'posetops'; sys.exit({function_name}())"
    )
    package = importlib.import_module(module_name.split(".")[0])
    source_root = Path(package.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(source_root)}
    return [sys.executable, "-c", wrapper], env


def test_console_script_runs_a_suite(tmp_path):
    command, env = console_script_command()
    proc = subprocess.run(
        command + ["verify", "--suite", "ladder"],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["summary"]["failed"] == 0


@pytest.mark.parametrize(
    "num, den", [(1.5, 1), (1, 2.0), ("1", 1), (1, "2"), (True, 1), (1, True)]
)
def test_op_refuses_a_non_integer_numerator_or_denominator(tmp_path, capsys, num, den):
    poly = tmp_path / "inexact.json"
    write_poly(poly, "ab", [("a", num, den)])
    assert_refused(*run_cli(capsys, ["op", "lift", "--in", str(poly)]))


def test_poset_refuses_non_string_labels(tmp_path, capsys):
    poset = tmp_path / "int_labels.json"
    poset.write_text(
        json.dumps(
            {"elements": [1, 2], "covers": [[1, 2]], "rank": None,
             "bottom": None, "top": None}
        ),
        encoding="utf-8",
    )
    assert_refused(*run_cli(capsys, ["poset", "dual", "--in", str(poset)]))


@pytest.mark.parametrize(
    "elements, covers, rank",
    [
        ("ab", [["a", "b"]], None),
        ({"a": 1, "b": 2}, [["a", "b"]], None),
        (["a", "b"], ["ab"], None),
        (["a", "b"], [["a", "b"]], [0, 1]),
    ],
    ids=["elements-string", "elements-dict", "cover-string", "rank-list"],
)
def test_poset_refuses_malformed_fields(tmp_path, capsys, elements, covers, rank):
    poset = tmp_path / "malformed.json"
    poset.write_text(
        json.dumps(
            {"elements": elements, "covers": covers, "rank": rank,
             "bottom": "a", "top": "b"}
        ),
        encoding="utf-8",
    )
    assert_refused(*run_cli(capsys, ["poset", "dual", "--in", str(poset)]))


# -- failed writes -------------------------------------------------------------
# A write that fails is refused with exit 2 and one error line, and nothing
# more reaches stderr when the interpreter exits.


def buffered_console_script():
    """The console script with a buffered stdout, whose pending bytes the
    interpreter flushes once more at exit."""
    command, env = console_script_command()
    env = dict(os.environ if env is None else env)
    env.pop("PYTHONUNBUFFERED", None)
    return command, env


def assert_refused_in_a_process(proc_code, err):
    assert proc_code == 2, err
    assert err.startswith("error: cannot write") and err.count("\n") == 1, err


needs_dev_full = pytest.mark.skipif(
    not Path("/dev/full").is_char_device(), reason="no /dev/full device"
)


@needs_dev_full
def test_a_full_device_given_as_out_is_refused_and_kept(tmp_path):
    command, env = buffered_console_script()
    proc = subprocess.run(
        command + ["poset", "gen", "--kind", "boolean", "--n", "2", "--out", "/dev/full"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path, env=env,
    )
    assert_refused_in_a_process(proc.returncode, proc.stderr)
    assert proc.stdout == ""
    assert Path("/dev/full").is_char_device()


@needs_dev_full
def test_a_full_device_as_stdout_is_refused(tmp_path):
    command, env = buffered_console_script()
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            command + ["poset", "gen", "--kind", "boolean", "--n", "2"],
            stdout=full, stderr=subprocess.PIPE, text=True, timeout=60,
            cwd=tmp_path, env=env,
        )
    assert_refused_in_a_process(proc.returncode, proc.stderr)


def test_a_pipe_closed_by_the_reader_is_refused(tmp_path):
    # the ii report is far larger than a pipe buffer, so the writer meets
    # the closed pipe whatever the timing
    command, env = buffered_console_script()
    proc = subprocess.Popen(
        command + ["verify", "--suite", "ii"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path, env=env,
    )
    assert proc.stdout.read(10) == b'{\n  "cases'
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert_refused_in_a_process(proc.wait(timeout=300), err)
    assert "Broken pipe" in err
