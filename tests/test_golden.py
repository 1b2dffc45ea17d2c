"""Byte-identity guard: the sha256 of stdout (and the exit code) of a fixed
list of small CLI calls.

The digests pin the exact JSON the command line prints, so any change in
coefficient types, term order or the cd elimination that alters a single
byte fails here.  They also pin a few help pages, printed at a fixed
terminal width of COLUMNS columns.  Regenerate them only for an intended
output change:

    PYTHONPATH=src python -c "import tests.test_golden as g; g.print_digests()"
"""

import hashlib
import json
import os

import pytest

from posetops.cli import main

# Terminal width argparse wraps the help pages to.
COLUMNS = "80"

# Polynomial input files, as (alphabet, [(word, num, den), ...]).
POLYS = {
    # degree 4, non-integral coefficients
    "ab_frac": ("ab", [
        ("aaaa", -1, 4), ("aabb", -3, 1), ("abba", 1, 2),
        ("baab", 5, 3), ("babb", 2, 7), ("bbbb", 1, 1),
    ]),
    # degree 3, integral
    "ab_small": ("ab", [("aba", 2, 1), ("bab", -1, 1), ("bbb", 3, 1)]),
    # degree 5 and 4, non-integral
    "cd_frac": ("cd", [("ccccc", 1, 2), ("cdc", -3, 1), ("ddc", 2, 3)]),
    "cd_small": ("cd", [("cccc", 1, 1), ("cd", 1, 3), ("dd", -2, 1)]),
    # degree 6, integral
    "ab_int6": ("ab", [
        ("aaaaaa", 3, 1), ("aababb", -2, 1), ("abbaab", 5, 1),
        ("babbba", 1, 1), ("bbabab", -4, 1), ("bbbbbb", 7, 1),
    ]),
}

# Poset input files: generated ones as `poset gen` writes them, and one
# poset without rank data (a bottom under two maximal elements).
GENERATED = {"boolean3": ("boolean", "3"), "ladder3": ("ladder", "3")}
UNGRADED = {
    "vee": {
        "elements": ["o", "p", "q"],
        "covers": [["o", "p"], ["o", "q"]],
        "rank": None,
        "bottom": None,
        "top": None,
    }
}

CALLS = (
    [
        ["index", which, "--kind", kind, "--n", n]
        for kind, n in (
            ("boolean", "4"), ("cube", "3"), ("crosspolytope", "3"), ("ladder", "4"),
        )
        for which in ("flag", "upsilon", "ab", "cd", "ce")
    ]
    + [["index", "cd", "--kind", "chain", "--n", "3"]]
    + [["op", which, "--in", "ab_frac"] for which in ("iota", "Iab", "IIab", "pyr", "lift")]
    + [["op", which, "--in", "ab_int6"] for which in ("iota", "Iab")]
    + [
        ["op", "Icd", "--in", "cd_frac"],
        ["op", "Icd", "--in", "ab_frac"],
        ["op", "M", "--in", "ab_frac", "--in2", "ab_small"],
        ["op", "M", "--in", "cd_frac", "--in2", "cd_small"],
        ["op", "M", "--in", "ab_small", "--in2", "cd_small"],
        ["op", "delannoy", "--i", "3", "--j", "4"],
        ["verify", "--suite", "delannoy"],
        ["verify", "--suite", "tcheb-triangulation"],
        ["verify", "--suite", "pell"],
        ["verify", "--suite", "typeb"],
        ["verify", "--suite", "mixing"],
        ["verify", "--suite", "ii"],
        ["verify", "--suite", "eigen"],
        ["verify", "--suite", "iota"],
        ["verify", "--suite", "jojic-ab"],
        ["verify", "--suite", "jojic-cd"],
        ["verify", "--suite", "ladder"],
        ["verify", "--suite", "all", "--seed", "1"],
        ["poset", "gen", "--kind", "cube", "--n", "2"],
        ["poset", "chains", "--kind", "ladder", "--n", "2", "--support", "0̂,+1,1̂"],
        ["poset", "eulerian", "--in", "boolean3"],
    ]
    + [
        ["poset", action, "--in", name]
        for name in ("boolean3", "ladder3")
        for action in ("intervals", "graded-intervals", "second-kind", "dual")
    ]
    + [["poset", action, "--in", "vee"] for action in ("intervals", "dual")]
    + [
        ["poset", action, "--in", "boolean3", "--in2", "ladder3"]
        for action in ("product", "diamond")
    ]
    + [["poset", "product", "--in", "vee", "--in2", "ladder3"]]
    + [
        [*command, "--help"]
        for command in (
            [], ["verify"], ["op"], ["op", "M"], ["op", "Iab"], ["index"],
            ["index", "ab"], ["poset", "gen"],
        )
    ]
)

# " ".join(argv) -> (exit code, sha256 of stdout), recorded before the
# coefficient rule, the peeled cd rewrite and the single-route cd_index.
DIGESTS = {
    "index flag --kind boolean --n 4": (0, "787a3a431ac42c74d5fa36d436b481a66707e18ff21e4e47e0a042561fdc7add"),
    "index upsilon --kind boolean --n 4": (0, "09144814a6bcd88255270a7d2626c166bfa3589e3aa72dabd1ed22c4d5ccdac5"),
    "index ab --kind boolean --n 4": (0, "17baffadb10d5ceff8ae837bb5c74dbec8f6a16e953438c3562ad40ed6c87c0b"),
    "index cd --kind boolean --n 4": (0, "7b59a499ec7743a414ef1e6251ddf4f1ff5dcce7c63582c163a7725bcff51584"),
    "index ce --kind boolean --n 4": (0, "11f3697dc743e119e7ab86940415a5f4f48012e7b69da7d60e4a143544e8d714"),
    "index flag --kind cube --n 3": (0, "c661fcfd4f817efbf52621420b2b0444c781c7558d15cc6114211219050dfbf1"),
    "index upsilon --kind cube --n 3": (0, "9cbe76948c79d54157efd4aa7b40d43def5c7a77db2a25314b9474fffbeeca1f"),
    "index ab --kind cube --n 3": (0, "b619f559aa6703582d9299eea1358c2adb86e206ee355e3877fc0fc774496b13"),
    "index cd --kind cube --n 3": (0, "cf1f9f8396fcdb6824c5d42477edbf9732965eb5edb48eea599f81499934c7aa"),
    "index ce --kind cube --n 3": (0, "27c7a0ee328301e4991cfb795633c6d3bf5b22a41829714e51de0faf08843540"),
    "index flag --kind crosspolytope --n 3": (0, "3e89e81e6133a503945002ddc9be41e768d76c1d9f47e41021e6f7bf74b81a38"),
    "index upsilon --kind crosspolytope --n 3": (0, "a90dde476b2023990c5f8e5395b37e1cb0187331acc34c8a980ca27a7743a7ea"),
    "index ab --kind crosspolytope --n 3": (0, "7f24e160c63d407b4a5be64911f4c3429ed284b826cf6d8733ae6b89100b3a24"),
    "index cd --kind crosspolytope --n 3": (0, "d82d7e5a975a2135bcf2dd8f02c6295b95f692e557445840e44761111af120fc"),
    "index ce --kind crosspolytope --n 3": (0, "37d35052fd1dde2bdbde7458e2498f0eb9592f35c19fe09a51cbd349cf3b0ca9"),
    "index flag --kind ladder --n 4": (0, "63f3ff8cdacaa795df039a21febc2e2bc6f96a479bb59f87a37c5e9d4f72e2c8"),
    "index upsilon --kind ladder --n 4": (0, "13c34b2e422f790f40ae0a417894e59f165b3b25024a1a32bb95b58369146c22"),
    "index ab --kind ladder --n 4": (0, "f74e677dc565a0b1f79481d5b929188e290ded73c30d8f5b54639d8d3b046f9b"),
    "index cd --kind ladder --n 4": (0, "79cafb6718af3694b030de90762304e0e87d2ed9e3804024818ae615e8c5df7d"),
    "index ce --kind ladder --n 4": (0, "403e59744c19d96a9123ac8cd2722011ce2e626ba74158c22983b37bb4582259"),
    "index cd --kind chain --n 3": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "op iota --in ab_frac": (0, "cd9f151d5f9fa079212bc0e614a3410f530b003cf9b02132bed302bfc0da1bc1"),
    "op Iab --in ab_frac": (0, "bc62ef479733218357e23492ac4fa5e8896d5c570aa5adbd16143f89ee8566cd"),
    "op IIab --in ab_frac": (0, "ae1b24371069eb82bf7cb1e71ebaeb50b382421dee8c35e51b2f111b66c3a3af"),
    "op pyr --in ab_frac": (0, "20210b79d1fc19ce6c9eb75c626c28907271097c53582457b4012da07c48325e"),
    "op lift --in ab_frac": (0, "4ba3478e1e94c4d8e40ba48ed94fcc15c2bc5c9b024cca028f4e00563b410648"),
    # recorded before `op Iab` became iota between the two basis changes
    "op iota --in ab_int6": (0, "d793a6b4085704613127013310ea08a5cb3bc48d3dc97c5d2fa7071c82939ce7"),
    "op Iab --in ab_int6": (0, "ab0be59a87c27c5584b16ed9660946ca669b7f552983590f99dbbef5a729a083"),
    "op Icd --in cd_frac": (0, "e4816941b534e1951370bfdda00d0339efb2865211d13356c6f017acc0922701"),
    "op Icd --in ab_frac": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "op M --in ab_frac --in2 ab_small": (0, "d16de9f61f73898cd5a03866a25e9b1d84444ff031e4c4ef64f76a0814a603ad"),
    "op M --in cd_frac --in2 cd_small": (0, "6f82705ea2f746bfc891b7067e3304585188b9a688fddf8cc2ba6d83ffee6103"),
    "op M --in ab_small --in2 cd_small": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "op delannoy --i 3 --j 4": (0, "b84491efc6301a500a50492e191b600e2fd554d3ee4135ced13ea8f63a570e69"),
    "verify --suite delannoy": (0, "132c11155eceb71256b9df2b7575119881cbb346beb5befb9093ed790935b6d2"),
    # recorded while f-polynomials were still their own UnivariatePoly class
    "verify --suite tcheb-triangulation": (0, "ae13f06c8af1e47587494a02100bca6d0984daf9a362434d499c606b919b25a2"),
    # re-recorded when the case descriptions said one support per length
    "verify --suite pell": (0, "5b17574c4554be7da3b857f4849cf6bf58496c04e5b3784ae070bc95b6bb5732"),
    # recorded while the isomorphism cases ran a capped search for any isomorphism
    "verify --suite typeb": (0, "497b7a3701131f2590459b0ad4905a8f1424e82046aaa7dfacf9899cea5ad01d"),
    "verify --suite mixing": (0, "adf92ec2d8bd44cd7ab5d20298776ddecc025b690c646e021108dc5f5c260c28"),
    # recorded while op M and op IIab quasi-shuffled composition tuples; the
    # eigen suite exits 1 on the two lift witnesses (README, check 11)
    "verify --suite ii": (0, "c5d7f675926fd2b94207fffb34f8d1aabb7fb606843b309bdbca90597723bbc3"),
    "verify --suite eigen": (1, "4f8675a9d6193670675ddb250b0204ef70bfe7ae78b70ee6b5615f15017b54ac"),
    # recorded before verify's corpora were read from tables and the CLI
    # handlers returned their JSON values to `main`
    "verify --suite iota": (0, "76e84d1c2a3bfb4cdaf6095ad4600a9cb65f5ea21e5ca8896ad7f53c084d24e1"),
    "verify --suite jojic-ab": (0, "0235c848f09058f98664fbc7f027b65d1c412a6f86cac83b8611082c15d49075"),
    "verify --suite jojic-cd": (0, "2fd24a2d2d1ad1b45ad131126efece8281893f61e32cf18dba423ed9d47e8e26"),
    "verify --suite ladder": (0, "19321da0ccf0c67901ec36043d78aec913fda5fe6034ea2b9b149bfa6927936d"),
    "verify --suite all --seed 1": (1, "0ad9a820b2df05fce1671a99ff0be856ca1c48eb48c174e1a4a612117229f408"),
    "poset gen --kind cube --n 2": (0, "2fc0c717f7c3bacafd885c67144efd2774203995d414cd813617c62f109af8f8"),
    "poset chains --kind ladder --n 2 --support 0̂,+1,1̂": (0, "10159baf262b43a92d95db59dae1f72c645127301661e0a3ce4e38b295a97c58"),
    "poset eulerian --in boolean3": (0, "ff5f8ab4261b7eb61bc92a6da2743ca91e69789ef3856a52f3ac809854b686f1"),
    # recorded before derived posets were built from index covers
    "poset intervals --in boolean3": (0, "7da1656b10d80d0b796d0d74e6c283130e0355827bbbc12b5ac10a9df9b0dee5"),
    "poset graded-intervals --in boolean3": (0, "b555733a76c3c3050a5ebbf88cace594983d8efafb2289a1caeb6be338af1ae0"),
    "poset second-kind --in boolean3": (0, "0d92a9236db0de538bcf71786a4fb5e0643ec07a6269435a3edffa58ab61fc1d"),
    "poset dual --in boolean3": (0, "d2c0c8639e68f26b41b19cc37ccde752e8bbcb0c52cf060daf9e9210d76b4d3e"),
    "poset intervals --in ladder3": (0, "236040bdccb9e8d47636be4e3fe0ee2a567e189c865cbd74be6b673747bd15a7"),
    "poset graded-intervals --in ladder3": (0, "90a7fe0e5bb0234dab38d0e1a0136a95a4ff56256bc379d16109b4fbcc1a2d96"),
    "poset second-kind --in ladder3": (0, "9b2b18c033b77e54dd8b73b618fe736d9df68495407c938a6137f5967bb46e1f"),
    "poset dual --in ladder3": (0, "3b894dc9cafbb1e48623c9b6aba84bf41f061dc44330b00312877c075a3838e9"),
    "poset intervals --in vee": (0, "6be3f321d31b164b329ae7fb1501971093312181e282b08ed1cc60b65692da08"),
    "poset dual --in vee": (0, "e54de34b517d3046651eb23b7d17eaa62ca3961ad7d5fa9066f6c7cf515a9a73"),
    "poset product --in boolean3 --in2 ladder3": (0, "2dd214c4be82d11cd48d88c248b5c47791085a1edeae40b0cd44c7ded3640e5d"),
    "poset diamond --in boolean3 --in2 ladder3": (0, "5bad7bde5835b20600d73ffc5397994493f4f2a560dd0f48438d917c8f7d507d"),
    "poset product --in vee --in2 ladder3": (0, "8cfb207845d365e1d35ffbc79852f1322f0ef12e3b7f623655b266dd4ab1fa9d"),
    # recorded before the command line loaded operators and verify on first use
    "--help": (0, "ee9ca43d9520d8ed4f4344078c8a099d555ff75d6c0b41bf1fa995ce2b694204"),
    "verify --help": (0, "e2740ba0f1b8adb98aea638c6c8b2fc77a6772ac9aec3150f9338ab140f8b02c"),
    "op --help": (0, "2e4112ba67e59c81634a64fed500d30558491c0f330539fdc04b44a7904d9b92"),
    "op M --help": (0, "c5e5448f26ec5d8e950551945b9ef3d684dc68d66a44954863ffda2091359857"),
    "op Iab --help": (0, "a49055677aa7f0db8e45ea52508c0053a146e06ac88d54044c07bac052e6a761"),
    "index --help": (0, "06f9e530d34308fabc85a363b3ecf1d1fcbf7a1f2677008db848bbd0ea4c279d"),
    "index ab --help": (0, "67c17e27bbb0042f4563ffbeabd49bb35378b75810ca1629d9c7bc63d0a7cb3f"),
    "poset gen --help": (0, "c393cee34a9f594577809e882a05be329c7f30c0175220ae4b6b968b078b2534"),
}


def _write_inputs(directory):
    for name, (alphabet, terms) in POLYS.items():
        data = {
            "alphabet": alphabet,
            "terms": [{"word": w, "num": num, "den": den} for w, num, den in terms],
        }
        (directory / f"{name}.json").write_text(json.dumps(data), encoding="utf-8")
    for name, (kind, n) in GENERATED.items():
        out = str(directory / f"{name}.json")
        assert main(["poset", "gen", "--kind", kind, "--n", n, "--out", out]) == 0
    for name, data in UNGRADED.items():
        (directory / f"{name}.json").write_text(json.dumps(data), encoding="utf-8")


def _resolve(argv, directory):
    inputs = {*POLYS, *GENERATED, *UNGRADED}
    return [str(directory / f"{a}.json") if a in inputs else a for a in argv]


def _run(argv, directory, capsys):
    code = main(_resolve(argv, directory))
    captured = capsys.readouterr()
    return code, hashlib.sha256(captured.out.encode("utf-8")).hexdigest(), captured.err


def print_digests():
    """Print the DIGESTS table for the current code."""
    import tempfile
    from contextlib import redirect_stderr, redirect_stdout
    from io import StringIO
    from pathlib import Path

    os.environ["COLUMNS"] = COLUMNS
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        _write_inputs(directory)
        for argv in CALLS:
            out, err = StringIO(), StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(_resolve(argv, directory))
            digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
            print(f'    "{" ".join(argv)}": ({code}, "{digest}"),')


@pytest.mark.parametrize("argv", CALLS, ids=[" ".join(a) for a in CALLS])
def test_cli_output_is_byte_identical(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    _write_inputs(tmp_path)
    code, digest, err = _run(argv, tmp_path, capsys)
    assert (code, digest) == DIGESTS[" ".join(argv)]
    if code == 2:
        assert err.startswith("error:") and err.count("\n") == 1
