"""Write the benchmark's input files from a seed, using the stdlib only.

The program under test never builds its own inputs here: every poset and
polynomial it reads is written by this script, so the same seed always
gives the same bytes.  Run it on its own with

    python3 perfbench/gen_inputs.py --seed 0 --dir /tmp/inputs
"""

from __future__ import annotations

import argparse
import json
import os
import random

RANDOM_PAIRS = 3          # products of random bounded subposets per run
RANDOM_AMBIENT_RANK = 4   # they are drawn from the subset lattice of {1..4}
KEEP_PROBABILITY = 0.6


# -- posets ---------------------------------------------------------------------


def boolean(n: int) -> dict:
    """Subset lattice of {1..n}; elements are bitmasks."""
    full = (1 << n) - 1
    elements = list(range(full + 1))
    covers = [(s, s | 1 << x) for s in elements for x in range(n) if not s >> x & 1]
    return _graded(
        [_subset_label(s) for s in elements],
        [(_subset_label(a), _subset_label(b)) for a, b in covers],
    )


def _subset_label(mask: int) -> str:
    return "{" + ",".join(str(x + 1) for x in range(mask.bit_length()) if mask >> x & 1) + "}"


def cube(n: int) -> dict:
    """Face lattice of the n-cube: words over 0/1/* plus an empty face."""
    words = [""]
    for _ in range(n):
        words = [w + ch for w in words for ch in "01*"]
    covers = [("empty", w) for w in words if "*" not in w]
    for w in words:
        for i, ch in enumerate(w):
            if ch != "*":
                covers.append((w, w[:i] + "*" + w[i + 1 :]))
    return _graded(["empty"] + words, covers)


def product(p: dict, q: dict) -> dict:
    """Direct product with the componentwise order."""
    def pair(x, y):
        return f"({x},{y})"

    elements = [pair(x, y) for x in p["elements"] for y in q["elements"]]
    covers = [(pair(lo, y), pair(hi, y)) for lo, hi in p["covers"] for y in q["elements"]]
    covers += [(pair(x, lo), pair(x, hi)) for lo, hi in q["covers"] for x in p["elements"]]
    return _graded(elements, covers)


def random_bounded_subposet(rng: random.Random, n: int) -> dict:
    """A graded subposet of the subset lattice of {1..n} holding both ends
    and at least one subset between them.

    Interior subsets are kept independently; draws that fail are redrawn, so
    the result is a function of the rng state.
    """
    full = (1 << n) - 1
    interior = list(range(1, full))
    while True:
        kept = [0] + [s for s in interior if rng.random() < KEEP_PROBABILITY] + [full]
        covers = [
            (a, b)
            for a in kept
            for b in kept
            if a != b and a & b == a
            and not any(c not in (a, b) and a & c == a and c & b == c for c in kept)
        ]
        rank = {0: 0}
        for s in sorted(kept, key=lambda s: bin(s).count("1")):
            for a, b in covers:
                if b == s:
                    rank[s] = max(rank.get(s, 0), rank[a] + 1)
        if all(rank[b] == rank[a] + 1 for a, b in covers) and rank[full] >= 2:
            return _graded(
                [_subset_label(s) for s in kept],
                [(_subset_label(a), _subset_label(b)) for a, b in covers],
            )


def _graded(elements: list, covers: list) -> dict:
    """Poset JSON with rank, bottom and top filled in from the covers."""
    below = {e: [] for e in elements}
    for lo, hi in covers:
        below[hi].append(lo)
    rank: dict = {}

    def rank_of(e):
        if e not in rank:
            rank[e] = 1 + max((rank_of(x) for x in below[e]), default=-1)
        return rank[e]

    for e in elements:
        rank_of(e)
    has_up = {lo for lo, _ in covers}
    bottoms = [e for e in elements if not below[e]]
    tops = [e for e in elements if e not in has_up]
    return {
        "elements": elements,
        "covers": [list(c) for c in covers],
        "rank": rank,
        "bottom": bottoms[0],
        "top": tops[0],
    }


# -- polynomials ------------------------------------------------------------------


def words(letters: dict, degree: int) -> list:
    """All words of the given degree, each letter weighing letters[letter]."""
    if degree == 0:
        return [""]
    out = []
    for letter, weight in letters.items():
        if weight <= degree:
            out += [letter + w for w in words(letters, degree - weight)]
    return out


def random_poly(rng: random.Random, alphabet: str, degree: int) -> dict:
    """Dense homogeneous polynomial with small nonzero integer coefficients."""
    letters = {"a": 1, "b": 1} if alphabet == "ab" else {"c": 1, "d": 2}
    terms = []
    for w in sorted(words(letters, degree)):
        num = rng.choice([-1, 1]) * rng.randint(1, 9)
        terms.append({"word": w, "num": num, "den": 1})
    return {"alphabet": alphabet, "terms": terms}


# -- the files ----------------------------------------------------------------------

# (file name, alphabet, degree) of the seeded polynomials.
POLYNOMIALS = (
    ("ab8", "ab", 8),
    ("cd10", "cd", 10),
    ("ab6", "ab", 6),
    ("ab7", "ab", 7),
)


def generate(seed: int, directory: str) -> dict:
    """Write every input file for `seed` into `directory`; return name -> path."""
    os.makedirs(directory, exist_ok=True)
    files = {
        "cube3xcube3": product(cube(3), cube(3)),
        "boolean4xcube3": product(boolean(4), cube(3)),
    }
    rng = random.Random(f"posets:{seed}")
    for k in range(RANDOM_PAIRS):
        left = random_bounded_subposet(rng, RANDOM_AMBIENT_RANK)
        right = random_bounded_subposet(rng, RANDOM_AMBIENT_RANK)
        files[f"random{k}-left"] = left
        files[f"random{k}-right"] = right
        files[f"random{k}-product"] = product(left, right)
    rng = random.Random(f"polynomials:{seed}")
    for name, alphabet, degree in POLYNOMIALS:
        files[f"poly-{name}"] = random_poly(rng, alphabet, degree)
    paths = {}
    for name, data in files.items():
        path = os.path.join(directory, name + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle, ensure_ascii=False, sort_keys=True)
        paths[name] = path
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args(argv)
    for name, path in sorted(generate(args.seed, args.dir).items()):
        print(name, path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
