"""The graph families of ROADMAP.md, one function each, as graph-file text.

CI writes its inputs with ``python tests/families.py FAMILY N``, and the tests
import the functions.  ``rand`` and ``word`` draw from ``random.Random(1)``.
"""

import argparse
import random
import sys


def _text(gens, edges):
    """Vertex i with the generator names gens[i], then edge e as
    edges[e] = (minus vertex, plus vertex, minus word, plus word)."""
    lines = [f"vertex {i} rank={len(names)} gens={','.join(names)}" for i, names in enumerate(gens)]
    lines += [f'edge {e} {i} {j} minus="{u}" plus="{v}"' for e, (i, j, u, v) in enumerate(edges)]
    return "\n".join(lines) + "\n"


def _rank2(n):
    return [(f"a{i}", f"b{i}") for i in range(n)]


def chain(n):
    edges = [(i, i + 1, f"a{i}^2", f"b{i + 1}") for i in range(1, n - 1)]
    return _text(_rank2(n), [(0, 1, "a0^2", "a1^3"), *edges])


def rand(n):
    rng = random.Random(1)
    edges = []
    for e in range(2 * n):
        i, j = (e + 1, rng.randrange(e + 1)) if e < n - 1 else (rng.randrange(n), rng.randrange(n))
        edges.append((i, j, f"a{i}", f"a{j}"))
    return _text(_rank2(n), edges)


def ring(n):
    return _text(_rank2(n), [(i, (i + 1) % n, f"a{i}", f"a{(i + 1) % n}^2") for i in range(n)])


def wring(n):
    edges = []
    for i in range(n):
        j = (i + 1) % n
        edges.append((i, j, f"a{i} b{i}", f"a{j} b{j} a{j} b{j}"))
    return _text(_rank2(n), edges)


def word(n):
    rng = random.Random(1)
    letters = " ".join(rng.choice(("a", "a^-1", "b", "b^-1")) for _ in range(n))
    return _text([("a", "b"), ("x",)], [(0, 1, letters, "x^2")])


def _rank1_path(minus, plus):
    """n rank-1 vertices x_i, edges x_i<minus> / x_(i+1)<plus>."""

    def family(n):
        edges = [(i, i + 1, f"x{i}{minus}", f"x{i + 1}{plus}") for i in range(n - 1)]
        return _text([(f"x{i}",) for i in range(n)], edges)

    return family


def _loops(gens, plus):
    """One vertex with k loops a / <plus>."""
    return lambda k: _text([gens], [(0, 0, "a", plus)] * k)


def _complete(plus):
    """K_n on rank-2 vertices, edges a_i / a_j<plus> for i < j."""

    def family(n):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        return _text(_rank2(n), [(i, j, f"a{i}", f"a{j}{plus}") for i, j in pairs])

    return family


r1chain, r1rev, r1sq = _rank1_path("", "^2"), _rank1_path("^2", ""), _rank1_path("^2", "^2")
loops, loops1, loops2 = _loops(("a", "b"), "a"), _loops(("a",), "a^2"), _loops(("a", "b"), "a^2")
clique, K = _complete(""), _complete("^2")
FAMILIES = (
    "chain", "rand", "r1chain", "r1rev", "r1sq", "ring", "wring", "word", "loops", "loops1", "loops2", "clique", "K"
)

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print one family graph's text.")
    parser.add_argument("family", choices=FAMILIES)
    parser.add_argument("n", type=int)
    args = parser.parse_args()
    sys.stdout.write(globals()[args.family](args.n))
