"""An independent referee for graphs whose vertex groups are all infinite
cyclic (generalised Baumslag-Solitar graphs).

Such a graph is read as a list of edges ``(u, v, k_u, k_v)``: the edge
identifies a_u^(k_u) with a_v^(k_v), a_u generating vertex u.  The referee
decides six verdicts from these numbers alone, with no code of the
package beyond :func:`~gogz.graphs.parse_graph` and
:func:`~gogz.verdicts.analyze`, whose report it checks:

* *Balanced* exactly when the modular homomorphism takes the values ±1
  only (Levitt, *Geom. Topol.* 11, 2007).  Set phi(root) = 1 and
  phi(v) = phi(u) |k_u| / |k_v| along a BFS tree; the group is balanced
  iff every edge agrees with phi, phi(u) |k_u| = phi(v) |k_v|.
* *Word hyperbolic* exactly when the group is infinite cyclic, that is
  when the graph reduces to one vertex with no edges: any other GBS group
  contains Z^2 or a Baumslag-Solitar group.  A graph with a cycle keeps it
  under every contraction, and a tree reduces by contracting edges with an
  end of exponent ±1 in any order, since a tree with an edge and no such
  end presents a non-abelian amalgam.
* *Acylindrically hyperbolic* never: an elliptic element is commensurated
  by the whole group.  A graph that reduces to one vertex presents Z, of
  free rank 1.
* *The relative hyperbolicity note*, that no GBS group is hyperbolic
  relative to proper subgroups, is printed exactly when the graph does not
  reduce to a point: Z is hyperbolic.
* *The trichotomy branch* is ``surjects_Z`` when the graph reduces to a
  point (Z) or has a cycle (a stable letter maps onto Z), and otherwise
  ``cyclic_normal_subgroup``: a tree of cyclic groups has a central power.
* *Modulus*: the signed potential psi(v) = psi(u) k_u / k_v along the
  tree makes every non-tree edge's cycle gain psi(u) k_u / (k_v psi(v)),
  and these generate the image of the modular homomorphism in Q*.  The
  printed ratios must generate the same subgroup.  Q* is {±1} x Z^(primes),
  so each ratio is the integer vector (sign, prime valuations), and two
  subgroups agree when the lattices their vectors span, each with
  2 e_sign added, have one Hermite normal form.

Two passes run the referee: a derandomised hypothesis strategy (1 to 4
vertices, a spanning tree plus up to 3 edges, exponents ±1..±6), and every
graph of up to 2 vertices and 3 edges with exponents ±1..±3, up to
renumbering the vertices, reordering the edges and reversing an edge.
"""

from collections import deque
from fractions import Fraction
from itertools import combinations_with_replacement, product

from hypothesis import given, settings, strategies as st

from gogz.graphs import parse_graph
from gogz.verdicts import analyze

def graph_text(n: int, edges) -> str:
    lines = [f"vertex {v} rank=1 gens=x{v}" for v in range(n)]
    lines += [f'edge {e} {u} {v} minus="x{u}^{ku}" plus="x{v}^{kv}"' for e, (u, v, ku, kv) in enumerate(edges)]
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ referee


def potentials(n: int, edges):
    """(phi, psi, tree): the absolute and signed potentials along a BFS
    tree from vertex 0, and the indices of the tree's edges."""
    phi, psi, tree = {0: Fraction(1)}, {0: Fraction(1)}, set()
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for e, (u, v, ku, kv) in enumerate(edges):
            for here, there, k_here, k_there in ((u, v, ku, kv), (v, u, kv, ku)):
                if here == x and there not in phi:
                    phi[there] = phi[here] * abs(k_here) / abs(k_there)
                    psi[there] = psi[here] * Fraction(k_here, k_there)
                    tree.add(e)
                    queue.append(there)
    assert len(phi) == n, "the graph is connected"
    return phi, psi, tree


def reduces_to_a_point(n: int, edges) -> bool:
    """Whether contracting edges with an end of exponent ±1 leaves one
    vertex and no edge."""
    if len(edges) != n - 1:  # a connected graph with a cycle keeps it
        return False
    live = [list(edge) for edge in edges]
    while live:
        edge = next((e for e in live if abs(e[2]) == 1 or abs(e[3]) == 1), None)
        if edge is None:
            return False
        live.remove(edge)
        u, v, ku, kv = edge if abs(edge[2]) == 1 else (edge[1], edge[0], edge[3], edge[2])
        # a_u = a_v^(ku kv): u's ends move to v with their exponents scaled
        for e in live:
            for side in (0, 1):
                if e[side] == u:
                    e[side], e[side + 2] = v, e[side + 2] * ku * kv
    return True


def valuation_vector(r: Fraction, primes):
    """(sign bit, v_p(r) for p in primes) of a nonzero rational r."""
    out = [1 if r < 0 else 0]
    for p in primes:
        exponent = 0
        for part, step in ((abs(r.numerator), 1), (r.denominator, -1)):
            while part % p == 0:
                part //= p
                exponent += step
        out.append(exponent)
    return out


def prime_factors(m: int):
    found, p = set(), 2
    while p * p <= m:
        while m % p == 0:
            found.add(p)
            m //= p
        p += 1
    if m > 1:
        found.add(m)
    return found


def hermite_normal_form(rows, width: int):
    """The row Hermite normal form of the integer lattice ``rows`` span:
    positive pivots, entries above each pivot reduced into [0, pivot)."""
    rows = [list(r) for r in rows if any(r)]
    basis = []
    for col in range(width):
        while True:
            live = sorted((r for r in rows if r[col]), key=lambda r: abs(r[col]))
            if len(live) <= 1:
                break
            pivot = live[0]
            for r in live[1:]:
                q = r[col] // pivot[col]
                r[:] = [a - q * b for a, b in zip(r, pivot)]
        if live:
            pivot = live[0]
            rows.remove(pivot)
            if pivot[col] < 0:
                pivot[:] = [-a for a in pivot]
            for above in basis:
                q = above[col] // pivot[col]
                above[:] = [a - q * b for a, b in zip(above, pivot)]
            basis.append(pivot)
        rows = [r for r in rows if any(r)]
    return basis


def same_subgroup(ratios, generators) -> bool:
    """Whether two finite lists of nonzero rationals generate one subgroup of Q*."""
    primes = sorted(set().union(*(prime_factors(abs(r.numerator) * r.denominator) for r in [*ratios, *generators])))
    width = 1 + len(primes)
    sign = [2] + [0] * len(primes)
    lattices = [
        hermite_normal_form([sign, *(valuation_vector(r, primes) for r in rs)], width) for rs in (ratios, generators)
    ]
    return lattices[0] == lattices[1]


def referee_mismatches(n: int, edges):
    """What the report of ``analyze`` on the graph says that the referee
    does not: a list of (verdict, reported, expected)."""
    report = analyze(parse_graph(graph_text(n, edges)))
    phi, psi, tree = potentials(n, edges)
    balanced = all(phi[u] * abs(ku) == phi[v] * abs(kv) for u, v, ku, kv in edges)
    point = reduces_to_a_point(n, edges)
    gains = [psi[u] * Fraction(ku, kv) / psi[v] for e, (u, v, ku, kv) in enumerate(edges) if e not in tree]
    printed = [Fraction(str(r)) for r in report.balance.modulus]
    tri = report.trichotomy
    acyl = None if tri.acyl is None else tri.acyl.acyl_hyperbolic
    mismatches = [
        (what, got, want)
        for what, got, want in (
            ("balanced", report.balance.balanced, balanced),
            ("word hyperbolic", report.hyperbolicity.hyperbolic, point),
            ("acylindrically hyperbolic", acyl, None if point else False),
            ("free rank", tri.free_rank, 1 if point else None),
            ("relative hyperbolicity note", report.rel_hyp_note is not None, not point),
            ("trichotomy", tri.branch, "surjects_Z" if point or len(edges) >= n else "cyclic_normal_subgroup"),
        )
        if got != want
    ]
    if not same_subgroup(printed, gains):
        mismatches.append(("modulus generators", printed, gains))
    return mismatches


# ------------------------------------------------------------ random graphs

exponents = st.sampled_from([s * k for k in range(1, 7) for s in (1, -1)])


@st.composite
def gbs_graphs(draw):
    n = draw(st.integers(1, 4))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]  # a spanning tree
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3))
    edges = []
    for u, v in pairs:
        if draw(st.booleans()):
            u, v = v, u
        edges.append((u, v, draw(exponents), draw(exponents)))
    return n, draw(st.permutations(edges))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(gbs_graphs())
def test_random_gbs_graphs_agree_with_the_referee(graph):
    n, edges = graph
    assert referee_mismatches(n, edges) == []


# ------------------------------------------------------- every small graph


def reversed_edge(edge):
    u, v, ku, kv = edge
    return v, u, kv, ku


def small_graphs():
    """Every connected graph of up to 2 vertices and 3 edges with exponents
    ±1..±3, once up to renumbering the vertices, reordering the edges and
    reversing any of them: each edge is spelled as the lesser of it and its
    reverse, the edges in order, and of the two numberings of two vertices
    the one with the lesser spelling is kept."""
    ks = [s * k for k in range(1, 4) for s in (1, -1)]
    for n in (1, 2):
        kinds = sorted(
            {min(e, reversed_edge(e)) for u in range(n) for v in range(n) for e in product([u], [v], ks, ks)}
        )
        for size in range(4):
            for edges in combinations_with_replacement(kinds, size):
                if n == 2:
                    if all(u == v for u, v, _, _ in edges):
                        continue
                    swapped = [min(e, reversed_edge(e)) for e in ((1 - u, 1 - v, ku, kv) for u, v, ku, kv in edges)]
                    if sorted(swapped) < list(edges):
                        continue
                yield n, list(edges)


SMALL_GRAPHS = 1 + 21 + 231 + 1771 + 21 + 1107 + 34594  # one vertex, then two, by edge count


def test_every_small_gbs_graph_agrees_with_the_referee():
    count, mismatches = 0, []
    for n, edges in small_graphs():
        count += 1
        found = referee_mismatches(n, edges)
        if found:
            mismatches.append((n, edges, found))
    assert count == SMALL_GRAPHS
    assert mismatches[:3] == []
