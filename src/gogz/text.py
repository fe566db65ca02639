"""The text grammar: how gogz reads and prints words, stable letters,
conjugators, chain steps and relations.

A vertex word is spelled as in a graph file, in blank-separated tokens
``name``, ``name^k`` and ``1`` that :meth:`~gogz.words.Alphabet.parse`
reads and :meth:`~gogz.words.Alphabet.format` prints; all else here is
built on those two.  An *item* is a vertex word or a stable letter
``('t', edge_id, k)``, a factor of :meth:`~gogz.engine.Engine.element_of`.
:func:`read_items` reads back what :func:`format_items` prints, up to
joining adjacent words at one vertex (``tests/test_text.py``).  A refusal
is a :class:`~gogz.errors.ParseError`, which a command exits 2 on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Tuple, Union

from .errors import ParseError
from .words import MAX_WORD_LETTERS, FreeWord, parse_int

if TYPE_CHECKING:
    from .graphs import GraphOfGroups

TLetter = Tuple[str, int, int]  # a stable letter ('t', edge_id, k)
Item = Union[FreeWord, TLetter]


def format_items(graph: GraphOfGroups, items: Iterable[Item]) -> str:
    """A product of items: each word in its vertex's alphabet, ``t_e`` or
    ``t_e^k`` for ``('t', e, k)``, and ``1`` for no items."""
    return " ".join(
        graph.vertices[item.vertex].alphabet.format(item)
        if isinstance(item, FreeWord)
        else f"t_{item[1]}" if item[2] == 1 else f"t_{item[1]}^{item[2]}"
        for item in items
    ) or "1"


def step_names(steps: Iterable[TLetter]) -> List[str]:
    """The names of chain steps: ``e3+`` for ``('t', 3, 1)``, ``e3-`` for ``('t', 3, -1)``."""
    return [f"e{eid}{'+' if k == 1 else '-'}" for _, eid, k in steps]


def read_items(graph: GraphOfGroups, text: str, letters: int = 0) -> Tuple[List[Item], int]:
    """The items of a product, one per token, and the running count of
    spelled-out letters, which starts at ``letters``.

    A generator token is read by the alphabet that owns the name, and
    ``t_<edge-id>^k`` (``t`` on a graph of one edge) into ``('t', edge_id,
    k)``; ``1`` is no item.  A name spelled like a stable letter that is
    also a generator is refused as ambiguous.  Like a word, a relation may
    spell at most :data:`MAX_WORD_LETTERS` letters, counting the edge
    crossings of each item's closed path in the engine: a vertex word at
    tree depth d adds 2d, and ``t_e^k`` spells |k| times the tree depths of
    both ends of e plus one.
    """
    owner = {name: v.alphabet for v in graph.vertices.values() for name in v.alphabet.names}
    depth = {graph.tree.root: 0}
    for s in graph.tree.steps:  # parents come first
        depth[s.child] = depth[s.parent] + 1
    items: List[Item] = []
    for token in text.split():
        name, caret, exp = token.partition("^")
        if name == "t" or name.startswith("t_"):
            if name in owner:
                raise ParseError(
                    f"ambiguous token {token!r}: {name!r} is a generator of vertex {owner[name].vertex}"
                    " and the spelling of a stable letter"
                )
            if name == "t" and len(graph.edges) != 1:
                raise ParseError("bare 't' is only unambiguous with a single edge; use t_<edge-id>")
            try:
                eid = next(iter(graph.edges)) if name == "t" else parse_int(name[2:])
            except ValueError:
                raise ParseError(f"bad stable letter {token!r}") from None
            if eid not in graph.edges:
                raise ParseError(f"unknown edge in {token!r}")
            try:
                k = parse_int(exp, signed=True) if caret else 1
            except ValueError:
                raise ParseError(f"bad exponent in token {token!r}") from None
            if k == 0:
                raise ParseError(f"zero exponent in token {token!r}")
            items.append(("t", eid, k))
            edge = graph.edges[eid]
            letters += abs(k) * (depth[edge.minus_vertex] + depth[edge.plus_vertex] + 1)
        elif token != "1":
            if name not in owner:
                raise ParseError(f"unknown generator or stable letter {token!r}")
            items.append(owner[name].parse(token))
            letters += len(items[-1]) + 2 * depth[owner[name].vertex]
        if letters > MAX_WORD_LETTERS:
            raise ParseError(f"relation longer than {MAX_WORD_LETTERS} letters at token {token!r}")
    return items, letters


def read_relation(graph: GraphOfGroups, text: str) -> List[List[Item]]:
    """The items of the two sides of ``LEFT = RIGHT``, read by
    :func:`read_items` with one letter count; a refusal names its side."""
    left, eq, right = text.partition("=")
    if not eq or "=" in right:
        raise ParseError("--relation wants exactly one '='")
    sides, letters = [], 0
    for what, side in (("left side", left), ("right side", right)):
        try:
            items, letters = read_items(graph, side, letters)
        except ParseError as exc:
            raise ParseError(f"{what}: {exc}") from None
        sides.append(items)
    return sides


def read_located_word(graph: GraphOfGroups, spec: str, flag: str) -> FreeWord:
    """The word ``V:WORD`` names, in vertex V's alphabet; a refusal names ``flag``."""
    vertex_text, sep, word_text = spec.partition(":")
    if not sep:
        raise ParseError(f"{flag} wants '<vertex>:<word>', got {spec!r}")
    try:
        vid = parse_int(vertex_text)
    except ValueError:
        raise ParseError(f"{flag}: bad vertex id {vertex_text!r}") from None
    if vid not in graph.vertices:
        raise ParseError(f"{flag}: unknown vertex {vid}")
    return graph.vertices[vid].alphabet.parse(word_text)
