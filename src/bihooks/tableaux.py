"""Standard tableaux of bipartitions and their grading statistics.

A tableau stores its shape and, for each component, the rows of entries.
Standard means entries increase along rows and down columns within each
component.  The *column-initial* tableau fills 1..n down consecutive
columns, left to right, component 2 first.

The grading statistic is the codegree: peel the largest entry first,
counting addable minus removable same-residue nodes strictly *above*
the node being peeled, with value 0 on the empty tableau.

Every production route reads node degrees from a per-shape peel table,
``peel_degrees``, built in one pass over the shape's addable and
removable nodes.  The codegree and the word recursion share one cached
table per (shape, e) across all tableaux and words;
``graded_dimension``, memoised per shape already, builds it uncached.
``node_degree`` computes one node's degree from its definition and is the
reference route the tests check the table against.

The enumeration builds each tableau's rows in place, one list per row
that entries are appended to and popped from, and copies them out only at
a finished tableau.  ``codegrees`` reads one tableau's codegree at several
e with one standardness check and one peel order; ``codegree`` is its
one-e call.  The word recursion, ``word_graded_dimensions``, keeps
``{exponent: coefficient}`` dicts per sub-shape, one memo level per
prefix length, and takes its words in sorted order: a word reuses the
levels of the prefix it shares with the word before it, and the levels
past that prefix are cleared, so the memo never holds more than one
word's.  ``word_graded_dimension`` is its one-word call.  Nothing is
memoised across calls, so a sweep over many shapes holds no memory
beyond the shared peel tables.
"""

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import lt

from .laurent import LaurentPoly, ONE
from .partitions import (
    Bipartition, Node, check_e, residue, size, node_position,
    addable_nodes, removable_nodes, remove_node, EMPTY_BP,
)

SIZE_BOUND = 25


@dataclass(frozen=True)
class Tableau:
    shape: Bipartition
    rows: tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]

    @property
    def n(self) -> int:
        return size(self.shape)

    @cached_property
    def nodes(self) -> tuple[Node, ...]:
        """The nodes holding the entries 1..n, in that order."""
        out = [None] * self.n
        for m in (1, 2):
            for r, row in enumerate(self.rows[m - 1], start=1):
                for c, val in enumerate(row, start=1):
                    out[val - 1] = (r, c, m)
        return tuple(out)

    def __str__(self):
        def comp(rows):
            return "[" + "/".join(",".join(str(v) for v in row) for row in rows) + "]"
        return comp(self.rows[0]) + "|" + comp(self.rows[1])


def is_standard(t: Tableau) -> bool:
    entries: list[int] = []
    for rows, shape_rows in zip(t.rows, t.shape):
        if tuple(map(len, rows)) != shape_rows:
            return False
        above = ()
        for row in rows:
            # strictly increasing along the row and down each column; the
            # guards skip the comparison on a one-entry row and a top row
            if len(row) > 1 and not all(map(lt, row, row[1:])):
                return False
            if above and not all(map(lt, above, row)):
                return False
            entries += row
            above = row
    # the row lengths are the shape's, so there are t.n entries
    entries.sort()
    return entries == list(range(1, len(entries) + 1))


def _rows_from_fill(shape: Bipartition, fill: dict[Node, int]):
    """The rows of both components of ``shape``, read from node -> entry."""
    return tuple(tuple(tuple(fill[(r, c, m)] for c in range(1, length + 1))
                       for r, length in enumerate(shape[m - 1], start=1))
                 for m in (1, 2))


def standard_tableaux(shape: Bipartition, word=None, e: int | None = None,
                      bound: int = SIZE_BOUND) -> list[Tableau]:
    """All standard tableaux of ``shape`` in a deterministic order (entries
    placed 1..n, candidate nodes tried from above to below).

    When ``word`` is given, only tableaux whose residue sequence equals it
    are produced, pruning as entries are placed.
    """
    n = size(shape)
    if n > bound:
        raise ValueError(f"size {n} exceeds bound {bound}")
    if word is not None:
        check_e(e)
        word = tuple(x % e for x in word)
        if len(word) != n:
            raise ValueError(f"word length {len(word)} != size {n}")
    first, second = [[] for _ in shape[0]], [[] for _ in shape[1]]
    # one slot per row, above to below: (row, row above or None, length,
    # 0-based row index); the next entry of a row goes to column len(row)
    slots = []
    for rows, comp in ((first, shape[0]), (second, shape[1])):
        above = None
        for r0, (row, length) in enumerate(zip(rows, comp)):
            slots.append((row, above, length, r0))
            above = row
    out: list[Tableau] = []

    def place(entry):
        if entry > n:
            out.append(Tableau(shape, (tuple(map(tuple, first)),
                                       tuple(map(tuple, second)))))
            return
        want = None if word is None else word[entry - 1]
        for row, above, length, r0 in slots:
            c0 = len(row)
            if c0 == length or (above is not None and len(above) <= c0):
                continue
            if want is not None and (c0 - r0) % e != want:
                continue
            row.append(entry)
            place(entry + 1)
            row.pop()

    place(1)
    # place reaches itself through its closure cell; emptying the cell
    # frees out's tableaux when the caller drops them, not at the next
    # cycle collection
    del place
    return out


@lru_cache(maxsize=None)
def count_standard(shape: Bipartition) -> int:
    """Number of standard tableaux, by peeling removable nodes (independent
    of the placement enumeration)."""
    if shape == EMPTY_BP:
        return 1
    return sum(count_standard(remove_node(shape, a)) for a in removable_nodes(shape))


def column_initial_tableau(shape: Bipartition) -> Tableau:
    fill = {}
    entry = 1
    for m in (2, 1):
        comp = shape[m - 1]
        if not comp:
            continue
        heights = [sum(1 for part in comp if part >= c) for c in range(1, comp[0] + 1)]
        for c, h in enumerate(heights, start=1):
            for r in range(1, h + 1):
                fill[(r, c, m)] = entry
                entry += 1
    return Tableau(shape, _rows_from_fill(shape, fill))


def residue_sequence(t: Tableau, e: int) -> tuple[int, ...]:
    """Residues of the nodes holding 1..n."""
    check_e(e)
    return tuple([(c - r) % e for r, c, _ in t.nodes])


def node_degree(shape: Bipartition, node: Node, e: int) -> int:
    """Addable minus removable nodes of the residue of ``node`` strictly
    above it in ``shape``; ``node`` itself lies in ``shape``."""
    check_e(e)
    i, pos = residue(node, e), node_position(node)
    return sum(sign for sign, nodes in ((1, addable_nodes(shape)),
                                        (-1, removable_nodes(shape)))
               for a in nodes if residue(a, e) == i and node_position(a) < pos)


def peel_degrees(shape: Bipartition, e: int) -> dict[Node, tuple[Bipartition, int]]:
    """removable node -> (shape without it, its degree), in top-to-bottom
    order; the degree is ``node_degree(shape, node, e)``, with every node
    counted from one listing of the shape's addable and removable nodes."""
    check_e(e)
    signed = [((c - r) % e, (m, r), 1) for r, c, m in addable_nodes(shape)]
    removable = removable_nodes(shape)
    signed += [((c - r) % e, (m, r), -1) for r, c, m in removable]
    table = {}
    for node in removable:
        r, c, m = node
        i, pos = (c - r) % e, (m, r)
        table[node] = (remove_node(shape, node),
                       sum(sign for j, p, sign in signed if j == i and p < pos))
    return table


# one table per (shape, e), shared by every tableau and word bucket
_peel_table = lru_cache(maxsize=None)(peel_degrees)


def codegrees(t: Tableau, es) -> list[int]:
    """The codegree of t (module docstring) at each e in ``es``, read from
    the peel tables: one standardness check and one node list, ``t.nodes``,
    serve every e."""
    for e in es:
        check_e(e)
    if not is_standard(t):
        raise ValueError(f"tableau is not standard: {t}")
    out = []
    for e in es:
        shape, total = t.shape, 0
        for node in reversed(t.nodes):
            shape, d = _peel_table(shape, e)[node]
            total += d
        out.append(total)
    return out


def codegree(t: Tableau, e: int) -> int:
    """The codegree of t at one e; see ``codegrees``."""
    return codegrees(t, (e,))[0]


@lru_cache(maxsize=None)
def graded_dimension(shape: Bipartition, e: int) -> LaurentPoly:
    """Sum of q^codegree over all standard tableaux, computed by peeling
    removable nodes (no enumeration)."""
    check_e(e)
    if shape == EMPTY_BP:
        return ONE
    # every coefficient counts tableaux, so none cancels
    total: dict[int, int] = {}
    # uncached: this function is memoised per shape already
    for sub, d in peel_degrees(shape, e).values():
        for k, v in graded_dimension(sub, e).iter_terms():
            # the memo holds every value: k + 0 would build a new int for
            # each exponent below -5, where k shares the one held already
            if d:
                k += d
            total[k] = total.get(k, 0) + v
    return LaurentPoly._raw(total)


def graded_dimension_by_enumeration(shape: Bipartition, e: int) -> LaurentPoly:
    """Independent route: enumerate the tableaux and count them by
    codegree."""
    counts = Counter(codegree(t, e) for t in standard_tableaux(shape))
    return LaurentPoly._raw(dict(counts))


def word_graded_dimensions(shape: Bipartition, words, e: int) -> list[LaurentPoly]:
    """Sum of q^codegree over standard tableaux with each given residue
    sequence, in the order given, by a peel recursion keyed on sub-shapes.

    The sub-shapes of size k depend only on a word's first k letters, so
    the memo keeps one level per prefix length and, taking the words in
    sorted order, clears only the levels past the prefix a word shares
    with the one before it.
    """
    check_e(e)
    n = size(shape)
    words = [tuple(x % e for x in word) for word in words]
    for word in words:
        if len(word) != n:
            raise ValueError(f"word length {len(word)} != size {n}")
    # memo[k]: sub-shape of size k -> {exponent: coefficient}; every
    # coefficient counts tableaux, so none is ever 0
    memo: list[dict[Bipartition, dict[int, int]]] = [{} for _ in range(n + 1)]
    memo[0][EMPTY_BP] = {0: 1}

    dims = {}
    prev: tuple[int, ...] = ()
    for word in sorted(set(words)):
        shared = 0
        while shared < len(prev) and word[shared] == prev[shared]:
            shared += 1
        for level in memo[shared + 1:]:
            level.clear()
        dims[word] = LaurentPoly._raw(_word_peel(shape, n, word, memo, e))
        prev = word
    return [dims[word] for word in words]


def _word_peel(sub: Bipartition, k: int, word, memo, e: int) -> dict[int, int]:
    """The recursion of ``word_graded_dimensions`` at a sub-shape of size
    k.  Module-level, since a nested function calling itself would form a
    closure cycle that holds the memo until the cycle collector runs."""
    level = memo[k]
    got = level.get(sub)
    if got is not None:
        return got
    target = word[k - 1]
    total: dict[int, int] = {}
    for (r, c, _), (smaller, d) in _peel_table(sub, e).items():
        if (c - r) % e == target:
            for x, v in _word_peel(smaller, k - 1, word, memo, e).items():
                total[x + d] = total.get(x + d, 0) + v
    level[sub] = total
    return total


def word_graded_dimension(shape: Bipartition, word, e: int) -> LaurentPoly:
    """Sum of q^codegree over standard tableaux with the given residue
    sequence; see ``word_graded_dimensions``."""
    return word_graded_dimensions(shape, (word,), e)[0]


def gg_word(nu, e: int) -> tuple[int, ...]:
    """The residue word 0^n1 1^n1 .. (e-1)^n1 0^n2 .. for a composition nu."""
    check_e(e)
    if any(part < 1 for part in nu):
        raise ValueError(f"composition parts must be >= 1, got {tuple(nu)}")
    out = []
    for part in nu:
        for i in range(e):
            out.extend([i] * part)
    return tuple(out)


def one_row_components(shape: Bipartition) -> bool:
    return len(shape[0]) <= 1 and len(shape[1]) <= 1


def v_tableau(shape: Bipartition, second_entries) -> Tableau:
    """The tableau of a one-row-per-component shape whose second component
    holds exactly the given entries (in increasing order)."""
    if not one_row_components(shape):
        raise ValueError(f"{shape} does not have one-row components")
    n = size(shape)
    second = tuple(sorted(int(x) for x in second_entries))
    if len(second) != sum(shape[1]) or any(not 1 <= x <= n for x in second):
        raise ValueError(f"bad second-component entries {second} for {shape}")
    first = tuple(x for x in range(1, n + 1) if x not in set(second))
    rows1 = (first,) if first else ()
    rows2 = (second,) if second else ()
    return Tableau(shape, (rows1, rows2))

