"""Standard tableaux of bipartitions and their grading statistics.

A tableau stores its shape and its node path: the nodes holding the
entries 1..n, in that order.  Standard means each node is addable to
the shape the nodes before it fill, and the path ends at the tableau's
shape; then entries increase along rows and down columns within each
component.  For display, the rows are read box by box off the shape,
each box showing the entry the path places there, if any.  The
*column-initial* tableau fills 1..n down consecutive columns, left to
right, component 2 first.

The grading statistic is the codegree: peel the largest entry first,
counting addable minus removable same-residue nodes strictly *above*
the node being peeled, with value 0 on the empty tableau.

The codegree and the recursions read node degrees from a per-shape peel
table, ``peel_degrees``, built in one walk over ``partitions.signed_nodes``
that keeps a running count per residue.  The codegree and the word
recursion share one cached table per (shape, e), ``_peel_table``, across
all tableaux and words; ``graded_dimension``, memoised per shape
already, builds it uncached.  ``node_degree`` computes one node's degree
from its definition.  The tests check the table against it, and the
placement walk ``word_codegree_counts`` reads it through a memo of its
own on (shape, node, e), ``_node_degree``, beside ``_peel_table``.  So
the ``words`` suite of ``verify``, which counts its word buckets with
the walk and checks them against the word recursion, compares two
routes that share only ``signed_nodes``.

The enumeration grows one node path in place: each row keeps a count of
its filled boxes, an entry's node is pushed onto the path and popped off
it, and a finished tableau copies the path.  Only enumeration without a
word is bounded in size (``SIZE_BOUND``): a word prunes the placements
to the tableaux that carry it.  ``word_codegree_counts`` places entries
in the same order, from the same row slots (``_row_slots``), but builds
no tableau: it counts (residue sequence, codegree) pairs over partial
fillings, level by level, merging the fillings that agree in filled
boxes, word so far and codegree so far; it has the size bound of
enumeration without a word.  The word recursion,
``word_graded_dimensions``, keeps ``{exponent: coefficient}`` dicts per
sub-shape, one memo level per prefix length, and takes its words in
sorted order: a word reuses the levels of the prefix it shares with the
word before it, and the levels past that prefix are cleared, so the memo
never holds more than one word's.  ``word_graded_dimension`` is its
one-word call.

Graded dimensions have three routes.  ``graded_dimension`` is the peel
recursion on ``LaurentPoly`` values, memoised per (shape, e);
``graded_dimension_by_enumeration`` counts the enumerated tableaux by
codegree; and ``packed_graded_dimension`` runs the same peel on the bead
codes of ``partitions.BeadLayout`` and builds no polynomial.  It returns
the lowest exponent, low, and q^-low times the graded dimension at
q = 2^w, one int, adding each sub-shape's int shifted by w bits per step
of its exponent above low.  Its memo, code -> (low, int), is one dict per
(e, layout bound, w), held by the ``lru_cache`` ``_bead_peel``, so that
emptying the package's caches empties it.  The dimension balance of
``verify`` reads the packed route, and ``fock.simple_graded_dims_from``
the polynomial one, which it needs to check bar-invariance and
positivity.  Nothing else is memoised across calls, so a sweep over many
shapes holds no memory beyond these memos and the shared peel tables and
degrees.
"""

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .laurent import LaurentPoly, ONE
from .partitions import (
    BeadLayout, Bipartition, Node, as_bipartition, check_e,
    conjugate_partition, residue, size, addable_nodes, removable_nodes,
    remove_node, signed_nodes, EMPTY_BP,
)

SIZE_BOUND = 25


@dataclass(frozen=True)
class Tableau:
    """A tableau of ``shape``: ``nodes[k-1]`` is the node holding entry k."""
    shape: Bipartition
    nodes: tuple[Node, ...]

    @property
    def rows(self) -> tuple[tuple[tuple[int | None, ...], ...], ...]:
        """Each component's rows of the shape, top to bottom, as the
        entries in their boxes left to right: the first entry the path
        places in a box, or None where it places none."""
        at: dict[Node, int] = {}
        for k, node in enumerate(self.nodes, start=1):
            at.setdefault(node, k)
        return tuple(tuple(tuple(at.get((r, c, m)) for c in range(1, length + 1))
                           for r, length in enumerate(comp, start=1))
                     for m, comp in enumerate(self.shape, start=1))

    def __str__(self):
        """The rows drawn box by box, an empty box as ``.``, and the node
        path after them unless the boxes hold each entry exactly once."""
        rows = self.rows
        text = "|".join("[" + "/".join(",".join("." if k is None else str(k)
                                                for k in row) for row in comp) + "]"
                        for comp in rows)
        placed = sum(k is not None for comp in rows for row in comp for k in row)
        return text if placed == len(self.nodes) else f"{text} with nodes {self.nodes}"


def _row_slots(shape: Bipartition) -> list[tuple]:
    """The placement order of the enumeration: one slot per row, above to
    below, as (slot index, slot of the row above or None, the row's nodes
    left to right, r).  With filled[s] counting the boxes of slot s that
    hold entries, slot s takes its next box, row[filled[s]], when the row
    is not full and the row above holds more filled boxes."""
    slots = []
    for m, comp in ((1, shape[0]), (2, shape[1])):
        for r, length in enumerate(comp, start=1):
            above = len(slots) - 1 if r > 1 else None
            slots.append((len(slots), above,
                          tuple((r, c, m) for c in range(1, length + 1)), r))
    return slots


def _checked_word(word, n: int, e: int) -> tuple[int, ...]:
    """word as a tuple, refused unless it has n letters, each a residue in
    0..e-1: a letter is never read mod e."""
    word = tuple(word)
    if len(word) != n:
        raise ValueError(f"word length {len(word)} != size {n}")
    residues = range(e)
    for x in word:
        if x not in residues:
            raise ValueError(f"letter {x} is not a residue 0..{e - 1} for e={e}")
    return word


def standard_tableaux(shape: Bipartition, word=None,
                      e: int | None = None) -> list[Tableau]:
    """All standard tableaux of ``shape`` in a deterministic order (entries
    placed 1..n, candidate nodes tried from above to below).

    When ``word`` is given, only tableaux whose residue sequence equals it
    are produced, pruning as entries are placed, and a word of another
    length or with a letter outside 0..e-1 is refused; without one, a
    shape of more than ``SIZE_BOUND`` boxes is refused.
    """
    n = size(shape)
    if word is None:
        if n > SIZE_BOUND:
            raise ValueError(f"size {n} exceeds bound {SIZE_BOUND}")
    else:
        check_e(e)
        word = _checked_word(word, n, e)
    slots = _row_slots(shape)
    filled = [0] * len(slots)
    path: list[Node] = []
    out: list[Tableau] = []

    def place(k):
        if k == n:
            out.append(Tableau(shape, tuple(path)))
            return
        want = None if word is None else word[k]
        for s, above, row, r in slots:
            c0 = filled[s]
            if c0 == len(row) or (above is not None and filled[above] <= c0):
                continue
            if want is not None and (c0 + 1 - r) % e != want:
                continue
            filled[s] = c0 + 1
            path.append(row[c0])
            place(k + 1)
            path.pop()
            filled[s] = c0

    place(0)
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
    """Entries 1..n down consecutive columns, left to right, component 2
    first."""
    return Tableau(shape, tuple((r, c, m) for m in (2, 1)
                                for c, height in enumerate(
                                    conjugate_partition(shape[m - 1]), start=1)
                                for r in range(1, height + 1)))


def residue_sequence(t: Tableau, e: int) -> tuple[int, ...]:
    """Residues of the nodes holding 1..n."""
    check_e(e)
    return tuple([(c - r) % e for r, c, _ in t.nodes])


def node_degree(shape: Bipartition, node: Node, e: int) -> int:
    """Addable minus removable nodes of the residue of ``node`` strictly
    above it in ``shape``; ``node`` itself lies in ``shape``."""
    check_e(e)
    r, _, m = node
    i = residue(node, e)
    return sum(sign for sign, nodes in ((1, addable_nodes(shape)),
                                        (-1, removable_nodes(shape)))
               for a in nodes if residue(a, e) == i and (a[2], a[0]) < (m, r))


def peel_degrees(shape: Bipartition, e: int) -> dict[Node, tuple[Bipartition, int]]:
    """removable node -> (shape without it, its degree), in top-to-bottom
    order; the degree is ``node_degree(shape, node, e)``, read from running
    per-residue counts over one top-to-bottom walk of the signed nodes.  A
    row's addable node, counted before its removable node, never shares
    its residue, since e >= 2."""
    check_e(e)
    counts = [0] * e  # addable minus removable nodes of each residue so far
    table = {}
    for sign, node in signed_nodes(shape):
        i = (node[1] - node[0]) % e
        if sign < 0:
            table[node] = (remove_node(shape, node), counts[i])
        counts[i] += sign
    return table


# one table per (shape, e), shared by every tableau and word bucket
_peel_table = lru_cache(maxsize=None)(peel_degrees)


@lru_cache(maxsize=None)
def _node_degree(shape: Bipartition, node: Node, e: int) -> int:
    """``node_degree``, once per (shape, node, e) across every shape's
    placement walk; a miss calls it by its module name, so a patch of
    ``node_degree`` reaches the walk once the memo is cleared."""
    return node_degree(shape, node, e)


def codegree(t: Tableau, e: int) -> int:
    """The codegree of t (module docstring) at e, read from the peel
    tables largest entry first; the peel refuses t unless it is standard,
    each node removable from the shape that the later entries leave."""
    check_e(e)
    shape, total = t.shape, 0
    try:
        # a shape that is not a bipartition could peel to empty all the same
        if as_bipartition(shape) == shape:
            for node in reversed(t.nodes):
                shape, d = _peel_table(shape, e)[node]
                total += d
            if shape == EMPTY_BP:
                return total
    except (KeyError, ValueError):  # a node not removable; a part out of order
        pass
    raise ValueError(f"tableau is not standard: {t}")


def word_codegree_counts(shape: Bipartition, es) -> list[dict[tuple, int]]:
    """For each e in ``es``, ``{(residue sequence, codegree): number of
    standard tableaux}`` over the standard tableaux of ``shape``, counted
    without building one; a shape of more than ``SIZE_BOUND`` boxes is
    refused, as by ``standard_tableaux`` without a word.

    The walk places entries 1..n level by level over partial fillings, in
    the placement order of ``standard_tableaux``.  Placing a node adds its
    ``node_degree`` in the shape filled once it is placed; summed over the
    placements, these are the degrees of peeling the largest entry first,
    so the sum is the codegree.  The placements left, and their degrees,
    depend only on the boxes filled, so fillings that agree in filled
    boxes, word so far and codegree so far are merged into one count.
    """
    es = tuple(es)  # read at every placement; an iterator would be spent
    for e in es:
        check_e(e)
    n = size(shape)
    if n > SIZE_BOUND:
        raise ValueError(f"size {n} exceeds bound {SIZE_BOUND}")
    slots = _row_slots(shape)
    rows1 = len(shape[0])
    # filled boxes per slot -> one {(word so far, codegree so far): count}
    # per e
    level = {(0,) * len(slots): [{((), 0): 1} for _ in es]}
    for _ in range(n):
        grown_level: dict[tuple, tuple[Bipartition, list[dict]]] = {}
        for filled, counts in level.items():
            for s, above, row, r in slots:
                c0 = filled[s]
                if c0 == len(row) or (above is not None and filled[above] <= c0):
                    continue
                grown = filled[:s] + (c0 + 1,) + filled[s + 1:]
                got = grown_level.get(grown)
                if got is None:
                    # rows fill top to bottom, so the nonzero counts are
                    # each component's row lengths
                    sub = (tuple([c for c in grown[:rows1] if c]),
                           tuple([c for c in grown[rows1:] if c]))
                    got = grown_level[grown] = (sub, [{} for _ in es])
                sub, targets = got
                node, content = row[c0], c0 + 1 - r
                for e, count, target in zip(es, counts, targets):
                    letter = (content % e,)
                    d = _node_degree(sub, node, e)
                    for (word, x), v in count.items():
                        key = (word + letter, x + d)
                        target[key] = target.get(key, 0) + v
        level = {filled: targets for filled, (_, targets) in grown_level.items()}
    (counts,) = level.values()
    return counts


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


def packed_graded_dimension(shape: Bipartition, e: int, w: int) -> tuple[int, int]:
    """``graded_dimension(shape, e)`` as (low, value): its lowest exponent,
    and q^-low times it at q = 2^w, by the same peel on bead codes
    (``partitions.BeadLayout``) with no polynomial built.  Removing the
    removable i-bead at b has the degree of ``peel_degrees``: the addable
    i-beads above b less the removable i-beads above it.  The value is
    exact for every w >= 1, and its base-2^w digits are the coefficients
    when 2^w exceeds them all (their sum is the number of standard
    tableaux, at most n!).  The layout's box bound is
    size(shape) rounded up to 31 mod 32, so one memo per (e, w) serves
    every shape of at most 31 boxes."""
    check_e(e)
    if w < 1:
        raise ValueError(f"packing width must be >= 1, got {w}")
    peel = _bead_peel(e, size(shape) | 31, w)
    x = peel.layout.encode(shape)
    return peel.memo.get(x) or peel(x)


class _BeadPeel:
    """The recursion of ``packed_graded_dimension`` at one layout and w,
    and its memo, code -> (low, value), seeded with the empty
    bipartition."""

    def __init__(self, e: int, bound: int, w: int):
        self.layout = BeadLayout(e, bound)
        self.w = w
        self.memo = {self.layout.empty: (0, 1)}

    def __call__(self, x: int) -> tuple[int, int]:
        """(low, value) at the code x, which the memo lacks; every
        coefficient counts tableaux, so none cancels, and the lowest
        exponent is the least over the removals: the sum so far is
        shifted up when a removal comes in lower."""
        memo, w = self.memo, self.w
        adds_all, rems_all = x & ~(x >> 1), x & ~(x << 1)
        low = None
        for adds, rems in zip(self.layout.add_masks, self.layout.rem_masks):
            rems &= rems_all
            if not rems:
                continue
            adds &= adds_all
            above = 0  # removable i-beads above b
            while rems:
                b = rems.bit_length() - 1
                rems ^= 1 << b
                sub = x ^ (3 << (b - 1))
                k, value = memo.get(sub) or self(sub)
                k += (adds >> b).bit_count() - above
                above += 1
                if low is None:
                    low, total = k, value
                elif k < low:
                    low, total = k, (total << w * (low - k)) + value
                else:
                    total += value << w * (k - low)
        got = memo[x] = (low, total)
        return got


# one recursion and memo per (e, layout bound, w), emptied with the
# other caches
_bead_peel = lru_cache(maxsize=None)(_BeadPeel)


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
    with the one before it.  Words are checked as by ``standard_tableaux``.
    """
    check_e(e)
    n = size(shape)
    words = [_checked_word(word, n, e) for word in words]
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


def v_tableau(shape: Bipartition, second_entries) -> Tableau:
    """The tableau of a one-row-per-component shape whose second component
    holds exactly the given entries."""
    if len(shape[0]) > 1 or len(shape[1]) > 1:
        raise ValueError(f"{shape} does not have one-row components")
    n = size(shape)
    second = sorted(int(x) for x in second_entries)
    if len(set(second)) != len(second) or len(second) != sum(shape[1]) \
            or any(not 1 <= x <= n for x in second):
        raise ValueError(f"bad second-component entries {tuple(second)} for {shape}")
    filled = {1: 0, 2: 0}
    path = []
    for k in range(1, n + 1):
        m = 2 if k in second else 1
        filled[m] += 1
        path.append((1, filled[m], m))
    return Tableau(shape, tuple(path))
