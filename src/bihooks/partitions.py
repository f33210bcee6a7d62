"""Partitions, bipartitions, Young diagrams, nodes and residues.

Conventions used throughout the package:

* a partition is a tuple of weakly decreasing positive integers
  (trailing zeros are stripped, so equality is structural);
* a bipartition is a pair of partitions, drawn with component 1 on top
  of component 2;
* a node is a triple ``(row, col, comp)`` with 1-based row and column
  and ``comp`` in {1, 2};
* the node ``(r, c, m)`` is *above* ``(r', c', m')`` when ``m < m'`` or
  (``m == m'`` and ``r < r'``); node lists are always emitted from top
  to bottom in this order;
* ``signed_nodes`` is the one listing of a shape's addable and removable
  nodes, from one walk over the rows: ``addable_nodes``,
  ``removable_nodes``, the crystal's i-signatures and the tableau peel
  table all read it;
* residues are taken mod ``e`` with bicharge (0, 0), so the residue of
  ``(r, c, m)`` is ``(c - r) % e``;
* ``BeadLayout`` is the one bead-code (abacus) form of a bipartition,
  one int, read by the Fock solver's shape tables and by the packed
  graded dimension of ``tableaux``.

The canonical text form of a bipartition separates components with
``|`` and renders the empty component as ``-``, e.g. ``21|15``,
``6,1|3`` and ``-|-``.
"""

import operator
from functools import lru_cache
from types import MappingProxyType

Partition = tuple[int, ...]
Bipartition = tuple[Partition, Partition]
Node = tuple[int, int, int]

EMPTY_BP: Bipartition = ((), ())


def as_partition(parts) -> Partition:
    """Validate and canonicalise an iterable of parts; strips trailing zeros."""
    parts = tuple(parts)  # read once, so an error names all of it
    out = []
    prev = None
    for p in parts:
        p = int(p)
        if p < 0:
            raise ValueError(f"negative part {p}")
        if prev is not None and p > prev:
            raise ValueError(f"parts not weakly decreasing: {parts}")
        prev = p
        if p > 0:
            out.append(p)
    return tuple(out)


def as_bipartition(pair) -> Bipartition:
    c1, c2 = pair
    return (as_partition(c1), as_partition(c2))


def check_e(e: int) -> int:
    if not isinstance(e, int) or e < 2:
        raise ValueError(f"quantum characteristic must be an integer >= 2, got {e}")
    return e


def size(bp: Bipartition) -> int:
    return sum(bp[0]) + sum(bp[1])


def conjugate_partition(p: Partition) -> Partition:
    """Column lengths of p, in one pass up its rows: the columns from the
    part below row r, exclusive, to p[r-1] have length r."""
    out: list[int] = []
    for r in range(len(p), 0, -1):
        out += [r] * (p[r - 1] - len(out))
    return tuple(out)


def conjugate(bp: Bipartition) -> Bipartition:
    """The conjugate bipartition (c2', c1'): components swap and transpose."""
    return (conjugate_partition(bp[1]), conjugate_partition(bp[0]))


def residue(node: Node, e: int) -> int:
    r, c, m = node
    return (c - r) % e


def hook_length(p: Partition, row: int, col: int) -> int:
    """Arm + leg + 1 of the node (row, col), which must lie in the diagram."""
    if not (1 <= row <= len(p) and 1 <= col <= p[row - 1]):
        raise ValueError(f"node ({row},{col}) outside diagram of {p}")
    conj = conjugate_partition(p)
    return p[row - 1] - col + conj[col - 1] - row + 1


def signed_nodes(bp: Bipartition) -> list[tuple[int, Node]]:
    """Every addable node (sign 1) and removable node (sign -1) of ``bp``,
    top to bottom, from one walk over the rows; a row's addable node
    comes before its removable node."""
    out: list[tuple[int, Node]] = []
    for m in (1, 2):
        p = bp[m - 1]
        above = None  # length of the row above, None on the first row
        # the empty row below the last holds the first node of a new row
        for r, (cur, below) in enumerate(zip(p + (0,), p[1:] + (0, 0)), start=1):
            if above is None or above > cur:
                out.append((1, (r, cur + 1, m)))
            if cur > below:
                out.append((-1, (r, cur, m)))
            above = cur
    return out


def addable_nodes(bp: Bipartition) -> list[Node]:
    """All addable nodes of ``bp`` from top to bottom."""
    return [node for sign, node in signed_nodes(bp) if sign > 0]


def removable_nodes(bp: Bipartition) -> list[Node]:
    """All removable nodes of ``bp`` from top to bottom."""
    return [node for sign, node in signed_nodes(bp) if sign < 0]


def add_node(bp: Bipartition, node: Node) -> Bipartition:
    r, c, m = node
    comp = list(bp[m - 1])
    if r == len(comp) + 1:
        comp.append(0)
    if not (1 <= r <= len(comp) and c == comp[r - 1] + 1):
        raise ValueError(f"{node} not addable to {format_bipartition(bp)}")
    if r > 1 and comp[r - 2] < c:
        raise ValueError(f"{node} not addable to {format_bipartition(bp)}")
    comp[r - 1] += 1
    new = tuple(comp)
    return (new, bp[1]) if m == 1 else (bp[0], new)


def remove_node(bp: Bipartition, node: Node) -> Bipartition:
    r, c, m = node
    comp = list(bp[m - 1])
    if not (1 <= r <= len(comp) and c == comp[r - 1]):
        raise ValueError(f"{node} not removable from {format_bipartition(bp)}")
    if r < len(comp) and comp[r] == comp[r - 1]:
        raise ValueError(f"{node} not removable from {format_bipartition(bp)}")
    comp[r - 1] -= 1
    if comp[r - 1] == 0:
        comp.pop()
    new = tuple(comp)
    return (new, bp[1]) if m == 1 else (bp[0], new)


class BeadLayout:
    """Bead codes (James's abacus) of the bipartitions of at most ``bound``
    boxes at e: one int per shape, holding the beta-sets of both
    components.

    Each component is a beta-set of ``beads`` beads, row j (from 0) of a
    part p putting a bead at p + beads - 1 - j, in a field of ``width``
    bits, with component 1 in the high field, so a node above another has
    its bead at a higher bit.  Both counts are multiples of e, so the bead
    moved by adding the node at the end of row j sits at a position b with
    (b + 1) % e its residue, and the bead moved by removing one has b % e.
    Every bipartition of at most ``bound`` boxes has a code, with the
    bottom bead of each field at bit 0 and its top bit empty, and
    ``encode`` refuses a larger shape.

    For a code x, the beads that move up one place to add an i-node are
    ``x & ~(x >> 1) & add_masks[i]``, and those that move down one place
    to remove one are ``x & ~(x << 1) & rem_masks[i]``; moving the bead at
    b up is ``x ^ (3 << b)``, and down ``x ^ (3 << (b - 1))``.  A removal
    never leaves the codes: ``rem_masks`` leaves out bit 0 of each field,
    which has no empty place below it.  An addition may: a bead at a bit
    of ``edge`` would move off bit 0 or onto the top bit of a field, which
    only a shape of more than ``bound`` boxes can ask for, and past those
    edges a field would lose its last empty row, or component 2 would read
    component 1's bottom bead as its own."""

    def __init__(self, e: int, bound: int):
        self.e = e
        self.bound = bound
        # more beads than rows, and room for a first row of bound boxes
        # below the top bit
        self.beads = k = -(-(bound + 1) // e) * e
        self.width = w = -(-(bound + k + 1) // e) * e
        every = ((1 << 2 * w) - 1) // ((1 << e) - 1)  # bits 0, e, 2e, ...
        self.add_masks = [every << (i - 1) % e for i in range(e)]
        # the bead at bit 0 of a field has no empty place below it
        self.rem_masks = [every << i for i in range(e)]
        self.rem_masks[0] ^= 1 | 1 << w
        # an addable bead here would leave bit 0 or reach the top bit
        self.edge = 1 | 1 << (w - 2) | 1 << w | 1 << (2 * w - 2)
        self.empty = ((1 << k) - 1) * (1 | 1 << w)

    def encode(self, bp: Bipartition) -> int:
        if size(bp) > self.bound:
            raise ValueError(f"{format_bipartition(bp)} has more than "
                             f"{self.bound} boxes")
        k, code = self.beads, 0
        for comp in bp:
            code = (code << self.width) | (1 << (k - len(comp))) - 1
            for j, part in enumerate(comp):
                code |= 1 << (part + k - 1 - j)
        return code

    def decode(self, code: int) -> Bipartition:
        k, w = self.beads, self.width
        out = []
        for field in (code >> w, code & ((1 << w) - 1)):
            parts = []
            for j in range(k - 1, -1, -1):
                top = field.bit_length() - 1
                if top == j:
                    break
                parts.append(top - j)
                field ^= 1 << top
            out.append(tuple(parts))
        return tuple(out)


def all_nodes(bp: Bipartition) -> list[Node]:
    return [(r, c, m) for m in (1, 2)
            for r, length in enumerate(bp[m - 1], start=1)
            for c in range(1, length + 1)]


def dominance_key(bp: Bipartition) -> tuple[int, ...]:
    """Partial-sum vector, size(bp) sums per component: ``lam`` dominates
    ``mu`` (same size) iff its key is pointwise >= that of ``mu``.  The
    key determines ``bp``."""
    c1, c2 = bp
    n = size(bp)
    out = []
    s = 0
    for r in range(n):
        s += c1[r] if r < len(c1) else 0
        out.append(s)
    for r in range(n):
        s += c2[r] if r < len(c2) else 0
        out.append(s)
    return tuple(out)


@lru_cache(maxsize=None)
def dominance_keys(n: int) -> MappingProxyType:
    """Read-only ``{bp: code}`` over every bipartition of n, ``code`` its
    ``dominance_key`` with coordinate k in the field of ``w =
    n.bit_length() + 1`` bits at bit ``(2n-1-k)*w``; built once per n.
    Codes compare as their keys do lexicographically, so the decreasing
    code order here refines decreasing dominance; see ``undominated``."""
    w = n.bit_length() + 1
    ones = ((1 << 2 * n * w) - 1) // ((1 << w) - 1)  # bit 0 of each field
    # part r adds to the fields of coordinates r on: bit (2n-1-r)*w and down
    heads = [ones >> (r * w) for r in range(2 * n)]
    codes = {bp: sum(map(operator.mul, bp[0], heads))
             + sum(map(operator.mul, bp[1], heads[n:])) for bp in bipartitions(n)}
    return MappingProxyType({bp: codes[bp]
                             for bp in sorted(codes, key=codes.get, reverse=True)})


def dominance_ids(n: int) -> dict[Bipartition, int]:
    """A new ``{bp: id}`` over every bipartition of n, ``id`` its position
    in ``dominance_keys(n)``: the id of a row or column of the
    decomposition matrix of n boxes, so a smaller id is more dominant in
    the refined order.  Not kept: a caller that looks up many labels
    holds it for as long as it needs it."""
    return {bp: k for k, bp in enumerate(dominance_keys(n))}


def undominated(mu, lams, codes, n: int) -> list:
    """The members of ``lams`` whose bipartitions of n that of mu does not
    dominate, in order, by one subtraction and mask on their codes;
    ``codes[x]`` is the ``dominance_keys(n)`` code of the bipartition
    that x stands for: that table itself for labels, or its codes in order
    for ids.  It is exact: ``guard`` holds each field's top bit,
    and each coordinate lies in [0, n], below 2^(w-1).  So with
    coordinates a of mu and b of lam, a field of ``(code(mu) | guard) -
    code(lam)`` is 2^(w-1) + a - b, in [1, 2^w): no borrow crosses a
    field, which keeps its guard iff a >= b."""
    w = n.bit_length() + 1
    guard = ((1 << 2 * n * w) - 1) // ((1 << w) - 1) << (w - 1)
    top = codes[mu] | guard
    return [lam for lam in lams if (top - codes[lam]) & guard != guard]


def dominates(lam: Bipartition, mu: Bipartition) -> bool:
    """Dominance on bipartitions of equal size: row partial sums of the
    first component, then first-component size plus partial sums of the
    second, must all be at least as large."""
    n = size(lam)
    if n != size(mu):
        raise ValueError(f"dominance needs equal sizes, got {n} and {size(mu)}")
    return key_dominates(dominance_key(lam), dominance_key(mu))


def key_dominates(ka: tuple[int, ...], kb: tuple[int, ...]) -> bool:
    """Dominance read off two dominance keys of equal length: ``ka`` is
    pointwise >= ``kb``."""
    return all(map(operator.ge, ka, kb))


def is_hook(p: Partition) -> bool:
    return len(p) >= 1 and all(part == 1 for part in p[1:])


def is_bihook(bp: Bipartition) -> bool:
    """Both components are (nonempty) hooks (a,1^b)."""
    return is_hook(bp[0]) and is_hook(bp[1])


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, largest first part first."""
    if n < 0:
        return ()
    if n == 0:
        return ((),)

    def gen(remaining, maxpart):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, maxpart), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(gen(n, n))


@lru_cache(maxsize=None)
def bipartitions(n: int) -> tuple[Bipartition, ...]:
    """All bipartitions of n."""
    out = []
    for a in range(n + 1):
        for c1 in partitions(a):
            for c2 in partitions(n - a):
                out.append((c1, c2))
    return tuple(out)


def format_partition(p: Partition) -> str:
    return ",".join(map(str, p)) if p else "-"


def format_bipartition(bp: Bipartition) -> str:
    return f"{format_partition(bp[0])}|{format_partition(bp[1])}"


def parse_partition(text: str) -> Partition:
    text = text.strip()
    if text in ("-", ""):
        return ()
    try:
        parts = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"parts must be integers in {text!r}") from None
    if any(p <= 0 for p in parts):
        raise ValueError(f"parts must be positive in {text!r}")
    for a, b in zip(parts, parts[1:]):
        if b > a:
            raise ValueError(f"parts not weakly decreasing in {text!r}")
    return tuple(parts)


def parse_bipartition(text: str) -> Bipartition:
    pieces = text.strip().split("|")
    if len(pieces) != 2:
        raise ValueError(f"expected two components separated by '|' in {text!r}")
    return (parse_partition(pieces[0]), parse_partition(pieces[1]))
