"""i-signatures, crystal operators, regularity, the Mullineux map and the
label maps used to transport module structures between bihook families.

The i-signature of a bipartition reads the diagram from the top of the
first component to the bottom of the second, writing + for each addable
i-node and - for each removable i-node.  It is the residue-i part of
``partitions.signed_nodes``, which walks the rows in that order, so it
needs no sort.  Reduction cancels adjacent +- pairs until the word has
shape -...-+...+.  The good i-node is the last surviving -, the cogood
i-node the first surviving +.

A bipartition is regular when successive good-node removals reach the
empty bipartition, or equivalently when successive cogood additions
build it from the empty bipartition (``e_tilde`` and ``f_tilde`` undo
each other).  Regularity has two routes, and each is the other's oracle
in the test-suite and the ``crystal`` verify suite:

* for one shape, ``is_regular`` removes the good node of the smallest
  residue that has one until it reaches empty or gets stuck (the first
  good node decides, see ``good_peel``);
* for a whole size, ``mullineux_pairs`` closes the empty bipartition
  under the cogood additions one box at a time, and
  ``regular_bipartitions`` reads its keys.  The Fock solver takes its
  regular columns and their Mullineux partners from it.

The Mullineux map has two routes too.  ``mullineux`` peels one shape by
good nodes and rebuilds it with every residue negated; it is the oracle,
and ``structure.predict`` and the command line read it.  The pair table
carries the map along the closure instead: m(f~_i b) = f~_{-i} m(b), and
m(b) is regular of the same size as b, so the partner of every shape of
n is read off cogood additions that the closure makes anyway, at no cost
beyond a lookup.

``signatures`` is the one residue filter, reading all e i-signatures
from one walk; ``signature`` indexes it.  ``cogood_build`` is the one
loop that grows a shape along a residue list: ``mullineux`` grows the
empty bipartition, ``induce`` the given shape along its recipe.
"""

from collections.abc import KeysView
from functools import lru_cache
from types import MappingProxyType

from .partitions import (
    Bipartition, Node, Partition, EMPTY_BP, add_node, as_partition, check_e,
    format_bipartition, remove_node, signed_nodes,
)
from .schur import two_column_params

Signature = list[tuple[str, Node]]


def signature(bp: Bipartition, i: int, e: int) -> Signature:
    return signatures(bp, e)[i % e]


def signatures(bp: Bipartition, e: int) -> list[Signature]:
    """Every i-signature of bp, indexed by i, from one walk."""
    sigs: list[Signature] = [[] for _ in range(check_e(e))]
    for sign, node in signed_nodes(bp):
        sigs[(node[1] - node[0]) % e].append(("+" if sign > 0 else "-", node))
    return sigs


def reduce_signature(sig: Signature) -> Signature:
    stack: Signature = []
    for sign, node in sig:
        if sign == "-" and stack and stack[-1][0] == "+":
            stack.pop()
        else:
            stack.append((sign, node))
    return stack


def _good(sig: Signature) -> Node | None:
    best = None
    for sign, node in reduce_signature(sig):
        if sign == "-":
            best = node
    return best


def _cogood(sig: Signature) -> Node | None:
    for sign, node in reduce_signature(sig):
        if sign == "+":
            return node
    return None


def reduced_signature(bp: Bipartition, i: int, e: int) -> Signature:
    return reduce_signature(signature(bp, i, e))


def good_node(bp: Bipartition, i: int, e: int) -> Node | None:
    """Lowest normal i-node: the last - of the reduced signature."""
    return _good(signature(bp, i, e))


def cogood_node(bp: Bipartition, i: int, e: int) -> Node | None:
    """Highest conormal i-node: the first + of the reduced signature."""
    return _cogood(signature(bp, i, e))


def f_tilde(bp: Bipartition, i: int, e: int) -> Bipartition | None:
    node = cogood_node(bp, i, e)
    return None if node is None else add_node(bp, node)


def e_tilde(bp: Bipartition, i: int, e: int) -> Bipartition | None:
    node = good_node(bp, i, e)
    return None if node is None else remove_node(bp, node)


@lru_cache(maxsize=None)
def good_peel(bp: Bipartition, e: int) -> tuple[int, ...] | None:
    """Residues of the good-node removals from bp down to empty, smallest
    residue first, or None if they get stuck.  Crystal components are
    closed under good-node removal and the regular shapes are the one of
    empty, so the first good node found decides."""
    if bp == EMPTY_BP:
        return ()
    for i, sig in enumerate(signatures(bp, e)):
        if (node := _good(sig)) is not None:
            rest = good_peel(remove_node(bp, node), e)
            return None if rest is None else (i,) + rest
    return None


def is_regular(bp: Bipartition, e: int) -> bool:
    check_e(e)
    return good_peel(bp, e) is not None


@lru_cache(maxsize=None)
def mullineux_pairs(n: int, e: int) -> MappingProxyType:
    """Read-only ``{mu: mullineux(mu, e)}`` over every regular bipartition
    of n: the cogood additions of every residue applied to the regular
    bipartitions of n - 1, starting from the empty bipartition, each
    paired by m(f~_i b) = f~_{-i} m(b) (module docstring)."""
    check_e(e)
    if n <= 0:
        return MappingProxyType({EMPTY_BP: EMPTY_BP} if n == 0 else {})
    below = mullineux_pairs(n - 1, e)
    ups = {bp: [None if (node := _cogood(sig)) is None else add_node(bp, node)
                for sig in signatures(bp, e)]
           for bp in below}
    pairs = {}
    for bp, partner in below.items():
        across = ups[partner]
        for i, up in enumerate(ups[bp]):
            if up is not None:
                pairs[up] = across[-i]  # residue -i mod e
    return MappingProxyType(pairs)


def regular_bipartitions(n: int, e: int) -> KeysView[Bipartition]:
    """Every regular bipartition of n, as a read-only set: the keys of
    ``mullineux_pairs``."""
    return mullineux_pairs(n, e).keys()


def cogood_build(bp: Bipartition, residues, e: int) -> Bipartition:
    """Add to bp the cogood node of each residue (mod e) in turn; a
    ValueError names the residue, e and the shape where none exists."""
    for i in residues:
        nxt = f_tilde(bp, i, e)
        if nxt is None:
            raise ValueError(f"no cogood node of residue {i % e} on "
                             f"{format_bipartition(bp)} for e={e}")
        bp = nxt
    return bp


def mullineux(bp: Bipartition, e: int) -> Bipartition:
    """Rebuild bp by cogood additions, then redo the additions with all
    residues negated.  An involution on regular bipartitions."""
    check_e(e)
    peel = good_peel(bp, e)
    if peel is None:
        raise ValueError(f"{format_bipartition(bp)} is not regular for e={e}")
    return cogood_build(EMPTY_BP, (-i for i in reversed(peel)), e)


def braces_int(x: int, e: int) -> Partition:
    """The weakly decreasing sequence of e-1 nonnegative integers summing
    to x whose entries are floor((x+e-2-t)/(e-1)) for t = 0..e-2."""
    check_e(e)
    if x < 0:
        raise ValueError("braces of a negative integer")
    return as_partition((x + e - 2 - t) // (e - 1) for t in range(e - 1))


def braces_partition(p: Partition, e: int) -> Partition:
    out = []
    for part in p:
        out.extend(braces_int(part, e))
    return as_partition(out)


def braces(bp: Bipartition, e: int) -> Bipartition:
    return (braces_partition(bp[0], e), braces_partition(bp[1], e))


def scrt(mu: Partition, e: int) -> Bipartition:
    """Label map sending a two-column partition to the bipartition indexing
    the matching graded simple module: (1^n) goes to ((ne), -) and
    (2^m, 1^(n-2m)) to (((n-m)e, (m-1)e+1), (e-1))."""
    check_e(e)
    m, n = two_column_params(mu)
    if n == 0:
        return EMPTY_BP
    if m == 0:
        return ((n * e,), ())
    return (((n - m) * e, (m - 1) * e + 1), (e - 1,))


def induction_pairs(e: int) -> list[tuple[int, int]]:
    """The nonzero induction parameters (a, b): 0 < a <= e and 0 <= b < e
    with a + b != e, a ascending, then b."""
    check_e(e)
    return [(a, b) for a in range(1, e + 1) for b in range(e) if a + b != e]


def induction_recipe(a: int, b: int, e: int) -> list[tuple[int, int]]:
    """Expanded (residue, multiplicity) steps of the induction label map,
    in application order.  Valid parameters: a = b = 0, or a pair of
    ``induction_pairs(e)``."""
    check_e(e)
    if a == 0 and b == 0:
        return []
    if (a, b) not in induction_pairs(e):
        raise ValueError(f"invalid induction parameters a={a}, b={b} for e={e}")
    if a + b < e:
        steps = [(i, 2) for i in range(a)]
        steps += [(i, 2) for i in range(e - 1, e - b - 1, -1)]
    else:
        steps = [(i, 2) for i in range(a - 1)]
        steps += [(i, 2) for i in range(e - 1, a - 1, -1)]
        steps += [(a - 1, 4)]
        steps += [(i, 2) for i in range(a - 2, e - b - 1, -1)]
    return steps


def induce(bp: Bipartition, a: int, b: int, e: int, negate: bool = False) -> Bipartition:
    """Apply the induction label map: cogood additions following the
    expanded recipe, with residues negated mod e when ``negate``."""
    sign = -1 if negate else 1
    return cogood_build(bp, [sign * i for i, mult in induction_recipe(a, b, e)
                             for _ in range(mult)], e)
