"""Level-2 Fock space over Z[q, q^-1] at bicharge (0, 0), and the
Gaussian-elimination pass producing the canonical basis, i.e. the
characteristic-0 graded decomposition matrix.

Induction action.  Divided powers act in one step: for m >= 1,

    f_i^(m) |lam>  =  sum_S  q^N(S) |lam+S>,

where S runs over the m-subsets of the addable i-nodes of lam and N(S)
sums, over each node A of S, the addable i-nodes of lam outside S minus
the removable i-nodes of lam, both lying strictly above A.  The case
m = 1 is the single step f_i.  Every pair of nodes of S has one node
above the other, so N(S) is the sum of the per-node counts over all
addable nodes, less m(m-1)/2.  The route this replaces, f_i applied m
times followed by exact division by the quantum factorial [m]!, is kept
in the test-suite as the oracle for this formula.  Nodes are counted
above only: counting below gives the bar-flipped matrix, whose first
approximation already fails the unit-diagonal assertion at one box.

Regular columns.  The columns are the regular bipartitions of n, the
keys of ``crystal.mullineux_pairs``: the closure of the empty
bipartition under the cogood additions ``f_tilde``, grown one box at a
time, so no shape of n is tested for regularity on its own.  Rows and
columns are ordered by ``partitions.dominance_keys(n)``, one packed key
table per n, shared by the solver, the orderings, the cache and ``_fault``.

First approximation.  A regular mu is peeled to empty by the ladder
rule: repeatedly remove the maximal *leading* run of minus signs of some
i-signature (smallest such residue first), i.e. the top removable
i-nodes sitting above all other i-activity.  The run list replayed in
reverse as divided powers on |empty> gives a vector A(mu) with
coefficient exactly 1 at |mu| and all other terms strictly later in the
refined dominance order.  A column may start one level up instead
(Kashiwara, Duke Math. J. 63, 1991; Lascoux-Leclerc-Thibon,
q-alg/9511007).  The first run (i, m) of mu's peel is the last divided
power of A(mu), and it leaves mu's parent, of n - m boxes; when the
parent is a column of a finished matrix of n - m boxes, f_i^(m)
G(parent), G(parent) that column, has coefficient exactly 1 at mu too:
the run is the top removable i-nodes of mu, so every other way of
removing m i-nodes of mu leaves a shape that strictly dominates the
parent, outside the support of G(parent).  It needs far fewer
corrections (18 against 153 at e = 2, n = 12).  The solver builds every
start in one depth-first walk over tries of divided powers: each mu
whose parent is such a column hangs by its one run from a root of its
own, G(parent), and every other mu by its reversed run list from the
|empty> root, so a prefix shared by several of them is applied once.
Roots and tries are filled least dominant mu first and walked in
insertion order, which hands the starts over close to the order the
elimination takes them in; the walk checks each one before handing it
over, and every start goes through the solve's own tables (so at e = 2
the ``drop`` codes below hold).  Divided powers commute with the bar
involution and fix |empty>, and every G(parent) is bar-invariant, so
every start is bar-invariant; corrections by bar-closures of offending
coefficients therefore keep the eliminated columns bar-invariant without
any combinatorial bar formula.  ``canonical_basis`` hands the solver the
levels below that ``_MEMORY`` holds for the same cache directory and
that this process solved; a level loaded from a file is never handed
over, since a file has passed only ``_fault``, and a fault that
``_fault`` lets through would be carried up a level.  ``--no-cache``
holds no level, so it solves every column from |empty>.

Duality.  Conjugation maps column mu onto column m(mu), where m is the
Mullineux map: d(lam', m(mu))(q) = q^s d(lam, mu)(q^-1) for every row
lam, lam' its conjugate, with one shift s per column, the defect of its
block (the graded Specht duality of Brundan-Kleshchev-Wang, arXiv
0901.0218).  The solver applies it in one step, once column mu is
eliminated: s is read off row m(mu)' of mu, whose entry must be exactly
q^s, so no defect formula is needed, and each row lam of mu is flipped
into row lam' of m(mu), exponent k becoming s - k.  At e >= 3, m pairs
most columns, so the solver builds first approximations and eliminates
only for the fixed points of m and for the less dominant member of each
pair, which the loop finishes first; the flip is the other member's
whole column.  The partners are the values of
``crystal.mullineux_pairs``, which the cogood closure builds at the cost
of a lookup per shape, so a derived column reads the crystal, not the
Fock space.  At e = 2, -i = i, so m fixes every column, and the flip
fills the rows that ``_kept_rows`` leaves out.  The kept rows are every
lam with id(lam) <= id(lam'), the earlier of each conjugate pair in the
refined order (conjugation reverses dominance), and every regular
bipartition and every conjugate of one, since elimination reads the
regular rows and the shift is read off a regular's conjugate.  Each row
updates on its own, and corrections are picked from regular rows only,
so the kept rows come out exactly as in a solve of every row.  No
size-n shape outside them enters a vector: only the last divided power
of a first approximation reaches n boxes, and ``_Shapes.build`` drops
those targets (the table's ``drop`` codes).  About half the rows are
kept: 1 422 of 2 665 at n = 14, 9 003 of 17 490 at n = 19; at e >= 3,
every row.  A row kept with its conjugate must agree with it.
Conjugation on the ids of n is one list, built once per solve, and must
be an involution, so that every row left out is read off exactly one
kept row.  Each check raises, naming the rows, column or pair at fault.
The test-suite holds the solve equal to the plain one, under the
identity pair table, which makes every column its own partner and so
solves it, and with every row kept.

Interned shapes.  Inside the solver a shape is an int id from one
table, ``_Shapes``, that lives for one solve and dies with it.  The
bipartitions of n take ids 0, 1, ... in ``dominance_keys(n)`` order
before anything else is interned, so "strictly later in the refined
order" is a larger id; smaller shapes are interned as the first
approximations reach them.  The table holds each shape as its bead code
(James's abacus) in the one layout of ``partitions.BeadLayout``, which
``tableaux.packed_graded_dimension`` reads too: one int with the
beta-sets of both components, component 1 in the high bits, so a node
above another has its bead at a higher bit.  Each component's bead count
and field width are multiples of e, so a bead position fixes the residue
of the node that moving the bead adds or removes, and the addable and
the removable i-nodes are two masks, ``x & ~(x >> 1) & add_masks[i]``
and ``x & ~(x << 1) & rem_masks[i]``.  The field is sized by a box
bound, n in the solver: a shape past it is refused by ``encode``, and
``build`` refuses a growth that would move a bead off the end of its
field.  The same table holds the transitions
(id, i, m) -> (target id, N(S), target id, N(S), ...) of the formula
above, kept flat (no tuple per target) and each built on first use:
N(S) from bit counts of the masks above each node, and each subset grown
by moving its beads up one place.  The ladder peel reads the same masks:
the leading run of an i-signature is the removable i-beads above the
highest addable i-bead.  A vector is kept raw, as a map from shape ids
to ``{exponent: coefficient}`` dicts, and elimination updates it in
place; labels go back to the key table's tuples, and ``LaurentPoly``
values are built, once a column is finished.  ``apply_f_divided``,
``first_approximation`` and ``peel_runs`` take the same route through a
table of their own.  ``_f_targets`` counts the transition lookups and
builds of every table, for profiles; it keeps no transition.

Sharing.  A matrix holds one ``LaurentPoly`` per distinct entry value,
shared by every entry equal to it, and its labels are the tuples held by
``dominance_keys(n)``; both the solver and ``DecompositionMatrix.from_obj``
build matrices this way.  The cache file (schema ``SCHEMA``) has the same
shape: it lists each distinct value once, and an entry is an index into
that list, so a load decodes each value once and looks each label up in
one text -> tuple table.  The solver's finished raw columns hold the
shared values' own dicts.  So no code may mutate a ``LaurentPoly`` or a
finished raw column in place: ``LaurentPoly`` arithmetic always builds
new dicts, and elimination writes only to the column being eliminated.
``_fault`` checks each value object once, yet does not rely on sharing.
"""

import functools
import json
import os
import tempfile
import weakref
from dataclasses import dataclass

from .crystal import check_regular, mullineux_pairs, regular_bipartitions
from .laurent import LaurentPoly, ONE, dot
from .partitions import (
    BeadLayout, Bipartition, check_e, conjugate, dominance_keys,
    format_bipartition, size, undominated,
)
# a module attribute that the benchmark's tracer patches, used or not
from .partitions import dominance_key  # noqa: F401
from .tableaux import graded_dimension

# the grading side, written on every matrix and cache file
ABOVE = "above"
# the cache-file layout of ``DecompositionMatrix.to_obj``; a file without
# it is recomputed and rewritten
SCHEMA = 2

FockVector = dict[Bipartition, LaurentPoly]
# the solver's working form: exponent -> nonzero coefficient, per shape id
RawVector = dict[int, dict[int, int]]


def _value_key(terms: dict[int, int]):
    """A hashable key for equal term dicts: a monomial's single
    (exponent, coefficient) pair, else the frozenset of its pairs."""
    if len(terms) == 1:
        [key] = terms.items()
        return key
    return frozenset(terms.items())


def _share(shared: dict, terms: dict[int, int]) -> LaurentPoly:
    """The value in ``shared`` equal to ``terms``, made on first sight."""
    key = _value_key(terms)
    val = shared.get(key)
    if val is None:
        val = shared[key] = LaurentPoly._raw(terms)
    return val


class _Shapes(BeadLayout):
    """Interned shapes and their transitions, for one solve or one public
    call (module docstring, "Interned shapes"), held as the bead codes of
    ``partitions.BeadLayout`` at a box bound: n in a solve.  ``build``
    refuses to move a bead at a bit of ``edge``.

    ``codes[k]`` is the code of id k and ``ids`` the inverse map.  The
    shapes given at construction take ids 0, 1, ... in their order, and
    ``shapes`` holds them as tuples; the others are interned as they first
    appear, and ``label`` decodes any id.  ``table(i, m)`` maps each id
    built so far to its transitions under f_i^(m), the flat tuple
    ``(target_id, N(S), target_id, N(S), ...)`` over the m-subsets S of
    the addable i-nodes in lexicographic order of S from the top, which
    ``build`` computes, interning each target as it goes and leaving out
    any target whose code is in ``drop``: in a solve at e = 2, the rows
    of n boxes that ``_kept_rows`` leaves to the duality, else empty."""

    def __init__(self, e: int, first=(), bound: int | None = None):
        self.shapes: list[Bipartition] = list(first)
        if bound is None:
            bound = max(map(size, self.shapes), default=0)
        super().__init__(e, bound)
        self.codes: list[int] = [self.encode(bp) for bp in self.shapes]
        self.ids: dict[int, int] = {code: sid for sid, code in enumerate(self.codes)}
        self._tables: dict[tuple[int, int], dict[int, tuple]] = {}
        # the solver's rows read off their conjugates (module docstring,
        # "Duality")
        self.drop: frozenset[int] = frozenset()
        _f_targets.live.add(self)

    def label(self, sid: int) -> Bipartition:
        return (self.shapes[sid] if sid < len(self.shapes)
                else self.decode(self.codes[sid]))

    def intern(self, code: int) -> int:
        sid = self.ids.get(code)
        if sid is None:
            sid = self.ids[code] = len(self.codes)
            self.codes.append(code)
        return sid

    def table(self, i: int, m: int) -> dict[int, tuple]:
        return self._tables.setdefault((i, m), {})

    def held(self) -> int:
        """The number of transitions held, over every (i, m)."""
        return sum(map(len, self._tables.values()))

    def build(self, sid: int, i: int, m: int) -> tuple:
        x = self.codes[sid]
        adds = x & ~(x >> 1) & self.add_masks[i]
        if adds & self.edge:
            raise ValueError(f"f_{i} of {self.label(sid)} leaves the "
                             f"{self.bound}-box code")
        rems = x & ~(x << 1) & self.rem_masks[i]
        # per addable node, top to bottom: the bead move that adds it, and
        # the addable minus removable i-nodes above it; no removable i-bead
        # shares a position with an addable one
        moves, counts = [], []
        while adds:
            b = adds.bit_length() - 1
            adds ^= 1 << b
            counts.append(len(moves) - (rems >> b).bit_count())
            moves.append(3 << b)
        # each m-subset S grows from S less its last node, in lexicographic
        # order; the beads moved are at least e >= 2 apart, so no two moves
        # touch one bit
        if m == 1:
            # each single node, N(S) its own count
            level = [(0, x ^ move, d) for move, d in zip(moves, counts)]
        else:
            level = [(-1, x, -(m * (m - 1) // 2))]  # (last index, code, N(S))
            for j in range(m):
                level = [(k, code ^ moves[k], d + counts[k])
                         for last, code, d in level
                         for k in range(last + 1, len(moves) - m + j + 1)]
        if self.drop:
            level = [move for move in level if move[1] not in self.drop]
        intern = self.intern
        out = []
        for _, code, d in level:
            out += intern(code), d
        return tuple(out)

    def peel(self, sid: int) -> tuple[tuple[int, int], ...]:
        """The ladder peel of ``peel_runs``: per stage, the smallest i with
        removable i-beads above its highest addable i-bead, all of which
        move down one place."""
        x, runs = self.codes[sid], []
        while x != self.empty:
            i, run = self.leading_run(x)
            if not run:
                raise RuntimeError(f"ladder peel of regular {self.label(sid)} "
                                   f"stuck at {self.decode(x)} (e={self.e})")
            x ^= run ^ (run >> 1)
            runs.append((i, run.bit_count()))
        return tuple(runs)

    def leading_run(self, x: int) -> tuple[int, int]:
        """One stage of the ladder peel of the code x: the smallest i with
        removable i-beads above its highest addable i-bead, and the mask of
        those beads; the mask is 0 when there is no such i."""
        for i in range(self.e):
            adds = x & ~(x >> 1) & self.add_masks[i]
            top = adds.bit_length()
            run = (x & ~(x << 1) & self.rem_masks[i]) >> top << top
            if run:
                return i, run
        return 0, 0


class _f_targets:
    """Lookups and builds of the transition tables of ``_Shapes``, in the
    form of ``functools.lru_cache``'s ``cache_info()``, under the name of
    the module-level cache those per-solve tables replaced: per-layer
    profiles keep reading its hits and misses, and a check that caches are
    empty between operations sees the tables.  No transition is kept here:
    ``currsize`` counts those held by tables still alive, 0 once every
    solve has returned, and ``cache_clear`` only resets the counts.  A
    miss is one ``_Shapes.build`` on a bead code; a build that would leave
    its table's box bound raises, and is neither stored nor counted
    as a miss."""

    lookups = builds = 0
    live: "weakref.WeakSet[_Shapes]" = weakref.WeakSet()

    @classmethod
    def cache_info(cls) -> functools._CacheInfo:
        return functools._CacheInfo(cls.lookups - cls.builds, cls.builds, None,
                                    sum(shapes.held() for shapes in cls.live))

    @classmethod
    def cache_clear(cls):
        cls.lookups = cls.builds = 0


def _apply_divided(shapes: _Shapes, vec: RawVector, i: int, m: int) -> RawVector:
    table = shapes.table(i, m)
    _f_targets.lookups += len(vec)
    acc: RawVector = {}
    emptied = False
    for sid, terms in vec.items():
        targets = table.get(sid)
        if targets is None:
            targets = table[sid] = shapes.build(sid, i, m)
            _f_targets.builds += 1
        it = iter(targets)
        if len(terms) == 1:
            # one term, so one exponent per slot
            [(exp, c)] = terms.items()
            for grown, d in zip(it, it):
                k = exp + d
                slot = acc.get(grown)
                if slot is None:
                    acc[grown] = {k: c}
                    continue
                nv = slot.get(k, 0) + c
                if nv:
                    slot[k] = nv
                else:
                    del slot[k]
                    emptied = emptied or not slot
            continue
        for grown, d in zip(it, it):
            slot = acc.get(grown)
            if slot is None:
                # a fresh slot: the shifted terms, none of which can cancel
                acc[grown] = ({exp + d: c for exp, c in terms.items()} if d
                              else terms.copy())
                continue
            for exp, c in terms.items():
                k = exp + d
                nv = slot.get(k, 0) + c
                if nv:
                    slot[k] = nv
                else:
                    del slot[k]
            emptied = emptied or not slot
    if emptied:
        return {sid: terms for sid, terms in acc.items() if terms}
    return acc


def apply_f_divided(vec: FockVector, i: int, m: int, e: int) -> FockVector:
    """The divided power f_i^(m), extended linearly (module docstring)."""
    check_e(e)
    if m < 1:
        raise ValueError(f"divided power needs m >= 1, got {m}")
    shapes = _Shapes(e, bound=max(map(size, vec), default=0) + m)
    raw = {shapes.intern(shapes.encode(bp)): dict(coeff.iter_terms())
           for bp, coeff in vec.items()}
    out = _apply_divided(shapes, raw, i % e, m)
    return {shapes.label(sid): LaurentPoly._raw(terms)
            for sid, terms in out.items()}


def apply_f(vec: FockVector, i: int, e: int) -> FockVector:
    """One induction step, extended linearly."""
    return apply_f_divided(vec, i, 1, e)


def peel_runs(mu: Bipartition, e: int) -> tuple[tuple[int, int], ...]:
    """Equal-residue runs peeling mu to empty: at each stage remove the
    maximal *leading* run of minus signs of some i-signature (smallest
    such residue first), i.e. the top removable i-nodes sitting above all
    other i-activity.

    This is the ladder reading adapted to the two-component node order:
    replayed upwards, each batch adds the top addable i-nodes of the
    partial shape with no removable i-node above them, which pins the
    leading coefficient of the first approximation to exactly 1.  Peeling
    good-node strings instead loses that property (first seen at e = 2 on
    eight boxes), so it is not used here.  The peel runs on bead codes,
    in ``_Shapes.peel``, as the solver's does.
    """
    check_regular(mu, e)
    return _Shapes(e, (mu,)).peel(0)


def _first_approximations(shapes: _Shapes, regs: list[int], lower=None):
    """Yield (mu, start) as raw vectors for every shape id mu in regs
    (given in decreasing dominance), each checked by
    ``_check_first_approximation``, from one depth-first walk over tries
    rooted at |empty> or at a held parent column (module docstring,
    "First approximation"), so that each shared prefix is applied once.
    lower, when given, maps a box count to a finished matrix or to None,
    and is called once per run length.

    Sibling branches are visited by the least dominant mu each holds,
    least dominant first: the solver eliminates in that order, so it can
    take most starts soon after they appear instead of holding them all.
    Every mu has the same size, so no run list is a prefix of another:
    the walk never extends a vector it has yielded, and the caller may
    update it in place."""
    roots: dict = {}  # parent label, None for |empty> -> (G(parent), trie)
    levels: dict = {}
    for mu in reversed(regs):
        col = None
        if lower is not None:
            x = shapes.codes[mu]
            i, run = shapes.leading_run(x)
            if run:  # mu is not the empty bipartition
                m = run.bit_count()
                if m not in levels:
                    levels[m] = lower(size(shapes.label(mu)) - m)
                if levels[m] is not None:
                    parent = shapes.decode(x ^ run ^ (run >> 1))
                    col = levels[m].columns.get(parent)
                    runs = ((i, m),)
        if col is None:
            parent, runs = None, reversed(shapes.peel(mu))
        node = roots.setdefault(parent, (col, {}))[1]
        for run in runs:
            node = node.setdefault(run, {})
        # the leaf: None holds no run, so n = 0 needs no special case
        node[None] = mu
    sid_of: dict[Bipartition, int] = {}  # the held levels' labels
    for col, trie in roots.values():
        if col is None:
            vec = {shapes.intern(shapes.empty): {0: 1}}
        else:
            vec = {}
            for lam, val in col.items():
                sid = sid_of.get(lam)
                if sid is None:
                    sid = sid_of[lam] = shapes.intern(shapes.encode(lam))
                # _apply_divided reads the terms and writes fresh dicts
                vec[sid] = val._c
        yield from _walk(shapes, trie, vec)


def _walk(shapes: _Shapes, node: dict, vec: RawVector):
    """The pass of ``_first_approximations`` below one trie node, whose
    root and runs so far give vec.  Module-level, since a nested generator
    calling itself would form a closure cycle that keeps shapes alive."""
    for run, child in node.items():
        if run is None:
            _check_first_approximation(
                child, vec, lambda sid: format_bipartition(shapes.label(sid)))
            yield child, vec
        else:
            yield from _walk(shapes, child, _apply_divided(shapes, vec, *run))


def _check_first_approximation(mu: int, vec: RawVector, label):
    """Leading coefficient 1 and support strictly later in the refined
    order, which on the size-n ids is a larger id."""
    if vec.get(mu) != {0: 1}:
        raise RuntimeError(
            f"first approximation of {label(mu)} has leading coefficient "
            f"{LaurentPoly(vec.get(mu))}")
    lam = min(vec)
    if lam < mu:
        raise RuntimeError(
            f"first approximation of {label(mu)} has support at "
            f"{label(lam)} not below it in the refined order")


def first_approximation(mu: Bipartition, e: int) -> FockVector:
    """A(mu): the reversed peel runs applied as divided powers to |empty>.

    The coefficient of |mu> is exactly 1 and all other support labels
    come strictly later in the lexicographic refinement of dominance by
    partial-sum vectors (the labels need not all be dominated by mu; the
    eliminated columns are, which the solver asserts)."""
    check_regular(mu, e)
    shapes = _Shapes(e, dominance_keys(size(mu)))
    [(_, vec)] = _first_approximations(shapes, [shapes.ids[shapes.encode(mu)]])
    return {shapes.shapes[lam]: LaurentPoly._raw(terms)
            for lam, terms in vec.items()}


@dataclass
class DecompositionMatrix:
    """Columns are canonical-basis vectors indexed by regular bipartitions;
    rows run over all bipartitions of n.  Unitriangular against dominance
    with nonzero off-diagonal entries in q.N[q].

    The columns are the whole matrix: ``row`` scans them for one row, and
    a reader of every row walks them once instead."""
    n: int
    e: int
    columns: dict[Bipartition, dict[Bipartition, LaurentPoly]]

    def regulars(self) -> list[Bipartition]:
        """The column labels in decreasing dominance order."""
        return [bp for bp in dominance_keys(self.n) if bp in self.columns]

    def rows(self) -> list[Bipartition]:
        """Every bipartition of n in decreasing dominance order."""
        return list(dominance_keys(self.n))

    def row(self, lam: Bipartition) -> dict[Bipartition, LaurentPoly]:
        """Row lam's entries, as a new dict in decreasing dominance."""
        columns = self.columns
        return {mu: columns[mu][lam] for mu in self.regulars() if lam in columns[mu]}

    def to_obj(self):
        """The cache-file object, schema ``SCHEMA``: each distinct entry
        value is written once, as its ``to_pairs`` list in ``values``, in
        the order of first use over the columns and rows in decreasing
        dominance, and each entry as its index there.  The bytes are
        therefore a function of the matrix alone."""
        labels = set(self.columns).union(*self.columns.values())
        key_of = dominance_keys(self.n)
        text_of = {bp: format_bipartition(bp) for bp in labels}
        values: list[list[list[int]]] = []
        # id -> index, so each shared object is looked up once; objects
        # equal in value still share one index
        by_id: dict[int, int] = {}
        by_value: dict = {}

        def index(val):
            k = by_id.get(id(val))
            if k is None:
                k = by_id[id(val)] = by_value.setdefault(_value_key(val._c),
                                                         len(values))
                if k == len(values):
                    values.append(val.to_pairs())
            return k

        def by_key(kv):
            return key_of[kv[0]]

        columns = {
            text_of[mu]: {
                text_of[lam]: index(val)
                for lam, val in sorted(col.items(), key=by_key, reverse=True)
            }
            for mu, col in sorted(self.columns.items(), key=by_key, reverse=True)
        }
        return {"schema": SCHEMA, "n": self.n, "e": self.e, "convention": ABOVE,
                "values": values, "columns": columns}

    @classmethod
    def from_obj(cls, obj) -> "DecompositionMatrix":
        """The matrix of ``to_obj``; ``ValueError`` when the schema is not
        ``SCHEMA``, the convention is not ``ABOVE``, a label is not the
        text of a bipartition of n, or an entry is not an index into
        ``values`` (an int, so neither ``true`` nor ``1.0``, in
        [0, len(values))).  Labels come from one text -> tuple table over
        ``dominance_keys(n)``, so none is parsed and each is the key
        table's own tuple; each value is decoded once, and equal values
        meet in one ``LaurentPoly`` (module docstring, "Sharing")."""
        if obj["schema"] != SCHEMA:
            raise ValueError(f"schema {obj['schema']!r} is not {SCHEMA}")
        if obj["convention"] != ABOVE:
            raise ValueError(f"convention {obj['convention']!r} is not {ABOVE!r}")
        n = int(obj["n"])
        table = {format_bipartition(bp): bp for bp in dominance_keys(n)}
        by_terms: dict = {}
        values = [by_terms.setdefault(_value_key(val._c), val)
                  for val in map(LaurentPoly.from_pairs, obj["values"])]
        # a dict, not the list: a list would also take a negative index
        value_at = dict(enumerate(values))
        columns = {}
        for mu, col in obj["columns"].items():
            # bool and float keys hash like ints, so their type is checked
            if not set(map(type, col.values())) <= {int}:
                raise ValueError(f"column {mu!r} has an entry that is not an int")
            try:
                columns[table[mu]] = {table[lam]: value_at[i]
                                      for lam, i in col.items()}
            except KeyError as exc:
                raise ValueError(f"column {mu!r}: {exc.args[0]!r} is not a "
                                 f"label of size {n} or a value index") from None
        return cls(n=n, e=int(obj["e"]), columns=columns)


def default_cache_dir() -> str:
    env = os.environ.get("BIHOOKS_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "bihooks")


# the cache file's resolved path -> (matrix, whether this process solved
# it), so that each cache directory is read (and repaired) on its own,
# and only solved levels start the columns above them
_MEMORY: dict[str, tuple[DecompositionMatrix, bool]] = {}


def canonical_basis(n: int, e: int, cache_dir: str | None = None,
                    use_cache: bool = True) -> DecompositionMatrix:
    """Compute (or load) the canonical-basis matrix at n boxes.

    For each regular mu in increasing dominance order, the first
    approximation A(mu) is corrected by bar-invariant multiples of the
    already-computed columns until every other regular coefficient lies
    in q.Z[q]; every matrix served, computed or loaded, has passed
    ``_fault`` over *all* rows.  A file is written exactly when computed.
    With the cache on, a column starts from its parent's column when this
    process solved the parent's level for the same directory (module
    docstring, "First approximation").
    """
    check_e(e)
    if n < 0:
        raise ValueError(f"number of boxes must be >= 0, got {n}")
    path = matrix = lower = None
    solved = False
    if use_cache:
        directory = cache_dir or default_cache_dir()
        path = _cache_path(directory, n, e)
        matrix, solved = _MEMORY.get(path, (None, False))
        if matrix is None:
            matrix = _load_cached(path, n, e)
        lower = functools.partial(_solved_level, directory, e)
    if matrix is None:
        # checked once the solve has returned and its tables are freed
        matrix, solved = _compute_canonical_basis(n, e, lower), True
        reason = _fault(matrix)
        if reason is not None:
            raise RuntimeError(f"canonical basis e={e} n={n}: {reason}")
        if path is not None:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    # dumps, unlike dump, runs the C encoder: same bytes, faster
                    fh.write(json.dumps(matrix.to_obj()))
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
    if path is not None:
        _MEMORY[path] = matrix, solved
    return matrix


def _cache_path(directory: str, n: int, e: int) -> str:
    """The resolved path of the cache file of (n, e) in directory, which
    keys ``_MEMORY``."""
    return os.path.realpath(os.path.join(directory, f"llt_e{e}_n{n}_{ABOVE}.json"))


def _solved_level(directory: str, e: int, n: int) -> DecompositionMatrix | None:
    """The matrix of n boxes at e held in ``_MEMORY`` for directory if this
    process solved it, else None.  A loaded matrix is never returned: a
    file has passed only ``_fault``, which lets through a term moved
    between two columns whose simples have equal graded dimension, and a
    solve started from it would carry the fault up a level."""
    matrix, solved = _MEMORY.get(_cache_path(directory, n, e), (None, False))
    return matrix if solved else None


def _load_cached(path: str, n: int, e: int) -> DecompositionMatrix | None:
    """The matrix stored at path, or None when the file is missing, holds
    another (n, e), fails to decode (bad JSON or JSON nested too deep to
    decode, a missing field, another schema than ``SCHEMA`` or convention
    than ``ABOVE``, an unknown label, an entry that is not an index into
    ``values``, a value other than the int pairs ``LaurentPoly.to_pairs``
    writes), or fails ``_fault``."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
        # before from_obj, which builds the label table of the stored n
        if (obj["n"], obj["e"]) != (n, e):
            return None
        loaded = DecompositionMatrix.from_obj(obj)
    except (FileNotFoundError, ValueError, KeyError, TypeError, AttributeError,
            RecursionError):
        return None
    return None if _fault(loaded) else loaded


def _fault(matrix: DecompositionMatrix) -> str | None:
    """The first invariant that matrix breaks, named, or None: the columns
    are the regular bipartitions of n, the diagonal is 1, each entry lies
    at a row its column dominates, and each off-diagonal value, checked
    once per object, is a nonzero element of q.N[q] (Brundan-Kleshchev,
    arXiv 0901.4450).
    Equal values need not share one object: a column skips its diagonal
    by label, so a diagonal object shared with another slot is checked
    there."""
    n, columns = matrix.n, matrix.columns
    regular = regular_bipartitions(n, matrix.e)
    if columns.keys() != regular:
        odd = ", ".join(sorted(map(format_bipartition, columns.keys() ^ regular)))
        return f"columns differ from the regular bipartitions at {odd}"
    passed = set()  # the ids of the off-diagonal values checked
    for mu, col in columns.items():
        if col.get(mu) != ONE:
            return (f"column {format_bipartition(mu)}: diagonal is "
                    f"{col.get(mu)}, expected 1")
        bad = undominated(mu, col)
        if bad:
            return (f"column {format_bipartition(mu)} does not dominate its "
                    f"row {format_bipartition(bad[0])}")
        for lam, v in col.items():
            if id(v) in passed or lam == mu:
                continue
            if not (v and v.in_q_window() and v.has_nonneg_coeffs()):
                return (f"column {format_bipartition(mu)}, row "
                        f"{format_bipartition(lam)}: {v} is not a nonzero "
                        f"element of q.N[q]")
            passed.add(id(v))
    return None


def _kept_rows(n: int, e: int, conj: list[int]) -> frozenset[int] | None:
    """The rows the solver eliminates, as ids in ``dominance_keys(n)``
    order, or None for every row (module docstring, "Duality"): at e = 2,
    each lam with id(lam) <= id(lam'), each regular bipartition and each
    conjugate of one, where conj maps each id to that of its conjugate;
    at e >= 3, every row."""
    if e != 2:
        return None
    rows = list(dominance_keys(n))
    regular = regular_bipartitions(n, e)
    return frozenset(sid for sid, (bp, cid) in enumerate(zip(rows, conj))
                     if sid <= cid or bp in regular or rows[cid] in regular)


def _compute_canonical_basis(n: int, e: int, lower=None) -> DecompositionMatrix:
    """The matrix of n boxes at e, its columns started as
    ``_first_approximations`` starts them from the levels lower gives."""
    key_of = dominance_keys(n)
    # the bipartitions of n take ids 0, 1, ... in decreasing key order, and
    # labels are the key table's own tuples
    shapes = _Shapes(e, key_of)
    labels = shapes.shapes
    sid_of = {bp: sid for sid, bp in enumerate(labels)}
    pairs = mullineux_pairs(n, e)
    regs = [sid for sid, bp in enumerate(labels) if bp in pairs]
    partner = {sid: sid_of[pairs[labels[sid]]] for sid in regs}

    def text(sid: int) -> str:
        return format_bipartition(labels[sid])

    # conjugation on the ids, which must be an involution (module
    # docstring, "Duality")
    conj = [sid_of[conjugate(bp)] for bp in labels]
    for sid, cid in enumerate(conj):
        if conj[cid] != sid:
            raise RuntimeError(
                f"conjugation takes {text(sid)} to {text(cid)}, "
                f"and that to {text(conj[cid])}")
    kept = _kept_rows(n, e, conj)
    if kept is not None:
        shapes.drop = frozenset(code for sid, code in enumerate(shapes.codes)
                                if sid not in kept)

    # the sharing of the module docstring: one LaurentPoly per distinct
    # value, held for this solve only; mirrored maps (id of a shared
    # value's terms, shift s) to the shared value of its mirror, and the
    # ids stay unique because shared keeps those terms alive
    shared: dict = {}
    mirrored: dict[tuple[int, int], LaurentPoly] = {}

    def mirror(terms: dict[int, int], s: int) -> LaurentPoly:
        """q^s times the value terms read at q^-1, flipped and shared once
        per (value object, s) pair."""
        val = mirrored.get((id(terms), s))
        if val is None:
            val = mirrored[id(terms), s] = _share(
                shared, {s - k: c for k, c in terms.items()})
        return val

    # the less dominant member of each pair, the larger id, is solved
    solved = [mu for mu in regs if partner[mu] <= mu]
    approx = _first_approximations(shapes, solved, lower)
    held: dict[int, RawVector] = {}
    raw: dict[int, RawVector] = {}
    # the columns flipped out of their finished partners, not yet reached
    derived: dict[int, dict[int, LaurentPoly]] = {}
    columns: dict[Bipartition, dict[Bipartition, LaurentPoly]] = {}
    for idx in range(len(regs) - 1, -1, -1):
        mu = regs[idx]
        nu = partner[mu]
        if nu > mu:
            vals = derived.pop(mu)
        else:
            vals = {bp: _share(shared, terms) for bp, terms in
                    _eliminate(held, approx, mu, regs[idx + 1:], raw).items()}
        raw[mu] = col = {bp: val._c for bp, val in vals.items()}
        if nu < mu or nu == mu and kept is not None:
            # the duality at the shift s of row nu' (module docstring,
            # "Duality"): into column nu = m(mu), or at e = 2 into the rows
            # left out, a row kept with its conjugate agreeing
            diag = col.get(conj[nu], {})
            s = next(iter(diag), None)
            if diag != {s: 1}:
                where = ("conjugate rows" if nu == mu
                         else f"Mullineux pair {text(mu)} and {text(nu)}")
                raise RuntimeError(
                    f"{where}: row {text(conj[nu])} of column {text(mu)} is "
                    f"{LaurentPoly(diag)}, not a power of q")
            flip = vals if nu == mu else derived.setdefault(nu, {})
            for lam, terms in col.items():
                lc, val = conj[lam], mirror(terms, s)
                if nu != mu or lc not in kept:
                    flip[lc] = val
                elif col.get(lc) != val._c:
                    raise RuntimeError(
                        f"conjugate rows: row {text(lc)} of column {text(mu)} "
                        f"is {LaurentPoly(col.get(lc))}, not {val}, which "
                        f"row {text(lam)} gives at shift {s}")
        columns[labels[mu]] = {labels[bp]: val for bp, val in vals.items()}
    return DecompositionMatrix(n=n, e=e, columns=columns)


def _eliminate(held: dict[int, RawVector], approx, mu: int, done: list[int],
               raw: dict[int, RawVector]) -> RawVector:
    """Column mu, from A(mu) less bar-invariant multiples of the finished
    columns done, given in decreasing dominance.  Approximations are
    drawn from approx until mu's appears; those of more dominant columns
    wait in held."""
    while mu not in held:
        nu, vec = next(approx)
        held[nu] = vec
    vec = held.pop(mu)
    # clear every already-computed column, most dominant first; the
    # first-approximation support bound guarantees nothing is needed
    # beyond those
    for lam in done:
        c = vec.get(lam)
        if not c:
            continue
        correction = list(LaurentPoly._raw(c).bar_closure().iter_terms())
        if not correction:
            continue
        if len(correction) == 1:
            # vec -= va * q^ka * raw[lam]
            [(ka, va)] = correction
            for bp, g in raw[lam].items():
                slot = vec.get(bp)
                if slot is None:
                    vec[bp] = {ka + kb: -va * vb for kb, vb in g.items()}
                    continue
                for kb, vb in g.items():
                    k = ka + kb
                    nv = slot.get(k, 0) - va * vb
                    if nv:
                        slot[k] = nv
                    else:
                        del slot[k]
                if not slot:
                    del vec[bp]
            continue
        # vec -= correction * raw[lam], one exponent at a time
        for bp, g in raw[lam].items():
            slot = vec.get(bp)
            if slot is None:
                slot = vec[bp] = {}
            for ka, va in correction:
                for kb, vb in g.items():
                    k = ka + kb
                    nv = slot.get(k, 0) - va * vb
                    if nv:
                        slot[k] = nv
                    else:
                        del slot[k]
            if not slot:
                del vec[bp]
    return vec


def simple_graded_dims_from(matrix: DecompositionMatrix) -> dict[Bipartition, LaurentPoly]:
    """Solve the unitriangular system qdim(S_lam) = sum_mu d(lam,mu) qdim(D_mu)
    over the regular rows.  Solutions must be bar-invariant with
    nonnegative coefficients; anything else is a convention fault.

    One walk down the columns in decreasing dominance: each solved column
    hands its (entry, qdim) pair to every regular row it has not reached,
    so row mu's pairs are all in once mu's turn comes."""
    out: dict[Bipartition, LaurentPoly] = {}
    pairs: dict[Bipartition, list] = {mu: [] for mu in matrix.columns}
    for mu in matrix.regulars():
        val = graded_dimension(mu, matrix.e) - dot(pairs.pop(mu))
        if not val.is_bar_invariant() or not val.has_nonneg_coeffs():
            raise RuntimeError(
                f"graded dimension of simple {format_bipartition(mu)} came out "
                f"as {val}; q-convention fault")
        out[mu] = val
        for lam, d in matrix.columns[mu].items():
            if lam in pairs:
                pairs[lam].append((d, val))
    return out
