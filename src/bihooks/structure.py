"""Module-structure prediction for Specht modules indexed by bihooks.

Inputs are the family parameters (k, j, e, p, a, b, transpose-flag); the
output is a verdict: the exact structure (summands that are semisimple,
uniserial with layers listed socle to head, or a vertex/edge diagram for
the two cases whose radical filtration is not pinned down), or a bare
decomposability statement.  The engine only ever emits what the covered
statements give; everywhere else the verdict is the ``decomposability``
status alone, with the composition-factor multiset attached when it is
computable.

Base structures are stated for the tensor product of two exterior
powers over the classical Schur algebra, k >= j, over two-column labels
and without e; for k < j the family takes the dual of the base for
(j, k), by component-switching duality (total shift j + k).
``family_label`` is the one map from a two-column label to a family's
graded simple label: scrt at the uniform shift j into ((ke), (je)), the
induction map for ((ke+a, 1^b), (je+a, 1^b)), and for the conjugate
family the Mullineux map with contragredient duality (shift 2k + j).
Structures and composition factors both read it.
"""

from dataclasses import dataclass, field, replace

from .crystal import braces, induce, induction_recipe, is_regular, mullineux, scrt
from .padic import check_prime_or_zero
from .partitions import Bipartition, check_e, conjugate, format_bipartition
from .schur import (
    Partition, check_kj, composition_multiset, simultaneous_irreducibility,
    two_column,
)

DECOMPOSABLE = "decomposable"
INDECOMPOSABLE = "indecomposable"


@dataclass(frozen=True, order=True)
class SimpleLabel:
    bipartition: Bipartition
    shift: int


SEMISIMPLE = "semisimple"
UNISERIAL = "uniserial"
DIAGRAM = "diagram"


@dataclass(frozen=True)
class Summand:
    """A summand of a module structure; ``kind`` is its JSON type.  The
    labels are semisimple factors, uniserial layers socle first, or diagram
    vertices with ``edges`` as (below, above) vertex index pairs."""
    kind: str
    labels: tuple
    edges: tuple = ()


@dataclass(frozen=True)
class ModuleStructure:
    summands: tuple

    def labels(self):
        return [lab for s in self.summands for lab in s.labels]

    def num_summands(self) -> int:
        return len(self.summands)

    def map_labels(self, fn) -> "ModuleStructure":
        return ModuleStructure(tuple(replace(s, labels=tuple(map(fn, s.labels)))
                                     for s in self.summands))

    def dualize(self) -> "ModuleStructure":
        """Contragredient shape: layers reverse, diagram edges flip."""
        return ModuleStructure(tuple(
            replace(s, labels=s.labels[::-1]) if s.kind == UNISERIAL
            else replace(s, edges=tuple((b, a) for a, b in s.edges))
            for s in self.summands))


@dataclass(frozen=True)
class Verdict:
    status: str
    structure: ModuleStructure | None = None
    composition: tuple[SimpleLabel, ...] | None = None
    notes: tuple[str, ...] = field(default_factory=tuple)


def _simple(label) -> Summand:
    return Summand(SEMISIMPLE, (label,))


def semisimplicity_criterion(k: int, j: int, p: int) -> bool:
    """Semisimplicity of the Specht module of ((ke), (je)), k >= j >= 1:
    the Weyl modules of the two-column shapes with k + j boxes and at most
    j twos are irreducible at once (characteristic 0; p odd dividing none
    of k+j, ..., k-j+2; or p = 2 with (j, k) = (1, even) or (2, 1 mod 4))."""
    check_kj(k, j)
    return simultaneous_irreducibility(k + j, j, p)


def family_shape(k: int, j: int, e: int, a: int = 0, b: int = 0,
                 transpose: bool = False) -> Bipartition:
    """The bihook ((ke+a, 1^b), (je+a, 1^b)) of the family at (k, j, a, b),
    or its conjugate when ``transpose``.  A closed form: the crystal suite
    checks the induction map against it."""
    bp = ((k * e + a,) + (1,) * b, (j * e + a,) + (1,) * b)
    return conjugate(bp) if transpose else bp


def family_label(mu: Partition, k: int, j: int, e: int, a: int = 0, b: int = 0,
                 transpose: bool = False) -> SimpleLabel:
    """The graded simple label of the family at (k, j, a, b), or of its
    conjugate, that the two-column label mu stands for: scrt at shift j,
    then the induction map, then for the conjugate Mullineux at shift
    2k + j (the structure itself is dualised by the caller)."""
    bp = induce(scrt(mu, e), a, b, e)
    if transpose:
        bp = mullineux(bp, e)
    if not is_regular(bp, e):
        raise RuntimeError(f"emitted non-regular label {format_bipartition(bp)}")
    return SimpleLabel(bp, 2 * k + j if transpose else j)


def semisimple_decomposition(k: int, j: int) -> ModuleStructure:
    """The j+1 simple summands: the filtration shapes, the one with r twos
    for r = 1, ..., j and then the trivial-type one."""
    check_kj(k, j)
    summands = [_simple(two_column(r, k + j)) for r in range(1, j + 1)]
    summands.append(_simple(two_column(0, k + j)))
    return ModuleStructure(tuple(summands))


def structure_j2(k: int, p: int) -> ModuleStructure:
    """j = 2: the six-way case split on p and k."""
    check_prime_or_zero(p)
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    # scrt at e: ((ke+2e), -), ((ke+e, 1), (e-1)) and ((ke, e+1), (e-1))
    triv, one, two = (two_column(r, k + 2) for r in range(3))
    if semisimplicity_criterion(k, 2, p):
        return semisimple_decomposition(k, 2)
    if p != 2 and (k + 2) % p == 0:
        return ModuleStructure((_simple(two), Summand(UNISERIAL, (triv, one, triv))))
    if (p != 2 and (k + 1) % p == 0) or (p == 2 and k % 4 == 3):
        return ModuleStructure((_simple(one), Summand(UNISERIAL, (triv, two, triv))))
    if p != 2 and k % p == 0:
        return ModuleStructure((_simple(triv), Summand(UNISERIAL, (one, two, one))))
    if p == 2 and k % 4 == 0:
        return ModuleStructure(
            (_simple(triv), Summand(UNISERIAL, (one, triv, two, triv, one))))
    # p = 2, k = 2 mod 4: indecomposable, structure given as a diagram
    return ModuleStructure((Summand(DIAGRAM, (triv, one, two, one, triv),
                                    ((0, 1), (2, 1), (3, 2), (3, 4))),))


def almost_ss_residue(k: int, j: int, p: int) -> int | None:
    """When p divides exactly one of k+j, ..., k-j+2, the offset i with
    k+j = ap + i; otherwise None."""
    check_prime_or_zero(p)
    if p == 0:
        return None
    hits = [x for x in range(k - j + 2, k + j + 1) if x % p == 0]
    if len(hits) != 1:
        return None
    return k + j - hits[0]


def almost_ss_structure(k: int, j: int, p: int) -> ModuleStructure:
    """Structure of the tensor of two exterior powers over the classical
    Schur algebra when p divides exactly one of k+j, ..., k-j+2, over
    two-column partition labels.  At j = 1 the hypothesis is p | k+1, and
    the structure is the one uniserial summand triv | nontriv | triv.

    The exceptional branch is j = p with p dividing k+1 but p^2 not
    dividing k+1 (then the largest filtration shape is already simple);
    the statement's congruence k+1 = p mod p^2 is the special case with
    a = 1 mod p, but the digit rule forces the branch exactly when
    p^2 does not divide k+1, and the summand counts only match that way.
    """
    check_kj(k, j)
    i = almost_ss_residue(k, j, p)
    if i is None:
        raise ValueError(
            f"p={p} does not divide exactly one of {k - j + 2}..{k + j}")
    n = k + j

    def lab(m: int) -> Partition:
        return two_column(m, n)

    def nseries(r: int) -> Summand:
        low, high = i // 2 - r, (i + 1) // 2 + 1 + r
        return Summand(UNISERIAL, (lab(low), lab(high), lab(low)))

    summands: list = []
    if j == p and i == j - 1 and (k + 1) % (p * p) != 0:
        if j == 2:
            summands = [_simple(lab(0)), _simple(lab(1)), _simple(lab(2))]
        else:
            summands = [_simple(lab(0))]
            summands += [nseries(r) for r in range(i // 2)]
            summands.append(_simple(lab(j)))
        return ModuleStructure(tuple(summands))
    if i <= j - 1:
        if i % 2 == 1:
            summands.append(_simple(lab((i + 1) // 2)))
        summands += [nseries(r) for r in range(i // 2 + 1)]
        summands += [_simple(lab(m)) for m in range(i + 2, j + 1)]
    else:
        summands += [_simple(lab(m)) for m in range(i - j + 1)]
        if i % 2 == 1:
            summands.append(_simple(lab((i + 1) // 2)))
        summands += [nseries(r) for r in range(j - (i + 1) // 2)]
    return ModuleStructure(tuple(summands))


def five_factor_structure() -> ModuleStructure:
    """The worked ten-box case p=3, k=7, j=3: one simple summand plus one
    five-factor self-dual summand whose diagram is the configuration with
    the trivial-type factor on top."""
    triv, one, two, three = (two_column(r, 10) for r in range(4))
    diagram = Summand(DIAGRAM, (triv, two, three, two, triv),
                      ((0, 1), (2, 1), (3, 2), (3, 4)))
    return ModuleStructure((_simple(one), diagram))


def base_structure(k: int, j: int, p: int) -> ModuleStructure | None:
    """Structure of the tensor of two exterior powers, k >= j, over
    two-column labels, when a covered statement applies; None otherwise."""
    check_kj(k, j)
    if semisimplicity_criterion(k, j, p):
        return semisimple_decomposition(k, j)
    if j == 2:
        return structure_j2(k, p)
    if almost_ss_residue(k, j, p) is not None:
        return almost_ss_structure(k, j, p)
    if (p, k, j) == (3, 7, 3):
        return five_factor_structure()
    return None


def decomposability(k: int, j: int, p: int) -> str:
    """Decomposability of the whole family at (k, j, p), independent of
    (a, b) and of conjugation.  For min(k, j) = 1 it is failure of p to
    divide j+k; for p = 2 it is the 2-power congruence on k - j for the
    smaller parameter; odd p with both parameters > 1 is always
    decomposable."""
    if not (k >= 1 and j >= 1):
        raise ValueError(f"need k, j >= 1, got k={k}, j={j}")
    check_prime_or_zero(p)
    if p == 0:
        return DECOMPOSABLE
    lo, hi = min(k, j), max(k, j)
    if lo == 1:
        return DECOMPOSABLE if (k + j) % p else INDECOMPOSABLE
    if p != 2:
        return DECOMPOSABLE
    ell = lo.bit_length()  # 2^(ell-1) <= lo < 2^ell
    return DECOMPOSABLE if (hi - lo) % (1 << ell) else INDECOMPOSABLE


def composition_labels(k: int, j: int, e: int, p: int,
                       transpose: bool = False) -> tuple[SimpleLabel, ...]:
    """The composition-factor multiset as shifted simple labels (order by
    label), for the base shape with k >= j normalised by duality, or for
    the conjugate family when ``transpose``."""
    out = []
    for mu, mult in composition_multiset(max(k, j), min(k, j), p).items():
        out.extend([family_label(mu, k, j, e, transpose=transpose)] * mult)
    return tuple(sorted(out))


def predict(k: int, j: int, e: int, p: int, a: int = 0, b: int = 0,
            transpose: bool = False) -> Verdict:
    """Dispatch over the covered statements; never guesses.

    Base structures exist for: semisimple parameters, j = 2, p dividing
    exactly one of k+j, ..., k-j+2 (at j = 1: p | k+1), and the worked
    ten-box case (p, k, j) = (3, 7, 3).  They are over two-column labels
    (the dual base when k < j), and ``family_label`` maps them once to
    the family's labels: scrt at shift j, the induction map for (a, b),
    and Mullineux for the conjugate family, whose structure is then
    dualised.  Remaining cases get a decomposability verdict and, for
    a = b = 0, the composition multiset, through the same map.
    """
    check_e(e)
    check_prime_or_zero(p)
    induction_recipe(a, b, e)  # validates (a, b)
    if not (k >= 1 and j >= 1):
        raise ValueError(f"need k, j >= 1, got k={k}, j={j}")

    notes: list[str] = []
    base = None
    if k < j and (a or b or transpose):
        notes.append(
            "k < j with induced or conjugate labels has no covered "
            "statement; verdict only")
    else:
        base = base_structure(max(k, j), min(k, j), p)
        if base is None:
            notes.append("no covered statement gives the full structure here")
        elif k < j:
            notes.append(
                f"dual of the structure for k={j}, j={k} under component "
                f"switching; contragredient total shift {k + j}")
    if base is None:
        return Verdict(decomposability(k, j, p), None,
                       None if a or b else composition_labels(k, j, e, p, transpose),
                       tuple(notes))
    struct = (base.dualize() if k < j else base).map_labels(
        lambda mu: family_label(mu, k, j, e, a, b, transpose))
    if a or b:
        notes.append(f"labels pushed through the induction map at (a, b) = ({a}, {b})")
    if transpose:
        struct = struct.dualize()
        notes.append(
            f"conjugate family: Mullineux labels, contragredient shift {2 * k + j}; "
            "the induced statements print the unconjugated shift, the duality "
            "computation is used here")
    status = DECOMPOSABLE if struct.num_summands() > 1 else INDECOMPOSABLE
    return Verdict(status, struct, None, tuple(notes))


def braces_transpose_label(lab: SimpleLabel, a: int, b: int, e: int) -> SimpleLabel:
    """The conjugate-family label computed the other way round: negative
    induction applied to the braces image.  Agrees with Mullineux after
    induction; exercised by the test-suite."""
    return SimpleLabel(induce(braces(lab.bipartition, e), a, b, e, negate=True),
                       lab.shift)
