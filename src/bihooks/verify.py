"""Cross-check suites: each suite sweeps one family of identities over a
bounded grid and reports the failures with reproducing inputs.

Bounds are keyword arguments with defaults sized to finish in seconds on
one core: the slowest, words and llt over an empty cache, take about 5 s
and 2 s on a 2-vCPU x86-64 machine with Python 3.11, and llt over a
filled cache under 1 s.  The command line exposes them as flags.

A failure text is built only when its case fails: ``SuiteReport.check``
takes a function that returns it, never the text itself.
"""

import inspect
import math
import operator
import time
from collections import Counter
from dataclasses import dataclass, field

from . import crystal, fock, schur, structure, tableaux
from .laurent import LaurentPoly, ZERO, c_factor
from .partitions import (
    add_node, addable_nodes, all_nodes, as_bipartition, bipartitions,
    conjugate, dominance_key, format_bipartition, hook_length, key_dominates,
    partitions, removable_nodes, residue, size,
)


@dataclass
class SuiteReport:
    suite: str
    cases: int = 0
    failures: list[str] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, condition: bool, repro):
        """Count one case; repro is a function returning the failure
        text, called only when the case fails."""
        self.cases += 1
        if not condition:
            self.failures.append(repro())

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} FAILED"
        return (f"suite {self.suite}: {self.cases} cases, {status} "
                f"({self.seconds:.1f}s)")


def _compositions(n: int) -> list[tuple[int, ...]]:
    out = []
    for cuts in range(2 ** max(n - 1, 0)):
        parts, cur = [], 1
        for bit in range(n - 1):
            if cuts >> bit & 1:
                parts.append(cur)
                cur = 1
            else:
                cur += 1
        parts.append(cur)
        out.append(tuple(parts))
    return out


def _kj_pairs(max_kj: int):
    """Every (k, j) with k >= j >= 1 and k + j <= max_kj, by k + j, then j."""
    for total in range(2, max_kj + 1):
        for j in range(1, total // 2 + 1):
            yield total - j, j


def combinatorics_suite(max_n: int = 12) -> SuiteReport:
    rep = SuiteReport("combinatorics")
    for n in range(max_n + 1):
        for bp in bipartitions(n):
            rep.check(conjugate(conjugate(bp)) == bp,
                      lambda: f"conjugate involution at {format_bipartition(bp)}")
    # dominance is a partial order (bitset transitivity)
    dn = min(max_n, 8)
    for n in range(dn + 1):
        bps = bipartitions(n)
        keys = [dominance_key(bp) for bp in bps]
        below = []
        for ka in keys:
            mask = 0
            for idx, kb in enumerate(keys):
                if key_dominates(ka, kb):
                    mask |= 1 << idx
            below.append(mask)
        for idx, bp in enumerate(bps):
            rep.check(below[idx] >> idx & 1, lambda: f"dominance reflexive at {bp}")
        for ia in range(len(bps)):
            for ib in range(len(bps)):
                if ia != ib and below[ia] >> ib & 1:
                    rep.check(not below[ib] >> ia & 1,
                              lambda: f"dominance antisymmetry at {bps[ia]}, {bps[ib]}")
                    rep.check(below[ia] | below[ib] == below[ia],
                              lambda: f"dominance transitivity at {bps[ia]}, {bps[ib]}")
    for n in range(1, min(max_n, 10) + 1):
        for lam in partitions(n):
            hooks = [hook_length(lam, r + 1, c + 1)
                     for r, length in enumerate(lam) for c in range(length)]
            rep.check(len(hooks) == n and all(h >= 1 for h in hooks),
                      lambda: f"hook lengths of {lam}")
    for e in (2, 3, 4, 5):
        for r in range(1, 6):
            for c in range(1, 6):
                for m in (1, 2):
                    rep.check(residue((r, c, m), e) == (c - r) % e,
                              lambda: f"residue({r},{c},{m}) mod {e}")
    for n in range(min(max_n, 8) + 1):
        for bp in bipartitions(n):
            nodes = set(all_nodes(bp))
            adds, rems = addable_nodes(bp), removable_nodes(bp)
            rep.check(not (set(adds) & nodes), lambda: f"addables meet {bp}")
            rep.check(set(rems) <= nodes, lambda: f"removables outside {bp}")
            for node in adds:
                grown = add_node(bp, node)
                rep.check(as_bipartition(grown) == grown and size(grown) == n + 1,
                          lambda: f"add {node} to {bp}")
    return rep


def _or_none(fn, *args, **kwargs):
    """fn(*args, **kwargs), or None where it raises ValueError: a broken
    crystal step is a failed case, not a crash of the suite."""
    try:
        return fn(*args, **kwargs)
    except ValueError:
        return None


def crystal_suite(max_n: int = 10, es=(2, 3, 4)) -> SuiteReport:
    rep = SuiteReport("crystal")
    for e in es:
        for n in range(max_n + 1):
            # the cogood closure, the other route to regularity
            reachable = crystal.regular_bipartitions(n, e)
            for bp in bipartitions(n):
                for i, sig in enumerate(crystal.signatures(bp, e)):
                    red = crystal.reduce_signature(sig)
                    signs = "".join(s for s, _ in red)
                    rep.check("+-" not in signs,
                              lambda: f"reduced signature shape {bp} i={i} e={e}")
                    rep.check(crystal.reduce_signature(red) == red,
                              lambda: f"reduction idempotence {bp} i={i} e={e}")
                    node = crystal.cogood_node(sig)
                    if node is not None:
                        up = add_node(bp, node)
                        rep.check(size(up) == n + 1 and as_bipartition(up) == up,
                                  lambda: f"f-tilde growth {bp} i={i} e={e}")
                        rep.check(crystal.e_tilde(up, i, e) == bp,
                                  lambda: f"e-tilde after f-tilde {bp} i={i} e={e}")
                # the one-shape good-node peel against the closure
                rep.check(crystal.is_regular(bp, e) == (bp in reachable),
                          lambda: f"regularity oracle {format_bipartition(bp)} e={e}")
            for bp in bipartitions(n):
                if not crystal.is_regular(bp, e):
                    continue
                img = _or_none(crystal.mullineux, bp, e)
                # the image's residue content is bp's under i -> -i mod e
                rep.check(img is not None and size(img) == n
                          and crystal.is_regular(img, e)
                          and Counter(-residue(x, e) % e for x in all_nodes(img))
                          == Counter(residue(x, e) for x in all_nodes(bp)),
                          lambda: f"mullineux image {format_bipartition(bp)} "
                                  f"e={e}")
                rep.check(img is not None and _or_none(crystal.mullineux, img, e) == bp,
                          lambda: f"mullineux involution {format_bipartition(bp)} "
                                  f"e={e}")
    for e in es:
        for n in range(1, 9):
            for m in range(n // 2 + 1):
                lab = crystal.scrt(schur.two_column(m, n), e)
                rep.check(size(lab) == n * e and crystal.is_regular(lab, e),
                          lambda: f"scrt size/regularity m={m} n={n} e={e}")
    for e in [x for x in es if x <= 4]:
        for a, b in [(0, 0)] + crystal.induction_pairs(e):
            for k in range(1, 5):
                for j in range(1, k + 1):
                    # the family's closed form, and under negated induction
                    # its conjugate's
                    for neg in (False, True):
                        got = _or_none(crystal.induce, structure.family_shape(
                            k, j, e, transpose=neg), a, b, e, negate=neg)
                        rep.check(got == structure.family_shape(k, j, e, a, b, neg),
                                  lambda: f"{'negated ' if neg else ''}induction "
                                          f"closed form k={k} j={j} a={a} b={b} e={e}")
    return rep


def schur_suite(max_n: int = 30, primes=(2, 3, 5, 7, 11)) -> SuiteReport:
    rep = SuiteReport("schur")
    for p in primes:
        for n in range(2, max_n + 1):
            for j in range(1, min(4, n // 2) + 1):
                lhs = schur.simultaneous_irreducibility(n, j, p)
                rhs = all(schur.weyl_is_irreducible(schur.two_column(r, n), p)
                          for r in range(j + 1))
                rep.check(lhs == rhs, lambda: f"simultaneous irreducibility "
                                              f"n={n} j={j} p={p}")
    for p in primes:
        for n in range(1, min(max_n, 20) + 1):
            for m in range(n // 2 + 1):
                rep.check(schur.decomp_number(m, m, n, p) == 1,
                          lambda: f"decomp diagonal m={m} n={n} p={p}")
                for jj in range(n // 2 + 1):
                    if jj > m:
                        rep.check(schur.decomp_number(m, jj, n, p) == 0,
                                  lambda: f"decomp unitriangular m={m} jj={jj} "
                                          f"n={n} p={p}")
    for j in range(1, 9):
        ell = j.bit_length()
        for k in range(j, 41):
            many = schur.num_summands(k, j, 2) > 1
            rep.check(many == bool((k - j) % (1 << ell)),
                      lambda: f"p=2 summand criterion k={k} j={j}")
    for p in primes:
        for n in range(4, max_n + 1):
            for j in range(2, n // 2 + 1):
                k = n - j
                i = structure.almost_ss_residue(k, j, p)
                if i is None:
                    continue
                if j == p and i == j - 1 and (k + 1) % (p * p) != 0:
                    expected = 1 + (j - (i + 2) // 2 + 1)
                else:
                    expected = max(i - j + 1, 0) + (j - (i + 2) // 2 + 1)
                rep.check(schur.num_summands(k, j, p) == expected,
                          lambda: f"summand closed form k={k} j={j} p={p}")
    for k, j in _kj_pairs(6):
        for mu in _compositions(k + j):
            lhs = sum(schur.kostka_two_column(schur.two_column(r, k + j), mu)
                      for r in range(j + 1))
            rep.check(lhs == schur.exterior_weight_dim(j, k, mu),
                      lambda: f"kostka column sums k={k} j={j} mu={mu}")
        for r in range(j + 1):
            shape = schur.two_column(r, k + j)
            rep.check(schur.kostka_two_column(shape, shape) == 1,
                      lambda: f"kostka diagonal {shape}")
    return rep


def structure_suite(max_kj: int = 14, primes=(0, 2, 3, 5, 7), es=(2, 3)) -> SuiteReport:
    rep = SuiteReport("structure")
    for e in es:
        for p in primes:
            for k, j in _kj_pairs(max_kj):
                v = structure.predict(k, j, e, p)
                tag = f"e={e} p={p} k={k} j={j}"
                if v.structure is None:
                    many = schur.num_summands(k, j, p) > 1
                    rep.check(v.status ==
                              (structure.DECOMPOSABLE if many
                               else structure.INDECOMPOSABLE),
                              lambda: f"verdict vs summand count {tag}")
                    continue
                rep.check(v.structure.num_summands() == schur.num_summands(k, j, p),
                          lambda: f"summand count {tag}")
                rep.check(Counter(v.structure.labels())
                          == Counter(structure.composition_labels(k, j, e, p)),
                          lambda: f"composition multiset {tag}")
                rep.check(all(lab.shift == j for lab in v.structure.labels()),
                          lambda: f"uniform shift {tag}")
                rep.check(all(crystal.is_regular(lab.bipartition, e)
                              for lab in v.structure.labels()),
                          lambda: f"regular labels {tag}")
                for s in v.structure.summands:
                    if s.kind == structure.UNISERIAL:
                        rep.check(s.labels == s.labels[::-1],
                                  lambda: f"palindromic layers {tag}")
    for e in es:
        for p in primes:
            for k in range(2, 21):
                if structure.almost_ss_residue(k, 2, p) is None:
                    continue
                a, b = (structure.almost_ss_structure(k, 2, p),
                        structure.structure_j2(k, p))
                rep.check(Counter(a.summands) == Counter(b.summands),
                          lambda: f"j=2 overlap e={e} p={p} k={k}")
    return rep


def _norm(poly) -> int:
    """The l1 norm: the sum of the coefficients' sizes."""
    return sum(abs(c) for _, c in poly.iter_terms())


def _low(polys) -> int:
    """The lowest exponent over the nonzero polynomials, or 0."""
    return min((p.min_exp() for p in polys if p), default=0)


def _packed(poly, low: int, w: int) -> int:
    """poly * q^-low at q = 2^w, for a poly with no exponent below low."""
    return sum(c << w * (k - low) for k, c in poly.iter_terms())


def _llt_matrix_checks(rep: SuiteReport, matrix, e: int, n: int):
    """The diagonal, window and triangularity of every entry, then the
    balance dim_q S^lam = sum_mu d(lam, mu) X_mu of every row, with the
    X_mu = dim_q D^mu of ``fock.simple_graded_dims_from``.

    Triangularity is one subtraction and mask per entry.  Each row's
    ``dominance_key`` is packed into one int, its coordinate k in the
    field of ``width = n.bit_length() + 1`` bits at bit (2n-1-k)*width,
    and ``guard`` holds each field's top bit.  It is exact for every n:
    each coordinate lies in [0, n], below 2^(width-1), so with a and b
    the coordinates of mu and lam, a field of ``(code(mu) | guard) -
    code(lam)`` is 2^(width-1) + a - b, in [1, 2^width).  No borrow
    crosses a field, and a field keeps its guard bit iff a >= b: the
    difference keeps every guard bit iff mu dominates lam.

    The balance is one int per row: each side at q = 2^w, shifted by
    q^-low, where low is the entries' lowest exponent plus the X_mu's.
    The left side is ``tableaux.packed_graded_dimension``, a peel on bead
    codes that builds no polynomial; the X_mu come from the ``LaurentPoly``
    peel ``tableaux.graded_dimension``, so at a regular row the balance
    compares the two routes.  Entries share values, so each column forms
    the product of X_mu with each of its value objects once, and adds it
    to every row that holds that object.

    It is exact.  Every coefficient of gd(lam) counts standard tableaux,
    so it is at most their number f^lam = C(n, |lam1|) f^lam1 f^lam2 <=
    n!.  With B = n! + max |d|_1 * sum_mu |X_mu|_1 (l1 norms), every
    coefficient c of gd(lam) - sum_mu d(lam, mu) X_mu has |c| <= B, below
    2^w for any w with 2^w > B.  A nonzero difference is then, at q = 2^w,
    its lowest term plus multiples of the next power of 2^w, and that
    term is no such multiple: so it is not 0.  w is B.bit_length()
    rounded up to a multiple of 64, so that one memo of the peel per
    (e, w) serves every level: at the default bounds every level has B
    below 2^45, so w = 64.  A graded dimension with an exponent below low
    fails its case unevaluated."""
    # codes of its own, packed from each row's dominance_key: the table
    # partitions.dominance_keys is what the solver and the cache check
    # read, so a fault in it cannot hide from this check
    width = n.bit_length() + 1
    shifts = range((2 * n - 1) * width, -1, -width)
    guard = sum(1 << s for s in shifts) << (width - 1)
    code_of = {lam: sum(map(operator.lshift, dominance_key(lam), shifts))
               for lam in matrix.rows()}
    one = LaurentPoly.q_power(0)
    # id -> in_q_window, and id -> value, once per value object: entries
    # share values, and the matrix keeps every one alive while this runs
    window: dict[int, bool] = {}
    values: dict[int, LaurentPoly] = {}
    for mu, col in matrix.columns.items():
        diagonal = col.get(mu)
        rep.check(diagonal == one,
                  lambda: f"diagonal e={e} n={n} {format_bipartition(mu)}")
        if diagonal is not None:
            values[id(diagonal)] = diagonal
        top = code_of[mu] | guard
        for lam, val in col.items():
            if lam == mu:
                continue
            inside = window.get(id(val))
            if inside is None:
                inside = window[id(val)] = val.in_q_window()
                values[id(val)] = val
            rep.check(inside and (top - code_of[lam]) & guard == guard,
                      lambda: f"window/triangularity e={e} n={n} "
                              f"{format_bipartition(lam)},{format_bipartition(mu)}")
    try:
        qdim = fock.simple_graded_dims_from(matrix)
    except RuntimeError as exc:
        # a wrong entry the checks above let pass; no balance without qdim
        rep.check(False, lambda: f"simple dimensions e={e} n={n}: {exc}")
        return
    bound = (math.factorial(n) + max(map(_norm, values.values()), default=0)
             * sum(map(_norm, qdim.values())))
    w = -(-bound.bit_length() // 64) * 64
    low_d, low_x = _low(values.values()), _low(qdim.values())
    packed = {i: _packed(val, low_d, w) for i, val in values.items()}
    # rows in decreasing dominance, each with its right side at 2^w
    rhs = dict.fromkeys(code_of, 0)
    for mu, col in matrix.columns.items():
        x = _packed(qdim[mu], low_x, w)
        product = {i: packed[i] * x for i in set(map(id, col.values()))}
        for lam, val in col.items():
            rhs[lam] += product[id(val)]
    low = low_d + low_x
    for lam, got in rhs.items():
        low_g, g = tableaux.packed_graded_dimension(lam, e, w)
        rep.check(low_g >= low and g << w * (low_g - low) == got,
                  lambda: f"dimension balance e={e} n={n} {format_bipartition(lam)}")


def _predicted_row(rep: SuiteReport, matrix, k: int, j: int, e: int,
                   text: str, a: int = 0, b: int = 0, transpose: bool = False):
    """One case: the row of the family's bihook is the sum of q^shift over
    the labels of the characteristic-0 structure ``predict`` gives it."""
    want: dict = {}
    for lab in structure.predict(k, j, e, 0, a=a, b=b,
                                 transpose=transpose).structure.labels():
        want[lab.bipartition] = want.get(lab.bipartition, ZERO) + \
            LaurentPoly.q_power(lab.shift)
    shape = structure.family_shape(k, j, e, a, b, transpose)
    rep.check(matrix.row(shape) == want, lambda: text)


def _induced_cases(e: int, max_n: int):
    """The induced families the llt suite reads at e, as (a, b, k, j, n),
    n the box count of the induced bihook, at most max_n + 4."""
    for a, b in crystal.induction_pairs(e):
        for k, j in _kj_pairs(3):
            n = (k + j) * e + 2 * (a + b)
            if n <= max_n + 4:
                yield a, b, k, j, n


def llt_suite(es=(2, 3), max_kj: int = 5, max_n: int = 12,
              cache_dir=None) -> SuiteReport:
    rep = SuiteReport("llt")
    families = {e: list(_induced_cases(e, max_n)) for e in es}
    # every level the cases read, solved before any check and each e's in
    # increasing n, so that a solve starts its columns from the levels
    # below it (`fock` module docstring, "First approximation")
    levels = {e: {n: fock.canonical_basis(n, e, cache_dir=cache_dir)
                  for n in sorted({*range(max_n + 1),
                                   *range(2 * e, max_kj * e + 1, e),
                                   *(case[-1] for case in families[e])})}
              for e in es}
    for e in es:
        # window, triangularity and balance across whole levels (every
        # box count up to max_n, at every e)
        for n in range(max_n + 1):
            _llt_matrix_checks(rep, levels[e][n], e, n)
        for total in range(2, max_kj + 1):
            n = total * e
            matrix = levels[e][n]
            if n > max_n:
                _llt_matrix_checks(rep, matrix, e, n)
            # the bihook rows, then the conjugate family's, whose entries
            # q^(2k+j) at the Mullineux labels pin the grading shift that
            # predict gives the transposed structures
            for transpose, kind in ((False, "single-degree"), (True, "conjugate")):
                for j in range(1, total // 2 + 1):
                    k = total - j
                    _predicted_row(rep, matrix, k, j, e,
                                   f"{kind} concentration e={e} k={k} j={j}",
                                   transpose=transpose)
    # induced families: rows of the induced bihook and its conjugate
    # against the predicted structures, and the induction recipe carries
    # the bihook basis vector to exactly the induced one
    for e in es:
        for a, b, k, j, n in families[e]:
            matrix = levels[e][n]
            vec = {structure.family_shape(k, j, e): LaurentPoly.q_power(0)}
            for i, mult in crystal.induction_recipe(a, b, e):
                vec = fock.apply_f_divided(vec, i, mult, e)
            induced = structure.family_shape(k, j, e, a, b)
            tag = f"e={e} k={k} j={j} a={a} b={b}"
            rep.check(vec == {induced: LaurentPoly.q_power(0)},
                      lambda: f"recipe transports the bihook vector {tag}")
            _predicted_row(rep, matrix, k, j, e,
                           f"induced concentration {tag}", a, b)
            _predicted_row(rep, matrix, k, j, e,
                           f"conjugate induced concentration {tag}",
                           a, b, transpose=True)
    return rep


def words_suite(es=(2, 3), max_kj: int = 4, max_n: int = 10) -> SuiteReport:
    rep = SuiteReport("words")
    for e in es:
        for k, j in _kj_pairs(max_kj):
            lam = structure.family_shape(k, j, e)
            for mu in _compositions(k + j):
                lhs = tableaux.word_graded_dimension(lam, tableaux.gg_word(mu, e), e)
                rhs = (LaurentPoly.q_power(j) * c_factor(mu, e)
                       * schur.exterior_weight_dim(j, k, mu))
                rep.check(lhs == rhs,
                          lambda: f"word identity e={e} k={k} j={j} mu={mu}")
    # bucket the standard tableaux by residue sequence and compare every
    # bucket, in sorted word order, against the peel recursion; the
    # buckets also sum to the full graded dimension.  The buckets come
    # from tableaux.word_codegree_counts, a walk over partial fillings
    # that counts (word, codegree) pairs at every e at once and reads node
    # degrees from its own memo, not from the peel tables the recursion
    # reads.
    for n in range(0, max_n + 1):
        for lam in bipartitions(n):
            for e, count in zip(es, tableaux.word_codegree_counts(lam, es)):
                buckets: dict[tuple, dict[int, int]] = {}
                sums = Counter()
                for (w, d), v in count.items():
                    buckets.setdefault(w, {})[d] = v
                    sums[d] += v
                words = sorted(buckets)
                for w, val in zip(words, tableaux.word_graded_dimensions(
                        lam, words, e)):
                    rep.check(LaurentPoly._raw(buckets[w]) == val,
                              lambda: f"word space e={e} {format_bipartition(lam)} {w}")
                rep.check(LaurentPoly._raw(dict(sums))
                          == tableaux.graded_dimension(lam, e),
                          lambda: f"word sums e={e} {format_bipartition(lam)}")
    return rep


def degrees_suite(es=(2, 3, 4, 5), max_kj: int = 6) -> SuiteReport:
    rep = SuiteReport("degrees")
    for e in es:
        for k, j in _kj_pairs(max_kj):
            lam = structure.family_shape(k, j, e)
            word = tableaux.residue_sequence(
                tableaux.column_initial_tableau(lam), e)
            matching = tableaux.standard_tableaux(lam, word=word, e=e)
            rep.check(bool(matching), lambda: f"no matching tableaux e={e} k={k} j={j}")
            for t in matching:
                rep.check(tableaux.codegree(t, e) == j,
                          lambda: f"codegree j on residue-matched tableau e={e} "
                                  f"k={k} j={j} {t}")
            source = crystal.scrt(schur.two_column(j, k + j), e)
            cod1 = tableaux.codegree(tableaux.column_initial_tableau(source), e)
            entries = list(range(1, e)) + list(range(e + 1, 2 * j * e - e + 2, 2))
            cod2 = tableaux.codegree(tableaux.v_tableau(lam, entries), e)
            want = (2 * j, 3 * j) if e == 2 else (1, j + 1)
            rep.check((cod1, cod2) == want,
                      lambda: f"codegree pair e={e} k={k} j={j}: got {(cod1, cod2)}, "
                              f"expected {want}")
    return rep


SUITES = {
    "combinatorics": combinatorics_suite,
    "crystal": crystal_suite,
    "schur": schur_suite,
    "structure": structure_suite,
    "llt": llt_suite,
    "words": words_suite,
    "degrees": degrees_suite,
}


def run_suite(name: str, **bounds) -> SuiteReport:
    """Run one suite; a bound of None takes the suite's default, and a
    bound the suite does not take is an error."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    suite = SUITES[name]
    clean = {k: v for k, v in bounds.items() if v is not None}
    unknown = sorted(clean.keys() - inspect.signature(suite).parameters.keys())
    if unknown:
        flags = ", ".join("--e" if k == "es" else "--" + k.replace("_", "-")
                          for k in unknown)
        raise ValueError(f"suite {name!r} does not take {flags}")
    for key, flag in (("es", "--e"), ("primes", "--primes")):
        if key in clean:
            # the suites loop over these several times
            clean[key] = tuple(clean[key])
            if not clean[key]:
                raise ValueError(f"{flag} needs at least one value")
            if len(set(clean[key])) < len(clean[key]):
                raise ValueError(f"{flag} repeats a value")
    if clean.get("max_n", 0) < 0:
        raise ValueError(f"--max-n must be >= 0, got {clean['max_n']}")
    if clean.get("max_kj", 2) < 2:
        raise ValueError(f"--max-kj must be >= 2, got {clean['max_kj']}")
    if name == "words" and clean.get("max_n", 0) > tableaux.SIZE_BOUND:
        raise ValueError(f"--max-n must be <= {tableaux.SIZE_BOUND} for suite "
                         f"'words', got {clean['max_n']}")
    t0 = time.time()
    rep = suite(**clean)
    rep.seconds = time.time() - t0
    return rep
