"""Cross-check suites: each suite sweeps one family of identities over a
bounded grid and reports the failures with reproducing inputs.

Bounds are keyword arguments with defaults sized to finish in minutes on
one core; the command line exposes them as flags.
"""

import inspect
import time
from collections import Counter
from dataclasses import dataclass, field

from . import crystal, fock, schur, structure, tableaux
from .laurent import LaurentPoly, ZERO, c_factor, dot
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
        """Count one case; repro is the failure text, or a function
        returning it that is called only when the case fails."""
        self.cases += 1
        if not condition:
            self.failures.append(repro() if callable(repro) else repro)

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
                      f"conjugate involution at {format_bipartition(bp)}")
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
            rep.check(below[idx] >> idx & 1, f"dominance reflexive at {bp}")
        for ia in range(len(bps)):
            for ib in range(len(bps)):
                if ia != ib and below[ia] >> ib & 1:
                    rep.check(not below[ib] >> ia & 1,
                              f"dominance antisymmetry at {bps[ia]}, {bps[ib]}")
                    rep.check(below[ia] | below[ib] == below[ia],
                              f"dominance transitivity at {bps[ia]}, {bps[ib]}")
    for n in range(1, min(max_n, 10) + 1):
        for lam in partitions(n):
            hooks = [hook_length(lam, r + 1, c + 1)
                     for r, length in enumerate(lam) for c in range(length)]
            rep.check(len(hooks) == n and all(h >= 1 for h in hooks),
                      f"hook lengths of {lam}")
    for e in (2, 3, 4, 5):
        for r in range(1, 6):
            for c in range(1, 6):
                for m in (1, 2):
                    rep.check(residue((r, c, m), e) == (c - r) % e,
                              f"residue({r},{c},{m}) mod {e}")
    for n in range(min(max_n, 8) + 1):
        for bp in bipartitions(n):
            nodes = set(all_nodes(bp))
            adds, rems = addable_nodes(bp), removable_nodes(bp)
            rep.check(not (set(adds) & nodes), f"addables meet {bp}")
            rep.check(set(rems) <= nodes, f"removables outside {bp}")
            for node in adds:
                grown = add_node(bp, node)
                rep.check(as_bipartition(grown) == grown and size(grown) == n + 1,
                          f"add {node} to {bp}")
    return rep


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
                              f"reduced signature shape {bp} i={i} e={e}")
                    rep.check(crystal.reduce_signature(red) == red,
                              f"reduction idempotence {bp} i={i} e={e}")
                    up = crystal.f_tilde(bp, i, e)
                    if up is not None:
                        rep.check(size(up) == n + 1 and as_bipartition(up) == up,
                                  f"f-tilde growth {bp} i={i} e={e}")
                        rep.check(crystal.e_tilde(up, i, e) == bp,
                                  f"e-tilde after f-tilde {bp} i={i} e={e}")
                # the one-shape good-node peel against the closure
                rep.check(crystal.is_regular(bp, e) == (bp in reachable),
                          f"regularity oracle {format_bipartition(bp)} e={e}")
            for bp in bipartitions(n):
                if not crystal.is_regular(bp, e):
                    continue
                img = crystal.mullineux(bp, e)
                # the image's residue content is bp's under i -> -i mod e
                rep.check(size(img) == n and crystal.is_regular(img, e)
                          and Counter(-residue(x, e) % e for x in all_nodes(img))
                          == Counter(residue(x, e) for x in all_nodes(bp)),
                          f"mullineux image {format_bipartition(bp)} e={e}")
                rep.check(crystal.mullineux(img, e) == bp,
                          f"mullineux involution {format_bipartition(bp)} e={e}")
    for e in es:
        for n in range(1, 9):
            for m in range(n // 2 + 1):
                lab = crystal.scrt(schur.two_column(m, n), e)
                rep.check(size(lab) == n * e and crystal.is_regular(lab, e),
                          f"scrt size/regularity m={m} n={n} e={e}")
    for e in [x for x in es if x <= 4]:
        for a, b in [(0, 0)] + crystal.induction_pairs(e):
            for k in range(1, 5):
                for j in range(1, k + 1):
                    # the family's closed form, and under negated induction
                    # its conjugate's
                    for neg in (False, True):
                        got = crystal.induce(structure.family_shape(
                            k, j, e, transpose=neg), a, b, e, negate=neg)
                        rep.check(got == structure.family_shape(k, j, e, a, b, neg),
                                  f"{'negated ' if neg else ''}induction closed "
                                  f"form k={k} j={j} a={a} b={b} e={e}")
    return rep


def schur_suite(max_n: int = 30, primes=(2, 3, 5, 7, 11)) -> SuiteReport:
    rep = SuiteReport("schur")
    for p in primes:
        for n in range(2, max_n + 1):
            for j in range(1, min(4, n // 2) + 1):
                lhs = schur.simultaneous_irreducibility(n, j, p)
                rhs = all(schur.weyl_is_irreducible(schur.two_column(r, n), p)
                          for r in range(j + 1))
                rep.check(lhs == rhs, f"simultaneous irreducibility n={n} j={j} p={p}")
    for p in primes:
        for n in range(1, min(max_n, 20) + 1):
            for m in range(n // 2 + 1):
                rep.check(schur.decomp_number(m, m, n, p) == 1,
                          f"decomp diagonal m={m} n={n} p={p}")
                for jj in range(n // 2 + 1):
                    if jj > m:
                        rep.check(schur.decomp_number(m, jj, n, p) == 0,
                                  f"decomp unitriangular m={m} jj={jj} n={n} p={p}")
    for j in range(1, 9):
        ell = j.bit_length()
        for k in range(j, 41):
            many = schur.num_summands(k, j, 2) > 1
            rep.check(many == bool((k - j) % (1 << ell)),
                      f"p=2 summand criterion k={k} j={j}")
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
                          f"summand closed form k={k} j={j} p={p}")
    for k, j in _kj_pairs(6):
        for mu in _compositions(k + j):
            lhs = sum(schur.kostka_two_column(schur.two_column(r, k + j), mu)
                      for r in range(j + 1))
            rep.check(lhs == schur.exterior_weight_dim(j, k, mu),
                      f"kostka column sums k={k} j={j} mu={mu}")
        for r in range(j + 1):
            shape = schur.two_column(r, k + j)
            rep.check(schur.kostka_two_column(shape, shape) == 1,
                      f"kostka diagonal {shape}")
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
                              f"verdict vs summand count {tag}")
                    continue
                rep.check(v.structure.num_summands() == schur.num_summands(k, j, p),
                          f"summand count {tag}")
                rep.check(Counter(v.structure.labels())
                          == Counter(structure.composition_labels(k, j, e, p)),
                          f"composition multiset {tag}")
                rep.check(all(lab.shift == j for lab in v.structure.labels()),
                          f"uniform shift {tag}")
                rep.check(all(crystal.is_regular(lab.bipartition, e)
                              for lab in v.structure.labels()),
                          f"regular labels {tag}")
                for s in v.structure.summands:
                    if s.kind == structure.UNISERIAL:
                        rep.check(s.labels == s.labels[::-1],
                                  f"palindromic layers {tag}")
    for e in es:
        for p in (2, 3, 5, 7):
            for k in range(2, 21):
                if structure.almost_ss_residue(k, 2, p) is None:
                    continue
                a, b = (structure.almost_ss_structure(k, 2, p),
                        structure.structure_j2(k, p))
                rep.check(Counter(a.summands) == Counter(b.summands),
                          f"j=2 overlap e={e} p={p} k={k}")
    return rep


def _llt_matrix_checks(rep: SuiteReport, matrix, e: int, n: int):
    # tuple keys of its own, not the packed table the solver orders by
    key_of = {lam: dominance_key(lam) for lam in matrix.rows()}
    one = LaurentPoly.q_power(0)
    # id -> in_q_window, once per value object: entries share values, and
    # the matrix keeps every one alive while this runs
    window: dict[int, bool] = {}
    for mu, col in matrix.columns.items():
        rep.check(col.get(mu) == one,
                  lambda: f"diagonal e={e} n={n} {format_bipartition(mu)}")
        kmu = key_of[mu]
        for lam, val in col.items():
            if lam == mu:
                continue
            inside = window.get(id(val))
            if inside is None:
                inside = window[id(val)] = val.in_q_window()
            rep.check(inside and key_dominates(kmu, key_of[lam]),
                      lambda: f"window/triangularity e={e} n={n} "
                              f"{format_bipartition(lam)},{format_bipartition(mu)}")
    try:
        qdim = fock.simple_graded_dims_from(matrix)
    except RuntimeError as exc:
        # a wrong entry the checks above let pass; no balance without qdim
        rep.check(False, f"simple dimensions e={e} n={n}: {exc}")
        return
    for lam in key_of:  # decreasing dominance
        rhs = dot((val, qdim[mu]) for mu, val in matrix.row(lam).items())
        rep.check(tableaux.graded_dimension(lam, e) == rhs,
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
    rep.check(matrix.row(shape) == want, text)


def llt_suite(es=(2, 3), max_kj: int = 5, max_n: int = 12,
              cache_dir=None) -> SuiteReport:
    rep = SuiteReport("llt")
    for e in es:
        # window, triangularity and balance across whole levels (every
        # box count, capped lower for e > 3)
        sweep = min(max_n, 10) if e >= 4 else max_n
        for n in range(sweep + 1):
            matrix = fock.canonical_basis(n, e, cache_dir=cache_dir)
            _llt_matrix_checks(rep, matrix, e, n)
        for total in range(2, max_kj + 1):
            n = total * e
            matrix = fock.canonical_basis(n, e, cache_dir=cache_dir)
            if n > sweep:
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
        for a, b in crystal.induction_pairs(e):
            for k, j in _kj_pairs(3):
                n = (k + j) * e + 2 * (a + b)
                if n > max_n + 4:
                    continue
                matrix = fock.canonical_basis(n, e, cache_dir=cache_dir)
                vec = {structure.family_shape(k, j, e): LaurentPoly.q_power(0)}
                for i, mult in crystal.induction_recipe(a, b, e):
                    vec = fock.apply_f_divided(vec, i, mult, e)
                induced = structure.family_shape(k, j, e, a, b)
                tag = f"e={e} k={k} j={j} a={a} b={b}"
                rep.check(vec == {induced: LaurentPoly.q_power(0)},
                          f"recipe transports the bihook vector {tag}")
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
                rep.check(lhs == rhs, f"word identity e={e} k={k} j={j} mu={mu}")
    # bucket tableaux by residue sequence (enumeration route) and compare
    # every bucket against the peel recursion; the buckets also sum to the
    # full graded dimension.  One enumeration of each shape serves every
    # e: a bucket is a count of (word, codegree) pairs.
    for n in range(0, max_n + 1):
        for lam in bipartitions(n):
            counts = [Counter() for _ in es]
            for t in tableaux.standard_tableaux(lam):
                # the contents c - r of the nodes of 1..n, whatever e
                contents = [c - r for r, c, _ in t.nodes]
                for e, count, d in zip(es, counts, tableaux.codegrees(t, es)):
                    count[tuple([x % e for x in contents]), d] += 1
            for e, count in zip(es, counts):
                buckets: dict[tuple, dict[int, int]] = {}
                sums = Counter()
                for (w, d), v in count.items():
                    buckets.setdefault(w, {})[d] = v
                    sums[d] += v
                for w, val in zip(buckets, tableaux.word_graded_dimensions(
                        lam, list(buckets), e)):
                    rep.check(LaurentPoly._raw(buckets[w]) == val,
                              f"word space e={e} {format_bipartition(lam)} {w}")
                rep.check(LaurentPoly._raw(dict(sums))
                          == tableaux.graded_dimension(lam, e),
                          f"word sums e={e} {format_bipartition(lam)}")
    return rep


def degrees_suite(es=(2, 3, 4, 5), max_kj: int = 6) -> SuiteReport:
    rep = SuiteReport("degrees")
    for e in es:
        for k, j in _kj_pairs(max_kj):
            lam = structure.family_shape(k, j, e)
            word = tableaux.residue_sequence(
                tableaux.column_initial_tableau(lam), e)
            matching = tableaux.standard_tableaux(lam, word=word, e=e)
            rep.check(bool(matching), f"no matching tableaux e={e} k={k} j={j}")
            for t in matching:
                rep.check(tableaux.codegree(t, e) == j,
                          f"codegree j on residue-matched tableau e={e} "
                          f"k={k} j={j} {t}")
            source = crystal.scrt(schur.two_column(j, k + j), e)
            cod1 = tableaux.codegree(tableaux.column_initial_tableau(source), e)
            entries = list(range(1, e)) + list(range(e + 1, 2 * j * e - e + 2, 2))
            cod2 = tableaux.codegree(tableaux.v_tableau(lam, entries), e)
            want = (2 * j, 3 * j) if e == 2 else (1, j + 1)
            rep.check((cod1, cod2) == want,
                      f"codegree pair e={e} k={k} j={j}: got {(cod1, cod2)}, "
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
