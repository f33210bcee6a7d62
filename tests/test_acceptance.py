"""Acceptance criteria, one test per criterion, each printing a PASS line
with its grid.  All comparisons are exact (integer or Laurent-polynomial
equality); the stated wall-clock budgets are asserted where the criteria
give one.
"""

import json
import time
from collections import Counter
from math import comb

import pytest

from bihooks.cli import main
from bihooks.crystal import induce, is_regular, mullineux
from bihooks.fock import canonical_basis, simple_graded_dims_from
from bihooks.laurent import LaurentPoly, ZERO, c_factor
from bihooks.partitions import as_bipartition, bipartitions, size
from bihooks.schur import (
    exterior_weight_dim, num_summands, simultaneous_irreducibility,
    two_column, weyl_is_irreducible,
)
from bihooks.structure import (
    composition_labels, predict, semisimple_decomposition,
)
from bihooks.tableaux import (
    codegree, column_initial_tableau, gg_word, graded_dimension_by_enumeration,
    residue_sequence, standard_tableaux, v_tableau, word_graded_dimension,
)
from bihooks.verify import _compositions

Q = LaurentPoly.q_power


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("llt-cache"))


def _cli_labels(capsys, *argv):
    assert main(list(argv)) == 0
    obj = json.loads(capsys.readouterr().out)
    labels = []
    for s in obj["summands"]:
        labels.extend(s.get("factors", s.get("layers", [])))
    return obj, Counter((lab["bipartition"], lab["shift"]) for lab in labels)


def _passed(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


def test_criterion_01_semisimple_example(capsys):
    t0 = time.time()
    obj, got = _cli_labels(capsys, "structure", "--e", "3", "--p", "0",
                           "--k", "7", "--j", "5", "--format", "json")
    elapsed = time.time() - t0
    want = Counter({("33,1|2", 5): 1, ("30,4|2", 5): 1, ("27,7|2", 5): 1,
                    ("24,10|2", 5): 1, ("21,13|2", 5): 1, ("36|-", 5): 1})
    assert got == want
    assert len(obj["summands"]) == 6
    assert all(s["type"] == "semisimple" and len(s["factors"]) == 1
               for s in obj["summands"])
    assert elapsed < 1.0
    _passed(1, f"six summands at shift 5 in {elapsed:.3f}s")


def test_criterion_02_generalised_labels(capsys):
    t0 = time.time()
    _, got = _cli_labels(capsys, "structure", "--e", "4", "--p", "0",
                         "--k", "1", "--j", "1", "--a", "2", "--b", "1",
                         "--format", "json")
    assert got == Counter({("6,3|4,1", 1): 1, ("10,1|2,1", 1): 1})
    _, got = _cli_labels(capsys, "structure", "--e", "4", "--p", "0",
                         "--k", "1", "--j", "1", "--a", "2", "--b", "3",
                         "--format", "json")
    assert got == Counter({("6,3,1,1|4,1,1,1", 1): 1,
                           ("10,1,1,1|2,1,1,1", 1): 1})
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _passed(2, f"induced label pairs at (a,b)=(2,1) and (2,3) in {elapsed:.3f}s")


def test_criterion_03_llt_concentration(cache_dir):
    t0 = time.time()
    cases = 0
    for e in (2, 3):
        for total in range(2, 6):
            matrix = canonical_basis(total * e, e, cache_dir=cache_dir)
            for j in range(1, total // 2 + 1):
                k = total - j
                row = matrix.row(((k * e,), (j * e,)))
                want = {lab.bipartition
                        for lab in semisimple_decomposition(k, j, e).labels()}
                assert set(row) == want and len(want) == j + 1
                assert all(val == Q(j) for val in row.values())
                cases += 1
    elapsed = time.time() - t0
    assert elapsed < 600
    _passed(3, f"{cases} bihook rows are q^j at exactly j+1 labels "
               f"({elapsed:.1f}s < 10min)")


def test_criterion_04_dimension_balance(cache_dir):
    cases = 0
    for e in (2, 3):
        for total in range(2, 6):
            matrix = canonical_basis(total * e, e, cache_dir=cache_dir)
            qdim = simple_graded_dims_from(matrix)
            for j in range(1, total // 2 + 1):
                k = total - j
                lam = ((k * e,), (j * e,))
                lhs = graded_dimension_by_enumeration(lam, e, bound=total * e)
                factors = semisimple_decomposition(k, j, e).labels()
                rhs = Q(j) * sum((qdim[lab.bipartition] for lab in factors),
                                 ZERO)
                assert lhs == rhs
                assert lhs.at_one() == comb(total * e, j * e)
                cases += 1
    _passed(4, f"{cases} graded dimensions balance against simple dimensions "
               "and binomial counts")


def test_criterion_05_word_identity():
    t0 = time.time()
    cases = 0
    for e in (2, 3):
        for total in range(2, 5):
            for j in range(1, total // 2 + 1):
                k = total - j
                lam = ((k * e,), (j * e,))
                for mu in _compositions(total):
                    lhs = word_graded_dimension(lam, gg_word(mu, e), e)
                    rhs = (Q(j) * c_factor(mu, e)
                           * exterior_weight_dim(j, k, mu))
                    assert lhs == rhs
                    cases += 1
    elapsed = time.time() - t0
    assert elapsed < 300
    _passed(5, f"{cases} word spaces match c(mu) times exterior weight "
               f"dimensions ({elapsed:.1f}s < 5min)")


def test_criterion_06_composition_consistency():
    cases = 0
    for e in (2, 3):
        for p in (2, 3, 5, 7):
            for total in range(2, 15):
                for j in range(1, total // 2 + 1):
                    k = total - j
                    verdict = predict(k, j, e, p)
                    if verdict.structure is None:
                        continue
                    assert verdict.structure.num_summands() == \
                        num_summands(k, j, p)
                    assert Counter(verdict.structure.labels()) == \
                        Counter(composition_labels(k, j, e, p))
                    cases += 1
    _passed(6, f"{cases} emitted structures match the independent factor "
               "multiset and summand count")


def test_criterion_07_char2_criterion():
    cases = 0
    for j in range(1, 9):
        ell = j.bit_length()
        for k in range(j, 41):
            assert (num_summands(k, j, 2) > 1) == bool((k - j) % (1 << ell))
            cases += 1
    _passed(7, f"{cases} points of the characteristic-2 decomposability "
               "congruence")


def test_criterion_08_irreducibility_crosscheck():
    cases = 0
    for p in (2, 3, 5, 7, 11):
        for n in range(2, 31):
            for j in range(1, min(4, n // 2) + 1):
                lhs = simultaneous_irreducibility(n, j, p)
                rhs = all(weyl_is_irreducible(two_column(r, n), p)
                          for r in range(j + 1))
                assert lhs == rhs
                cases += 1
    _passed(8, f"{cases} hook-valuation cross-checks")


def test_criterion_09_degree_bookkeeping():
    matched = 0
    for e in (2, 3, 4, 5):
        for total in range(2, 7):
            for j in range(1, total // 2 + 1):
                k = total - j
                lam = ((k * e,), (j * e,))
                word = residue_sequence(column_initial_tableau(lam), e)
                tableaux_here = standard_tableaux(lam, word=word, e=e,
                                                  bound=total * e)
                assert tableaux_here
                for t in tableaux_here:
                    assert codegree(t, e) == j
                    matched += 1
                source = as_bipartition(((k * e, j * e - e + 1), (e - 1,)))
                cod1 = codegree(column_initial_tableau(source), e)
                entries = list(range(1, e)) + \
                    list(range(e + 1, 2 * j * e - e + 2, 2))
                cod2 = codegree(v_tableau(lam, entries), e)
                expected = (2 * j, 3 * j) if e == 2 else (1, j + 1)
                assert (cod1, cod2) == expected, (
                    f"codegree pair mismatch at e={e}, k={k}, j={j}: "
                    f"got {(cod1, cod2)}, statement says {expected}"
                    + ("; e=2 wording case, reporting rather than suppressing"
                       if e == 2 else ""))
    _passed(9, f"codegree j on {matched} residue-matched tableaux; codegree "
               "pairs (1, j+1) for e>2 and (2j, 3j) for e=2 all hold")


def test_criterion_10_crystal_suite():
    cases = 0
    for e in (2, 3, 4):
        for n in range(0, 11):
            for bp in bipartitions(n):
                if not is_regular(bp, e):
                    continue
                image = mullineux(bp, e)
                assert size(image) == n and is_regular(image, e)
                assert mullineux(image, e) == bp
                cases += 1
    for e in (2, 3):
        for p in (0, 2, 3, 5, 7):
            for total in range(2, 11):
                for j in range(1, total // 2 + 1):
                    verdict = predict(total - j, j, e, p)
                    if verdict.structure is None:
                        continue
                    for lab in verdict.structure.labels():
                        assert is_regular(lab.bipartition, e)
                        cases += 1
    for e in (2, 3, 4):
        pairs = [(a, b) for a in range(e + 1) for b in range(e)
                 if (a == 0 and b == 0) or (a > 0 and a + b != e)]
        for a, b in pairs:
            for k in range(1, 5):
                for j in range(1, k + 1):
                    got = induce(((k * e,), (j * e,)), a, b, e)
                    assert got == as_bipartition(
                        ((k * e + a,) + (1,) * b, (j * e + a,) + (1,) * b))
                    got = induce(((1,) * (j * e), (1,) * (k * e)), a, b, e,
                                 negate=True)
                    assert got == as_bipartition(
                        ((b + 1,) + (1,) * (j * e + a - 1),
                         (b + 1,) + (1,) * (k * e + a - 1)))
                    cases += 2
    _passed(10, f"{cases} crystal checks: Mullineux involution, regular "
                "labels, induction closed forms")
