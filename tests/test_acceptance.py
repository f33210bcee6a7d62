"""Acceptance criteria, one test per criterion, each printing a PASS line
with its grid.  All comparisons are exact (integer or Laurent-polynomial
equality); the stated wall-clock budgets are asserted where the criteria
give one.  Criteria 3 and 5-10 read the `verify` suite reports that
conftest.py runs once per session; they assert what no suite checks.
"""

import json
import time
from collections import Counter
from math import comb

from bihooks.cli import main
from bihooks.fock import canonical_basis, simple_graded_dims_from
from bihooks.laurent import LaurentPoly, ZERO
from bihooks.structure import (
    family_label, family_shape, semisimple_decomposition,
)
from bihooks.tableaux import graded_dimension_by_enumeration

Q = LaurentPoly.q_power


def _cli_labels(capsys, *argv):
    assert main(list(argv)) == 0
    obj = json.loads(capsys.readouterr().out)
    labels = []
    for s in obj["summands"]:
        labels.extend(s.get("factors", s.get("layers", [])))
    return obj, Counter((lab["bipartition"], lab["shift"]) for lab in labels)


def _passed(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


def _suite_ok(report):
    assert report.ok, "\n".join(report.failures[:10])


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


def test_criterion_03_llt_concentration(suite_report):
    report = suite_report("llt")
    _suite_ok(report)
    # the suite checks each bihook row against the semisimple labels; that
    # there are exactly j+1 of them is this criterion's own
    cases = 0
    for e in (2, 3):
        for total in range(2, 6):
            for j in range(1, total // 2 + 1):
                k = total - j
                labels = semisimple_decomposition(k, j).map_labels(
                    lambda mu: family_label(mu, k, j, e)).labels()
                assert len({lab.bipartition for lab in labels}) == j + 1
                cases += 1
    assert report.seconds < 600
    _passed(3, f"{cases} bihook rows are q^j at exactly j+1 labels, in "
               f"{report.cases} llt cases ({report.seconds:.1f}s < 10min)")


def test_criterion_04_dimension_balance(llt_cache_dir):
    cases = 0
    for e in (2, 3):
        for total in range(2, 6):
            matrix = canonical_basis(total * e, e, cache_dir=llt_cache_dir)
            qdim = simple_graded_dims_from(matrix)
            for j in range(1, total // 2 + 1):
                k = total - j
                lam = family_shape(k, j, e)
                lhs = graded_dimension_by_enumeration(lam, e)
                factors = semisimple_decomposition(k, j).map_labels(
                    lambda mu: family_label(mu, k, j, e)).labels()
                rhs = Q(j) * sum((qdim[lab.bipartition] for lab in factors),
                                 ZERO)
                assert lhs == rhs
                assert lhs.at_one() == comb(total * e, j * e)
                cases += 1
    _passed(4, f"{cases} graded dimensions balance against simple dimensions "
               "and binomial counts")


def test_criterion_05_word_identity(suite_report):
    report = suite_report("words")
    _suite_ok(report)
    assert report.seconds < 300
    _passed(5, f"{report.cases} words cases: word spaces match c(mu) times "
               f"exterior weight dimensions ({report.seconds:.1f}s < 5min)")


def test_criterion_06_composition_consistency(suite_report):
    report = suite_report("structure")
    _suite_ok(report)
    _passed(6, f"{report.cases} structure cases: emitted structures match the "
               "independent factor multiset and summand count")


def test_criterion_07_char2_criterion(suite_report):
    _suite_ok(suite_report("schur"))
    _passed(7, "schur suite: the characteristic-2 decomposability congruence "
               "for j <= 8, k <= 40")


def test_criterion_08_irreducibility_crosscheck(suite_report):
    _suite_ok(suite_report("schur"))
    _passed(8, "schur suite: hook-valuation cross-checks for n <= 30, j <= 4, "
               "p <= 11")


def test_criterion_09_degree_bookkeeping(suite_report):
    report = suite_report("degrees")
    _suite_ok(report)
    _passed(9, f"{report.cases} degrees cases: codegree j on residue-matched "
               "tableaux; codegree pairs (1, j+1) for e>2 and (2j, 3j) for e=2")


def test_criterion_10_crystal_suite(suite_report):
    _suite_ok(suite_report("crystal"))
    _suite_ok(suite_report("structure"))
    _passed(10, "crystal and structure suites: Mullineux involution, regular "
                "labels, induction closed forms")
