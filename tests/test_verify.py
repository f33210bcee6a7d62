from bihooks import verify
from bihooks.fock import DecompositionMatrix, canonical_basis
from bihooks.laurent import LaurentPoly
from bihooks.partitions import parse_bipartition

Q = LaurentPoly.q_power


def test_check_formats_repro_only_on_failure():
    rep = verify.SuiteReport("x")
    calls = []
    rep.check(True, lambda: calls.append("formatted"))
    rep.check(False, lambda: "lazy")
    rep.check(False, "plain")
    assert calls == []
    assert (rep.cases, rep.failures) == (3, ["lazy", "plain"])


def test_llt_matrix_checks_report_each_failure_family():
    good = canonical_basis(5, 2, use_cache=False)
    rep = verify.SuiteReport("llt")
    verify._llt_matrix_checks(rep, good, 2, 5)
    assert (rep.cases, rep.failures) == (112, [])

    cols = {mu: dict(col) for mu, col in good.columns.items()}

    def put(lam, mu, val):
        cols[parse_bipartition(mu)][parse_bipartition(lam)] = val
    put("2,1|2", "2,1|2", Q(0, 2))       # diagonal 2, not 1
    put("1|2,2", "3,2|-", Q(0))          # entry outside q.Z[q]
    put("3|2", "2,1|2", Q(1))            # entry at a row not dominated
    put("1|4", "4|1", Q(3) + Q(5))       # only the balance at 1|4 breaks
    bad = DecompositionMatrix(n=5, e=2, convention=good.convention,
                              columns=cols)
    rep = verify.SuiteReport("llt")
    verify._llt_matrix_checks(rep, bad, 2, 5)
    # texts and order as reported before the checks were fused
    assert rep.cases == 113
    assert rep.failures == [
        "diagonal e=2 n=5 2,1|2",
        "window/triangularity e=2 n=5 3|2,2,1|2",
        "window/triangularity e=2 n=5 1|2,2,3,2|-",
        "dimension balance e=2 n=5 3|2",
        "dimension balance e=2 n=5 2,1|2",
        "dimension balance e=2 n=5 1|4",
        "dimension balance e=2 n=5 1|2,2",
    ]
