import ast
import hashlib
import math
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from bihooks import crystal, fock, schur, structure, tableaux, verify
from bihooks.fock import DecompositionMatrix, canonical_basis, simple_graded_dims_from
from bihooks.laurent import LaurentPoly
from bihooks.partitions import (
    EMPTY_BP, bipartitions, dominance_ids, dominance_key, format_bipartition,
    key_dominates, parse_bipartition, size,
)

Q = LaurentPoly.q_power

# case counts of each suite at the session bounds of conftest.py
SESSION_CASES = {
    "combinatorics": 47510, "crystal": 63260, "schur": 3798,
    "structure": 1904, "llt": 98621, "words": 600, "degrees": 356,
}


@pytest.mark.parametrize("name", sorted(verify.SUITES))
def test_suite_passes_at_session_bounds(suite_report, name):
    report = suite_report(name)
    assert report.ok, "\n".join(report.failures[:10])
    assert report.cases == SESSION_CASES[name]


# a wrong version of each suite's subject, at small bounds: the suite
# must report it, so a suite cannot pass without checking anything
BROKEN = [
    ("combinatorics", verify, "key_dominates", lambda real: lambda a, b: True,
     {"max_n": 3}),
    ("crystal", crystal, "mullineux", lambda real: lambda bp, e: EMPTY_BP,
     {"es": (2,), "max_n": 3}),
    # a size-preserving involution on regular labels: only the residue
    # content of the image tells it from the Mullineux map
    pytest.param("crystal", crystal, "mullineux",
                 lambda real: lambda bp, e: bp if size(bp) % 3 == 0 else real(bp, e),
                 {"es": (2, 3), "max_n": 5}, id="crystal-identity-on-thirds"),
    # the steps the suite reads off a signature: the first surviving -
    # for the good node, the last surviving + for the cogood node
    pytest.param("crystal", crystal, "good_node",
                 lambda real: lambda sig: next(
                     (n for s, n in crystal.reduce_signature(sig) if s == "-"), None),
                 {"es": (2,), "max_n": 2}, id="crystal-good-node-first-minus"),
    pytest.param("crystal", crystal, "cogood_node",
                 lambda real: lambda sig: next(
                     (n for s, n in reversed(crystal.reduce_signature(sig))
                      if s == "+"), None),
                 {"es": (2,), "max_n": 2}, id="crystal-cogood-node-last-plus"),
    ("schur", schur, "simultaneous_irreducibility",
     lambda real: lambda *a: not real(*a), {"max_n": 6, "primes": (2,)}),
    ("structure", schur, "num_summands", lambda real: lambda *a: real(*a) + 1,
     {"es": (2,), "max_kj": 4, "primes": (0,)}),
    # the j = 2 overlap runs at the primes asked for, and only at those
    pytest.param("structure", structure, "structure_j2",
                 lambda real: lambda k, p: real(k, 0 if p == 11 else p),
                 {"es": (2,), "max_kj": 2, "primes": (11,)},
                 id="structure-j2-wrong-at-p11"),
    ("llt", structure, "semisimple_decomposition",
     lambda real: lambda k, j: real(k + 1, j),
     {"es": (2,), "max_kj": 2, "max_n": 0}),
    # these bounds reach the induced family k = j = 1, (a, b) = (1, 0)
    pytest.param("llt", structure, "induce", lambda real: lambda bp, *a: bp,
                 {"es": (2,), "max_kj": 2, "max_n": 2}, id="llt-induce-identity"),
    # a bar-invariant q + q^-1 on the graded dimension the simple
    # dimensions read at the regular 2|1: they pass their own checks, and
    # the balance, whose left side is the bead-code peel, reports row 2|1
    # and the rows below it in its column
    pytest.param("llt", fock, "graded_dimension",
                 lambda real: lambda bp, e: real(bp, e) + Q(1) + Q(-1)
                 if bp == ((2,), (1,)) else real(bp, e),
                 {"es": (2,), "max_kj": 2, "max_n": 3},
                 id="llt-simple-dimension-plus-bar-invariant"),
    pytest.param("crystal", structure, "family_shape",
                 lambda real: lambda k, j, e, a=0, b=0, transpose=False:
                 real(k, j, e, a, 0, transpose),
                 {"es": (2,), "max_n": 1}, id="crystal-family-shape-ignores-b"),
    ("words", tableaux, "word_graded_dimension",
     lambda real: lambda *a: real(*a) * Q(1), {"es": (2,), "max_kj": 2, "max_n": 2}),
    # the word-space half reads every word of a shape in one call, and
    # the (word, codegree) counts of a shape at every e in another
    pytest.param("words", tableaux, "word_graded_dimensions",
                 lambda real: lambda *a: [v * Q(1) for v in real(*a)],
                 {"es": (2,), "max_kj": 2, "max_n": 2}, id="words-dimensions-times-q"),
    pytest.param("words", tableaux, "word_codegree_counts",
                 lambda real: lambda lam, es: [
                     {(w, d + (e == 3)): v for (w, d), v in count.items()}
                     for e, count in zip(es, real(lam, es))],
                 {"es": (2, 3), "max_kj": 2, "max_n": 2},
                 id="words-codegree-counts-off-at-e3"),
    ("degrees", tableaux, "codegree", lambda real: lambda *a: real(*a) + 1,
     {"es": (2,), "max_kj": 2}),
]


# per BROKEN case, the sha256 of its failure texts joined by newlines:
# the texts are the reproducing inputs a user reads, so each keeps every
# byte and its place in the list
BROKEN_FAILURES_SHA256 = {
    "combinatorics":
        "808458737ab72425d8e238c2c86c03a4741ac30d04519cb6af93a7e9466e8b84",
    "crystal":
        "a1cd92e0fa04c413f3ec8ae3cb4532404b1ecd0719458c7d59aa53032f67c5f5",
    "crystal-identity-on-thirds":
        "cbdf6a414fda5181a9a3827e10e6259b816ea74825855945c74ca5a817ee0a07",
    "crystal-good-node-first-minus":
        "d5d3a245fecd0174cf3ca7d5737c778b39d6d824bbcb8bca24e5b6ec69f5e384",
    "crystal-cogood-node-last-plus":
        "ae0e7bfdab19b2dc0b022573bbf77cae3d2da89c5a8fce0e415e1e3b19e71753",
    "schur":
        "ed47fa24a0e5be84b1b62b656c4669d66174fef214b82630c5d85988f722f081",
    "structure":
        "6fc8cf902aa4f5f6f8b94a92f52bc728198a4df1b67de23fe61a709427c1685a",
    "structure-j2-wrong-at-p11":
        "0f2e843efbc52038ad63805f006ac555da970116190c562a76bc85f09ad4ee2d",
    "llt":
        "d07f0a78085fbad2cbc0e63198cf3bed3100731d5fb926ee5c6a2c8c3342763e",
    "llt-induce-identity":
        "27fe9cbfc96d8b24e9a8bbfa78a7e198ae371bb628b995476269ab6113b0b11a",
    "llt-simple-dimension-plus-bar-invariant":
        "c94fb6437b0b78c55b3c2b8498460dc6844e21e008458012595a04658a155b0e",
    "crystal-family-shape-ignores-b":
        "0aad3022f2a2db702e2c63332c084c318ca5061ff40a583910f5cb0cbd21bec8",
    "words":
        "b8421d59068db93b03cac5ec339bd7267facb7f1ff7b6286ea8ad13cd57fd1b0",
    "words-dimensions-times-q":
        "6f5e4ac316d2cf33dff98d1bb64720b35a184e43f10dbbcfc51f77014d98d8fb",
    "words-codegree-counts-off-at-e3":
        "5c0162c7f060ed8068d9b57960015ab7f9025f2acb70d3e0aa6aaad25da58e4e",
    "degrees":
        "ccd45dae6c74ac9c25165662034908f5ff449eb6b2d9d084840cc4b20ac1553c",
}


# a pytest.param's own id takes precedence over its entry in ids
@pytest.mark.parametrize("name, module, attr, mutant, bounds", BROKEN,
                         ids=[case[0] for case in BROKEN])
def test_suite_reports_a_broken_subject(request, monkeypatch, llt_cache_dir,
                                        name, module, attr, mutant, bounds):
    # a crystal mutant must neither hide behind the crystal memos nor
    # leave its results in them for the rest of the session
    memos = (crystal.good_peel, crystal.mullineux_pairs) if module is crystal else ()
    for memo in memos:
        memo.cache_clear()
    monkeypatch.setattr(module, attr, mutant(getattr(module, attr)))
    if name == "llt":
        bounds = {**bounds, "cache_dir": llt_cache_dir}
    try:
        report = verify.run_suite(name, **bounds)
    finally:
        monkeypatch.undo()
        for memo in memos:
            memo.cache_clear()
    assert report.failures, f"suite {name} passed with a broken {attr}"
    joined = "\n".join(report.failures).encode()
    assert hashlib.sha256(joined).hexdigest() == \
        BROKEN_FAILURES_SHA256[request.node.callspec.id]


def test_run_suite_reads_one_shot_bounds_once():
    # the suites loop over es and primes several times
    assert verify.run_suite("words", es=iter((2,)), max_kj=2, max_n=3).cases == \
        verify.run_suite("words", es=(2,), max_kj=2, max_n=3).cases == 42
    for name, key, flag in (("crystal", "es", "--e"),
                            ("schur", "primes", "--primes")):
        with pytest.raises(ValueError, match=f"{flag} needs at least one value"):
            verify.run_suite(name, **{key: iter(())})


def test_check_formats_repro_only_on_failure():
    rep = verify.SuiteReport("x")
    calls = []
    rep.check(True, lambda: calls.append("formatted"))
    rep.check(False, lambda: "lazy")
    assert calls == []
    assert (rep.cases, rep.failures) == (2, ["lazy"])


def eager_repros(source: str) -> list[int]:
    """The lines of the ``.check(`` calls in ``source`` whose failure
    text is not a lambda passed as the second argument."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "check"
                  and not (len(node.args) == 2
                           and isinstance(node.args[1], ast.Lambda)))


def test_every_check_builds_its_text_only_on_failure():
    with open(verify.__file__) as fh:
        assert eager_repros(fh.read()) == []


def test_eager_repro_check_sees_a_leftover():
    source = ("rep.check(a, lambda: f'{a}')\nrep.check(b, f'{b}')\n"
              "rep.check(c,\n          text)\nrep.check(d, repro=lambda: 'd')\n"
              "check(e, 'e')\n")
    assert eager_repros(source) == [2, 3, 5]


def test_llt_matrix_checks_report_each_failure_family():
    good = canonical_basis(5, 2, use_cache=False)
    rep = verify.SuiteReport("llt")
    verify._llt_matrix_checks(rep, good, 2, 5)
    assert (rep.cases, rep.failures) == (112, [])

    cols = {mu: dict(col) for mu, col in good.columns.items()}
    ids = dominance_ids(5)

    def put(lam, mu, val):
        cols[ids[parse_bipartition(mu)]][ids[parse_bipartition(lam)]] = val
    put("2,1|2", "2,1|2", 2 * Q(0))      # diagonal 2, not 1
    put("1|2,2", "3,2|-", Q(0))          # entry outside q.Z[q]
    put("3|2", "2,1|2", Q(1))            # entry at a row not dominated
    put("1|4", "4|1", Q(3) + Q(5))       # only the balance at 1|4 breaks
    bad = DecompositionMatrix(n=5, e=2, columns=cols)
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


def triangularity_failures(rep):
    return [f for f in rep.failures if f.startswith("window/triangularity")]


@pytest.mark.parametrize("n", range(9))
def test_packed_triangularity_matches_key_dominates(n):
    # every bipartition of n as a column holding every row at q: the
    # packed check fails exactly the pairs that key_dominates refuses
    bps, ids = bipartitions(n), dominance_ids(n)
    cols = {ids[mu]: {ids[lam]: Q(0) if lam == mu else Q(1) for lam in bps}
            for mu in bps}
    rep = verify.SuiteReport("llt")
    verify._llt_matrix_checks(rep, DecompositionMatrix(n=n, e=2, columns=cols), 2, n)
    assert triangularity_failures(rep) == [
        f"window/triangularity e=2 n={n} "
        f"{format_bipartition(lam)},{format_bipartition(mu)}"
        for mu in bps for lam in bps
        if lam != mu and not key_dominates(dominance_key(mu), dominance_key(lam))]


def test_triangularity_sees_one_excess_in_the_top_field(monkeypatch):
    # row lam's key exceeds column mu's by 1 in coordinate 0, the top
    # field of the packed codes, and equals it elsewhere: the smallest
    # violation there is
    good = canonical_basis(5, 2, use_cache=False)
    mu, lam = next((mu, lam) for mu in good.regulars() for lam in bipartitions(5)
                   if [a - b for a, b in zip(dominance_key(lam), dominance_key(mu))]
                   == [1] + [0] * 9)
    cols = {c: dict(col) for c, col in good.columns.items()}
    cols[dominance_ids(5)[mu]][dominance_ids(5)[lam]] = Q(1)
    bad = DecompositionMatrix(n=5, e=2, columns=cols)
    # the check packs codes of its own: a table of the solver's whose
    # codes are all 0 leaves it as it is
    table = fock.dominance_keys(5)
    monkeypatch.setattr(fock, "dominance_keys", lambda n: dict.fromkeys(table, 0))
    rep = verify.SuiteReport("llt")
    verify._llt_matrix_checks(rep, bad, 2, 5)
    assert triangularity_failures(rep) == [
        f"window/triangularity e=2 n=5 {format_bipartition(lam)},{format_bipartition(mu)}"]


def test_llt_matrix_checks_report_a_simple_dimension_fault():
    # q + q^2 at row 4|1 of column 5|- passes the window and triangularity
    # checks, but no simple dimensions balance it: one failed case, and
    # the matrix's balance is skipped
    good = canonical_basis(5, 2, use_cache=False)
    cols = {mu: dict(col) for mu, col in good.columns.items()}
    ids = dominance_ids(5)
    cols[ids[parse_bipartition("5|-")]][ids[parse_bipartition("4|1")]] = Q(1) + Q(2)
    rep = verify.SuiteReport("llt")
    verify._llt_matrix_checks(rep, DecompositionMatrix(n=5, e=2, columns=cols), 2, 5)
    assert rep.cases == 112 - len(good.rows()) + 1
    assert rep.failures == [
        "simple dimensions e=2 n=5: graded dimension of simple 4|1 came out "
        "as 2*q^-1 + 2*q - q^2; q-convention fault"]


def test_llt_sweeps_every_level_up_to_max_n_at_every_e(monkeypatch,
                                                        llt_cache_dir):
    # the whole-level checks read each level 0..max_n, at e = 4 as at
    # e = 2 and 3: max_n = 11 reads the 11-box level
    seen = []
    inner = verify._llt_matrix_checks

    def record(rep, matrix, e, n):
        seen.append((e, n))
        inner(rep, matrix, e, n)

    monkeypatch.setattr(verify, "_llt_matrix_checks", record)
    rep = verify.run_suite("llt", es=(4,), max_n=11, max_kj=2,
                           cache_dir=llt_cache_dir)
    assert seen == [(4, n) for n in range(12)]
    assert rep.failures == []


def test_llt_suite_solves_each_e_in_increasing_n(tmp_path, monkeypatch):
    # a cold run at e = 3 reads bihook level 12, above max_n = 8, and the
    # induced levels 10 and 11 below it: every level is solved once, in
    # increasing n, so each solve finds the levels below it held
    monkeypatch.setattr(fock, "_MEMORY", {})
    solves = []
    inner = fock._compute_canonical_basis

    def computing(n, e, lower=None):
        solves.append((e, n))
        return inner(n, e, lower)

    monkeypatch.setattr(fock, "_compute_canonical_basis", computing)
    rep = verify.run_suite("llt", es=(3,), max_n=8, max_kj=4,
                           cache_dir=str(tmp_path))
    assert solves == [(3, n) for n in range(13)]
    assert rep.failures == []


@lru_cache(maxsize=None)
def solved(e, n):
    return canonical_basis(n, e, use_cache=False)


def plain_balance(matrix, e, n):
    """The balance failures by ``LaurentPoly`` sums of products, row by
    row, as ``tests/test_fock.py`` checks the solver's matrices."""
    try:
        qd = simple_graded_dims_from(matrix)
    except RuntimeError as exc:
        return [f"simple dimensions e={e} n={n}: {exc}"]
    return [f"dimension balance e={e} n={n} {format_bipartition(lam)}"
            for lam in matrix.rows()
            if tableaux.graded_dimension(lam, e) != sum(
                (val * qd[mu] for mu, val in matrix.row(lam).items()),
                LaurentPoly({}))]


@settings(max_examples=150, deadline=None)
@given(point=st.sampled_from([(2, 6), (3, 6), (4, 5)]), data=st.data(),
       val=st.dictionaries(st.integers(-2, 4), st.integers(-3, 3),
                           max_size=4).map(LaurentPoly))
def test_balance_matches_the_plain_route(point, data, val):
    # one entry set to a small polynomial, 0 included, anywhere in its
    # column: on the diagonal, at a regular row or at any row
    e, n = point
    good = solved(e, n)
    mu = data.draw(st.sampled_from(good.regulars()))
    lam = data.draw(st.one_of(st.just(mu), st.sampled_from(good.regulars()),
                              st.sampled_from(good.rows())))
    cols = {c: dict(col) for c, col in good.columns.items()}
    cols[dominance_ids(n)[mu]][dominance_ids(n)[lam]] = val
    bad = DecompositionMatrix(n=n, e=e, columns=cols)
    rep = verify.SuiteReport("llt")
    verify._llt_matrix_checks(rep, bad, e, n)
    assert [f for f in rep.failures
            if f.startswith(("dimension balance", "simple dimensions"))] \
        == plain_balance(bad, e, n)


@settings(max_examples=100, deadline=None)
@given(point=st.sampled_from([(2, 6), (3, 6), (4, 5)]), data=st.data(),
       val=st.dictionaries(st.integers(-2, 4), st.integers(-3, 3),
                           max_size=4).map(LaurentPoly))
def test_balance_forms_one_product_per_value_object(point, data, val):
    # one column, its equal entries first each a distinct object, then
    # all one shared object, with val at some of its rows: both give the
    # plain route's balance, with the same cases and failures
    e, n = point
    good = solved(e, n)
    mu = data.draw(st.sampled_from(sorted(good.columns)))
    rows = data.draw(st.lists(st.sampled_from(sorted(good.columns[mu])),
                              unique=True, max_size=4))
    col = {**good.columns[mu], **dict.fromkeys(rows, val)}
    shared: dict = {}
    reports = []
    for column in ({lam: LaurentPoly(v.iter_terms()) for lam, v in col.items()},
                   {lam: shared.setdefault(v, v) for lam, v in col.items()}):
        bad = DecompositionMatrix(n=n, e=e, columns={**good.columns, mu: column})
        rep = verify.SuiteReport("llt")
        verify._llt_matrix_checks(rep, bad, e, n)
        reports.append((rep.cases, rep.failures))
        assert [f for f in rep.failures
                if f.startswith(("dimension balance", "simple dimensions"))] \
            == plain_balance(bad, e, n)
    assert reports[0] == reports[1]


def test_balance_width_counts_the_graded_dimensions(monkeypatch, llt_cache_dir):
    # the left side is read at q = 2^w, so its coefficients, at most n!
    # each (tests/test_tableaux.py), must fit below 2^w with the products':
    # on every level of the session sweep, 2^w > n! + max|d|_1 * sum|X|_1
    seen = {}
    real = tableaux.packed_graded_dimension

    def recording(shape, e, w):
        seen.setdefault((e, size(shape)), set()).add(w)
        return real(shape, e, w)

    monkeypatch.setattr(tableaux, "packed_graded_dimension", recording)
    bounds = {"es": (2, 3), "max_kj": 5, "max_n": 0}
    assert verify.run_suite("llt", cache_dir=llt_cache_dir, **bounds).ok
    norm = verify._norm
    # the whole-level checks read n = 0, then the bihook levels
    assert sorted(seen) == [(2, 0), (2, 4), (2, 6), (2, 8), (2, 10),
                            (3, 0), (3, 6), (3, 9), (3, 12), (3, 15)]
    for (e, n), widths in seen.items():
        matrix = canonical_basis(n, e, cache_dir=llt_cache_dir)
        [w] = widths
        bound = (math.factorial(n)
                 + max(norm(v) for col in matrix.columns.values()
                       for v in col.values())
                 * sum(map(norm, simple_graded_dims_from(matrix).values())))
        assert w % 64 == 0 and 1 << w > bound, (e, n, w)


def test_balance_past_64_bits_matches_the_plain_route():
    # an entry of 2^64 q at a row that is not regular leaves the simple
    # dimensions as they are and puts B past 2^64: the check picks w = 128
    # and a memo table of its own beside w = 64's
    e, n = 2, 6
    good = solved(e, n)
    mu = min(good.columns)
    lam = next(lam for lam in good.columns[mu] if lam not in good.columns)
    rep = verify.SuiteReport("llt")
    tableaux._bead_peel.cache_clear()
    verify._llt_matrix_checks(rep, good, e, n)
    assert rep.failures == [] and tableaux._bead_peel.cache_info().currsize == 1
    for val in (Q(1) * 2 ** 64, Q(1) * 2 ** 64 + Q(2) * 3):
        cols = {c: dict(col) for c, col in good.columns.items()}
        cols[mu][lam] = val
        bad = DecompositionMatrix(n=n, e=e, columns=cols)
        rep = verify.SuiteReport("llt")
        verify._llt_matrix_checks(rep, bad, e, n)
        assert rep.failures == plain_balance(bad, e, n) == [
            f"dimension balance e={e} n={n} {format_bipartition(good.rows()[lam])}"]
    # the second table is w = 128's: this lookup finds it, and adds none
    assert len(tableaux._bead_peel(e, 31, 128).memo) > 1
    assert tableaux._bead_peel.cache_info().currsize == 2
    # a regular row's entry past 2^64 breaks the simple dimensions
    cols = {c: dict(col) for c, col in good.columns.items()}
    cols[mu][sorted(good.columns)[1]] = Q(1) * 2 ** 64
    bad = DecompositionMatrix(n=n, e=e, columns=cols)
    rep = verify.SuiteReport("llt")
    verify._llt_matrix_checks(rep, bad, e, n)
    assert [f for f in rep.failures
            if f.startswith(("dimension balance", "simple dimensions"))] \
        == plain_balance(bad, e, n) != []
