import gc
import hashlib
import json
import re
import shutil
import weakref

import pytest

from bihooks import fock
from bihooks.fock import (
    DecompositionMatrix, apply_f, apply_f_divided, canonical_basis,
    first_approximation, peel_runs, simple_graded_dims_from,
)
from bihooks.laurent import LaurentPoly, ONE, ZERO, quantum_factorial
from bihooks.partitions import (
    EMPTY_BP, BeadLayout, add_node, addable_nodes, bipartitions, conjugate,
    dominance_ids, dominance_key, dominance_keys, format_bipartition,
    key_dominates,
    remove_node, residue, size,
)
from bihooks.crystal import (
    is_regular, mullineux, mullineux_pairs, regular_bipartitions, signature,
)
from bihooks.tableaux import graded_dimension, node_degree

Q = LaurentPoly.q_power


def _f_oracle(vec, i, e):
    """One induction step, graded by the statistic of the grown diagram."""
    out = {}
    for bp, coeff in vec.items():
        for node in [a for a in addable_nodes(bp) if residue(a, e) == i]:
            grown = add_node(bp, node)
            d = node_degree(grown, node, e)
            out[grown] = out.get(grown, ZERO) + coeff.shift(d)
    return {bp: c for bp, c in out.items() if c}


def _divided_oracle(vec, i, m, e):
    """f_i applied m times, then exact division by [m]!."""
    for _ in range(m):
        vec = _f_oracle(vec, i, e)
    qfact = quantum_factorial(m)
    return {bp: c.exact_div(qfact) for bp, c in vec.items()}


def test_apply_f_above_convention():
    v = apply_f({EMPTY_BP: ONE}, 0, 2)
    assert v == {((1,), ()): ONE, ((), (1,)): Q(1)}
    assert apply_f({}, 0, 2) == {}


def test_apply_f_mass_counts_addable_nodes():
    for e in (2, 3):
        for n in range(0, 6):
            for bp in bipartitions(n):
                for i in range(e):
                    out = apply_f({bp: ONE}, i, e)
                    mass = sum(val.at_one() for val in out.values())
                    assert mass == sum(residue(a, e) == i for a in addable_nodes(bp))


def test_divided_power():
    v = apply_f_divided({EMPTY_BP: ONE}, 0, 2, 2)
    assert v == {((1,), (1,)): ONE}
    with pytest.raises(ValueError):
        apply_f_divided({EMPTY_BP: ONE}, 0, 0, 2)


def test_divided_power_matches_oracle():
    for e in (2, 3, 4):
        for n in range(0, 9):
            for bp in bipartitions(n):
                for i in range(e):
                    for m in (1, 2, 3):
                        want = _divided_oracle({bp: ONE}, i, m, e)
                        got = apply_f_divided({bp: ONE}, i, m, e)
                        assert got == want, (bp, i, m, e)
    # signed vectors whose two terms land on 1|1 and cancel there, in whole
    # and then in part
    cancel = {((), (1,)): ONE, ((1,), ()): -Q(1)}
    assert apply_f_divided(cancel, 0, 1, 2) == {}
    for vec in (cancel, {((), (1,)): ONE + Q(2), ((1,), ()): -Q(1)}):
        assert apply_f_divided(vec, 0, 1, 2) == _divided_oracle(vec, 0, 1, 2), vec


def test_divided_power_is_linear():
    vec = {((2,), (1,)): 3 * Q(-1), ((1, 1), (1,)): Q(2) + ONE}
    assert apply_f_divided(vec, 1, 2, 3) == _divided_oracle(vec, 1, 2, 3)
    assert apply_f(vec, 4, 3) == _f_oracle(vec, 1, 3)


def test_peel_runs_examples():
    assert peel_runs(EMPTY_BP, 3) == ()
    assert peel_runs(((1,), ()), 2) == ((0, 1),)
    with pytest.raises(ValueError):
        peel_runs(((), (1,)), 2)
    # total peeled equals the size; a shape that is not regular is refused
    for e in (2, 3):
        for n in range(0, 9):
            for bp in bipartitions(n):
                if is_regular(bp, e):
                    assert sum(m for _, m in peel_runs(bp, e)) == n
                else:
                    with pytest.raises(ValueError):
                        peel_runs(bp, e)


def test_first_approximation_unitriangular():
    # unit leading coefficient, support strictly below in the refined
    # (lexicographic) order; the eliminated columns are cone-triangular
    for e in (2, 3):
        for n in range(0, 8):
            for mu in bipartitions(n):
                if not is_regular(mu, e):
                    continue
                vec = first_approximation(mu, e)
                assert vec[mu] == ONE
                kmu = dominance_key(mu)
                for lam in vec:
                    assert lam == mu or dominance_key(lam) < kmu


@pytest.mark.parametrize("call, message", [
    # a leading coefficient other than 1, then support above the column
    (lambda: fock._check_first_approximation(0, {0: {1: 1}}, str),
     "leading coefficient q$"),
    (lambda: fock._check_first_approximation(1, {1: {0: 1}, 0: {0: 1}}, str),
     "at 0 not below it in the refined order"),
    # -|1 is not 2-regular, so no i-run peels off it
    (lambda: fock._Shapes(2, (((), (1,)),)).peel(0), r"stuck at \(\(\), \(1,\)\)"),
], ids=["leading-coefficient", "support-above", "peel-stuck"])
def test_solver_assertions_name_the_fault(call, message):
    with pytest.raises(RuntimeError, match=message):
        call()


def _solver_regs(n, e):
    """A per-solve shape table seeded as the solver seeds it, and the ids
    of the regular bipartitions of n in decreasing dominance."""
    shapes = fock._Shapes(e, dominance_keys(n))
    regs = [sid for sid, mu in enumerate(shapes.shapes) if is_regular(mu, e)]
    return shapes, regs


def test_shared_prefix_pass_matches_first_approximation():
    for e in (2, 3):
        for n in range(0, 10):
            shapes, regs = _solver_regs(n, e)
            shared = dict(fock._first_approximations(shapes, regs))
            assert set(shared) == set(regs)
            for mu in regs:
                got = {shapes.shapes[lam]: LaurentPoly(terms)
                       for lam, terms in shared[mu].items()}
                assert got == first_approximation(shapes.shapes[mu], e), (mu, e)


def test_shared_prefix_pass_applies_each_prefix_once(monkeypatch):
    e, n = 2, 10
    shapes, regs = _solver_regs(n, e)
    prefixes = set()
    for mu in regs:
        runs = tuple(reversed(peel_runs(shapes.shapes[mu], e)))
        prefixes.update(runs[:k] for k in range(1, len(runs) + 1))
    applied = []
    inner = fock._apply_divided

    def counting(shapes, vec, i, m):
        applied.append((i, m))
        return inner(shapes, vec, i, m)

    monkeypatch.setattr(fock, "_apply_divided", counting)
    assert len(dict(fock._first_approximations(shapes, regs))) == len(regs)
    assert len(applied) == len(prefixes)


def _branch_order(shapes, regs):
    """regs sorted by the least dominant mu of each branch of the run-list
    trie, least dominant first, level by level: the order the solver's
    elimination wants the approximations in."""
    steps = {mu: tuple(reversed(peel_runs(shapes.shapes[mu], shapes.e)))
             for mu in regs}
    last = {}  # run-list prefix -> largest regs index below it
    for idx, mu in enumerate(regs):
        for k in range(1, len(steps[mu]) + 1):
            last[steps[mu][:k]] = idx

    def key(mu):
        run = steps[mu]
        return tuple(-last[run[:k]] for k in range(1, len(run) + 1))
    return sorted(regs, key=key)


def test_shared_prefix_pass_yields_in_branch_order():
    # the yield order bounds the approximations the solver holds
    for e in (2, 3, 4):
        for n in range(0, 11):
            shapes, regs = _solver_regs(n, e)
            got = [mu for mu, _ in fock._first_approximations(shapes, regs)]
            assert got == _branch_order(shapes, regs), (e, n)


def test_transition_table_matches_oracle():
    # one table per e holds every shape met, across sizes, as a solve's does
    for e in (2, 3, 4):
        shapes = fock._Shapes(e, bound=11)
        for n in range(0, 9):
            for bp in bipartitions(n):
                sid = shapes.intern(shapes.encode(bp))
                for i in range(e):
                    for m in (1, 2, 3):
                        applied = fock._apply_divided(shapes, {sid: {0: 1}}, i, m)
                        targets = shapes.table(i, m)[sid]
                        assert targets == shapes.build(sid, i, m)
                        got = {shapes.label(tid): Q(d)
                               for tid, d in zip(targets[::2], targets[1::2])}
                        assert 2 * len(got) == len(targets)
                        want = _divided_oracle({bp: ONE}, i, m, e)
                        assert got == want, (bp, i, m, e)
                        assert {shapes.label(tid): LaurentPoly(terms)
                                for tid, terms in applied.items()} == want
        assert all(shapes.ids[code] == sid
                   for sid, code in enumerate(shapes.codes))


def test_bead_codes_round_trip():
    for e in (2, 3, 4):
        for bound in (10, 11, 13, 17):
            shapes = fock._Shapes(e, bound=bound)
            k, w = shapes.beads, shapes.width
            assert k % e == w % e == 0 and k > bound and w > bound + k
            assert shapes.decode(shapes.empty) == EMPTY_BP
            seen = set()
            for n in range(0, 11):
                for bp in bipartitions(n):
                    code = shapes.encode(bp)
                    assert shapes.decode(code) == bp
                    for field in (code >> w, code & ((1 << w) - 1)):
                        # k beads, the bottom one at bit 0, the top bit empty
                        assert field.bit_count() == k
                        assert field & 1 and field < 1 << (w - 1)
                    seen.add(code)
            assert len(seen) == sum(map(len, map(bipartitions, range(11))))
    # the seeded shapes keep their tuples and ids; others decode
    shapes = fock._Shapes(3, dominance_keys(4))
    assert shapes.bound == 4
    assert shapes.label(0) is shapes.shapes[0]
    grown = shapes.intern(shapes.encode(((1,), ())))
    assert grown == len(dominance_keys(4)) and shapes.label(grown) == ((1,), ())


def test_shapes_read_the_one_bead_layout():
    # the solver's table and tableaux.packed_graded_dimension share one
    # encoding and one set of masks, those of partitions.BeadLayout
    assert issubclass(fock._Shapes, BeadLayout)
    assert not {"encode", "decode"} & set(vars(fock._Shapes))
    for e in (2, 3):
        assert vars(BeadLayout(e, 7)).items() <= vars(fock._Shapes(e, bound=7)).items()


def test_shape_past_the_bound_raises():
    shapes = fock._Shapes(2, bound=3)
    with pytest.raises(ValueError, match="more than 3 boxes"):
        shapes.encode(((4,), ()))
    with pytest.raises(ValueError, match="more than 3 boxes"):
        shapes.encode(((), (2, 1, 1)))
    # a first row, or a last new row, that would leave its field: the
    # bead would wrap into component 1, or the field lose its empty row
    for bp, i in ((((), (3,)), 1), (((3,), ()), 1), (((), (1, 1, 1)), 1),
                  (((1, 1, 1), ()), 1)):
        sid = shapes.intern(shapes.encode(bp))
        with pytest.raises(ValueError, match="leaves the 3-box code"):
            shapes.build(sid, i, 1)
    # every transition built is exact, also from the shapes past the bound
    # that transitions reach, and every one that stays within it is built
    for e in (2, 3, 4):
        for bound in range(0, 5):
            shapes = fock._Shapes(e, bound=bound)
            for n in range(0, bound + 1):
                for bp in bipartitions(n):
                    shapes.intern(shapes.encode(bp))
            sid = 0
            while sid < len(shapes.codes):
                bp = shapes.label(sid)
                sid += 1
                if size(bp) > bound + 2:
                    continue
                for i in range(e):
                    for m in (1, 2, 3):
                        want = _divided_oracle({bp: ONE}, i, m, e)
                        try:
                            targets = shapes.build(sid - 1, i, m)
                        except ValueError:
                            assert size(bp) + m > bound, (bp, i, m, e)
                            continue
                        got = {shapes.label(tid): Q(d)
                               for tid, d in zip(targets[::2], targets[1::2])}
                        assert got == want, (bp, i, m, e, bound)


def _signature_peel(mu, e):
    """The ladder peel read off i-signatures: at each stage remove the
    leading run of minus signs of the smallest i that has one."""
    runs = []
    cur = mu
    while cur != EMPTY_BP:
        for i in range(e):
            run = []
            for sign, node in signature(cur, i, e):
                if sign != "-":
                    break
                run.append(node)
            if run:
                for node in run:
                    cur = remove_node(cur, node)
                runs.append((i, len(run)))
                break
        else:
            raise AssertionError(f"signature peel of {mu} stuck at {cur}")
    return tuple(runs)


def test_bead_peel_matches_signature_peel():
    for e in (2, 3, 4):
        for n in range(0, 11):
            shapes = fock._Shapes(e, bound=n)
            for mu in regular_bipartitions(n, e):
                want = _signature_peel(mu, e)
                assert shapes.peel(shapes.intern(shapes.encode(mu))) == want
                assert peel_runs(mu, e) == want


def test_solver_keeps_no_cache_across_solves():
    # the shape and transition tables live for one solve; the only object
    # in fock with a cache_info is _f_targets, which counts their lookups
    # and builds, and sees no table left once the solve returns
    own = [name for name, val in vars(fock).items()
           if getattr(val, "__module__", None) == fock.__name__
           and hasattr(val, "cache_info")]
    assert own == ["_f_targets"]
    fock._f_targets.cache_clear()
    shapes = fock._Shapes(2, bound=1)
    fock._apply_divided(shapes, {shapes.intern(shapes.empty): {0: 1}}, 0, 1)
    assert fock._f_targets.cache_info() == (0, 1, None, 1)
    del shapes
    fock._f_targets.cache_clear()
    canonical_basis(10, 2, use_cache=False)
    # the hits and misses an lru_cache on the transitions had at this point
    assert fock._f_targets.cache_info() == (1036, 1163, None, 0)
    fock._f_targets.cache_clear()
    assert fock._f_targets.cache_info() == (0, 0, None, 0)


def _plain_pairs(n, e):
    """The identity pair table: every column its own partner, so solved."""
    return {mu: mu for mu in mullineux_pairs(n, e)}


def test_paired_solve_matches_plain_solve(monkeypatch):
    # the derived columns read the crystal's pairs; the plain route reads
    # the Fock space alone
    paired = {(e, n): canonical_basis(n, e, use_cache=False)
              for e in (2, 3, 4, 5) for n in range(0, 13)}
    monkeypatch.setattr(fock, "mullineux_pairs", _plain_pairs)
    for (e, n), matrix in paired.items():
        assert canonical_basis(n, e, use_cache=False) == matrix, (e, n)


def test_solver_solves_one_column_per_pair(monkeypatch):
    solved = []
    inner = fock._first_approximations

    def counting(shapes, regs, lower=None):
        for mu, vec in inner(shapes, regs, lower):
            solved.append(shapes.shapes[mu])
            yield mu, vec

    monkeypatch.setattr(fock, "_first_approximations", counting)
    for e in (2, 3, 4, 5):
        for n in range(0, 13):
            solved.clear()
            regular = regular_bipartitions(n, e)
            canonical_basis(n, e, use_cache=False)
            fixed = sum(mullineux(mu, e) == mu for mu in regular)
            assert len(solved) == len(set(solved)) == (len(regular) + fixed) // 2
            # the less dominant member of each pair: the later key
            order = list(dominance_keys(n))
            assert all(order.index(mu) >= order.index(mullineux(mu, e))
                       for mu in solved), (e, n)
            if (e, n) == (3, 12):
                assert (len(solved), len(regular), fixed) == (80, 156, 4)
            if e == 2:
                assert len(solved) == len(regular)


def test_swapped_partners_raise_naming_the_pair(monkeypatch):
    # BROKEN: 12|- and 11,1|- trade their Mullineux partners
    def swapped(n, e):
        pairs = dict(mullineux_pairs(n, e))
        a, b = ((12,), ()), ((11, 1), ())
        pairs[a], pairs[b] = pairs[b], pairs[a]
        pairs[pairs[a]], pairs[pairs[b]] = a, b
        return pairs

    assert mullineux(((12,), ()), 3) == ((6, 6), ())
    monkeypatch.setattr(fock, "mullineux_pairs", swapped)
    with pytest.raises(RuntimeError, match=r"Mullineux pair 6,5,1\|- and 12\|-: "
                       r"row -\|1(,1){11} of column 6,5,1\|- is 0"):
        canonical_basis(12, 3, use_cache=False)


def _conjugates(n):
    """The id of each bipartition of n's conjugate, in key order."""
    keys = list(dominance_keys(n))
    return [keys.index(conjugate(lam)) for lam in keys]


def test_kept_rows():
    # at e = 2 the earlier of each conjugate pair, and every regular row
    # with its conjugate; at e >= 3 every row
    for n in range(0, 11):
        keys = list(dominance_keys(n))
        regular = regular_bipartitions(n, 2)
        conj = _conjugates(n)
        kept = fock._kept_rows(n, 2, conj)
        for sid, (lam, cid) in enumerate(zip(keys, conj)):
            assert (sid in kept) == (sid <= cid or lam in regular
                                     or keys[cid] in regular), (n, lam)
        assert fock._kept_rows(n, 3, conj) is fock._kept_rows(n, 4, conj) is None
    assert (len(fock._kept_rows(14, 2, _conjugates(14))),
            len(dominance_keys(14))) == (1422, 2665)


def _eliminating_within(monkeypatch, rows):
    """Patch the solver's elimination to check that each column it
    returns, and each finished column it reads, lies within rows(), the
    row ids the caller allows at the n being solved."""
    eliminate = fock._eliminate

    def eliminated(held, approx, mu, done, raw):
        vec = eliminate(held, approx, mu, done, raw)
        kept = rows()
        assert set(vec) <= kept and all(map(kept.__contains__, done))
        return vec

    monkeypatch.setattr(fock, "_eliminate", eliminated)


def test_conjugate_rows_solve_matches_plain_solve(monkeypatch):
    # at e = 2 only the kept rows are eliminated, and no vector the solve
    # eliminates holds a row of n boxes outside them
    kept = {}
    first = fock._first_approximations

    def approximations(shapes, regs, lower=None):
        for mu, vec in first(shapes, regs, lower):
            assert set(vec) <= kept, shapes.shapes[mu]
            yield mu, vec

    monkeypatch.setattr(fock, "_first_approximations", approximations)
    _eliminating_within(monkeypatch, lambda: kept)
    halved = {}
    for n in range(0, 14):
        kept = fock._kept_rows(n, 2, _conjugates(n))
        halved[n] = canonical_basis(n, 2, use_cache=False)
    monkeypatch.setattr(fock, "_kept_rows", lambda n, e, conj: None)
    for n, matrix in halved.items():
        kept = set(range(len(dominance_keys(n))))
        assert canonical_basis(n, 2, use_cache=False) == matrix, n


def _solving(monkeypatch, solved, applied):
    """Patch the solver to append each column it solves to solved and
    each divided power it applies to applied."""
    first, divided = fock._first_approximations, fock._apply_divided

    def approximations(shapes, regs, lower=None):
        for mu, vec in first(shapes, regs, lower):
            solved.append(shapes.shapes[mu])
            yield mu, vec

    def applying(shapes, vec, i, m):
        applied.append((i, m))
        return divided(shapes, vec, i, m)

    monkeypatch.setattr(fock, "_first_approximations", approximations)
    monkeypatch.setattr(fock, "_apply_divided", applying)


def test_held_levels_start_every_column_from_its_parent(tmp_path, monkeypatch):
    # a sweep through one cache directory solves each level from the
    # levels below, which this process solved: past n = 0 each solved
    # column costs exactly one divided power, at e = 2 only kept rows are
    # eliminated, and each level equals the solve from |empty>
    monkeypatch.setattr(fock, "_MEMORY", {})
    solved, applied, kept = [], [], {}
    _solving(monkeypatch, solved, applied)
    _eliminating_within(monkeypatch, lambda: kept)
    for e, top in ((2, 13), (3, 12), (4, 12), (5, 12)):
        cache_dir = str(tmp_path / f"e{e}")
        for n in range(top + 1):
            kept = (fock._kept_rows(n, e, _conjugates(n))
                    or set(range(len(dominance_keys(n)))))
            solved.clear()
            applied.clear()
            matrix = canonical_basis(n, e, cache_dir=cache_dir)
            assert len(applied) == (len(solved) if n else 0), (e, n)
            assert matrix == canonical_basis(n, e, use_cache=False), (e, n)


@pytest.mark.parametrize("e, n", [(2, 8), (2, 10), (3, 9), (3, 12), (4, 8)])
def test_held_and_empty_roots_in_one_solve(tmp_path, monkeypatch, e, n):
    # with levels 0..n-2 held and n-1 not, a column whose first peel run
    # adds one node starts from |empty> and the rest from their parents:
    # the trie from |empty> applies each distinct prefix of the reversed
    # run lists once, every held root one divided power
    plain = canonical_basis(n, e, use_cache=False)
    monkeypatch.setattr(fock, "_MEMORY", {})
    for k in range(n - 1):
        canonical_basis(k, e, cache_dir=str(tmp_path))
    solved, applied = [], []
    _solving(monkeypatch, solved, applied)
    matrix = canonical_basis(n, e, cache_dir=str(tmp_path))
    runs = {mu: tuple(reversed(peel_runs(mu, e))) for mu in solved}
    walked = [mu for mu in solved if runs[mu][-1][1] == 1]
    prefixes = {runs[mu][:k] for mu in walked for k in range(1, n + 1)}
    assert 0 < len(walked) < len(solved)
    assert len(applied) == len(prefixes) + len(solved) - len(walked)
    if (e, n) == (3, 12):
        # over every column, each solved or read off its Mullineux partner
        ones = sum(peel_runs(mu, e)[0][1] == 1 for mu in matrix.regulars())
        assert (ones, len(matrix.columns) - ones) == (83, 73)
        assert (len(walked), len(solved) - len(walked)) == (43, 37)
    assert matrix == plain


def test_loaded_levels_start_no_column(tmp_path, monkeypatch):
    # q + q^2 for q at row 4|1 of column 5|- keeps the file's balance and
    # passes _fault, so the file is served at n = 5; the solve at n = 6
    # must not start a column from it
    monkeypatch.setattr(fock, "_MEMORY", {})
    for n in range(6):
        good = canonical_basis(n, 2, cache_dir=str(tmp_path))
    columns = {mu: dict(col) for mu, col in good.columns.items()}
    ids = dominance_ids(5)
    columns[ids[((5,), ())]][ids[((4,), (1,))]] = Q(1) + Q(2)
    path = tmp_path / "llt_e2_n5_above.json"
    path.write_text(json.dumps(DecompositionMatrix(5, 2, columns).to_obj()))
    fock._MEMORY.clear()
    assert canonical_basis(5, 2, cache_dir=str(tmp_path)).columns == columns
    assert (canonical_basis(6, 2, cache_dir=str(tmp_path))
            == canonical_basis(6, 2, use_cache=False))


def test_held_parent_off_its_diagonal_raises_naming_the_column(tmp_path,
                                                                monkeypatch):
    # BROKEN: column 5|- of the held level 5 loses its diagonal, so the
    # start of its child column 6|- has no term at 6|-
    monkeypatch.setattr(fock, "_MEMORY", {})
    for n in range(6):
        held = canonical_basis(n, 2, cache_dir=str(tmp_path))
    five = dominance_ids(5)[((5,), ())]
    del held.columns[five][five]
    with pytest.raises(RuntimeError, match=r"^first approximation of 6\|- "
                       r"has leading coefficient 0$"):
        canonical_basis(6, 2, cache_dir=str(tmp_path))


def test_solved_levels_live_only_in_memory(tmp_path, monkeypatch):
    # _MEMORY is the one store: the benchmark empties it by name between
    # ops, so a level held anywhere else would carry over to the next op
    monkeypatch.setattr(fock, "_MEMORY", {})
    refs = [weakref.ref(canonical_basis(n, 3, cache_dir=str(tmp_path)))
            for n in range(9)]
    assert all(ref() is not None for ref in refs)
    fock._MEMORY.clear()
    gc.collect()
    assert [ref() for ref in refs] == [None] * 9


def test_wrong_conjugate_raises_naming_column_and_row(monkeypatch):
    # BROKEN: the solver's conjugate of 1|2,2,1, whose conjugate 3,2|1 is
    # regular, is the regular 3,1|2, a row kept on both sides
    keys = list(dominance_keys(6))
    inner = fock._kept_rows

    def wrong(n, e, conj):
        kept = inner(n, e, conj)
        conj[keys.index(((1,), (2, 2, 1)))] = keys.index(((3, 1), (2,)))
        return kept

    monkeypatch.setattr(fock, "_kept_rows", wrong)
    with pytest.raises(RuntimeError, match=r"^conjugate rows: row 3,1\|2 of "
                       r"column 3,2\|1 is 0, not 1, which row 1\|2,2,1 gives "
                       r"at shift 4$"):
        canonical_basis(6, 2, use_cache=False)


@pytest.mark.parametrize("e", [2, 3])
def test_conjugation_off_an_involution_raises_naming_the_rows(monkeypatch, e):
    # BROKEN: conjugate wrong on one bipartition; 3,1,1|1 and its true
    # conjugate 1|3,1,1 both come later than their images, so without
    # the check neither row would be kept or read off a kept one at e = 2,
    # and at e = 3 a derived column would take a wrong row
    def wrong(bp):
        return ((5, 1), ()) if bp == ((3, 1, 1), (1,)) else conjugate(bp)

    monkeypatch.setattr(fock, "conjugate", wrong)
    with pytest.raises(RuntimeError, match=r"^conjugation takes "
                       r"3,1,1\|1 to 5,1\|-, and that to -\|2,1,1,1,1$"):
        canonical_basis(6, e, use_cache=False)


def test_diagonal_partner_off_a_power_of_q_raises_naming_the_column(monkeypatch):
    # BROKEN: column 3,1|2 comes out of elimination with twice its entry
    # at its conjugate's row 1,1|2,1,1, which must be exactly q^s
    keys = list(dominance_keys(6))
    inner = fock._eliminate

    def doubled(held, approx, mu, done, raw):
        vec = inner(held, approx, mu, done, raw)
        if keys[mu] == ((3, 1), (2,)):
            row = keys.index(conjugate(keys[mu]))
            vec[row] = {k: 2 * c for k, c in vec[row].items()}
        return vec

    monkeypatch.setattr(fock, "_eliminate", doubled)
    with pytest.raises(RuntimeError, match=r"^conjugate rows: row 1,1\|2,1,1 of "
                       r"column 3,1\|2 is 2\*q\^6, not a power of q$"):
        canonical_basis(6, 2, use_cache=False)


def test_first_approximation_one_box():
    vec = first_approximation(((1,), ()), 2)
    assert vec == {((1,), ()): ONE, ((), (1,)): Q(1)}


def test_canonical_basis_small():
    m = canonical_basis(1, 2, use_cache=False)
    ids = dominance_ids(1)
    assert m.regulars() == [((1,), ())]
    assert m.columns == {ids[((1,), ())]: {ids[((1,), ())]: ONE, ids[((), (1,))]: Q(1)}}

    m = canonical_basis(4, 2, use_cache=False)
    row = m.row(((2,), (2,)))
    assert row == {((4,), ()): Q(1), ((2, 1), (1,)): Q(1)}


def test_canonical_basis_window_and_triangularity():
    for e, n in [(2, 6), (3, 6), (4, 5)]:
        m = canonical_basis(n, e, use_cache=False)
        labels = m.rows()
        for mu, col in m.columns.items():
            assert col[mu] == ONE
            kmu = dominance_key(labels[mu])
            for lam, val in col.items():
                if lam != mu:
                    assert val.in_q_window()
                    assert key_dominates(kmu, dominance_key(labels[lam]))
        assert set(m.regulars()) == {bp for bp in bipartitions(n)
                                     if is_regular(bp, e)}


def test_simple_graded_dims_properties():
    for e, n in [(2, 6), (3, 6)]:
        m = canonical_basis(n, e, use_cache=False)
        qd = simple_graded_dims_from(m)
        regs = m.regulars()
        top = regs[0]
        assert qd[top] == graded_dimension(top, e)
        for lam in m.rows():
            lhs = graded_dimension(lam, e)
            rhs = sum((val * qd[mu] for mu, val in m.row(lam).items()),
                      LaurentPoly({}))
            assert lhs == rhs
        for val in qd.values():
            assert val.is_bar_invariant() and val.has_nonneg_coeffs()


def test_dimension_balance_at_one():
    from math import comb
    for e in (2, 3):
        m = canonical_basis(2 * e, e, use_cache=False)
        qd = simple_graded_dims_from(m)
        lam = ((e,), (e,))
        total = sum(val.at_one() * qd[mu].at_one()
                    for mu, val in m.row(lam).items())
        assert total == comb(2 * e, e)


def test_cache_round_trip(tmp_path, tmp_path_factory):
    # conftest.py keeps the default cache out of the user's home
    assert fock.default_cache_dir().startswith(str(tmp_path_factory.getbasetemp()))
    m1 = canonical_basis(4, 2, cache_dir=str(tmp_path))
    m2 = canonical_basis(4, 2, cache_dir=str(tmp_path))
    assert m1.columns == m2.columns
    obj = m1.to_obj()
    m3 = DecompositionMatrix.from_obj(obj)
    assert m3.columns == m1.columns
    assert (m3.n, m3.e) == (m1.n, m1.e)
    # the cached file is actually used
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    assert simple_graded_dims_from(
        canonical_basis(4, 2, cache_dir=str(tmp_path)))


def _scan_row(matrix, lam):
    """Row lam read by a plain scan over the columns in decreasing
    dominance."""
    ids = dominance_ids(matrix.n)
    return {mu: matrix.columns[ids[mu]][ids[lam]] for mu in dominance_keys(matrix.n)
            if ids[lam] in matrix.columns.get(ids[mu], ())}


@pytest.mark.parametrize("e, n", [(2, 8), (3, 9)])
def test_row_reads_the_columns_in_dominance_order(e, n):
    # the two store their columns in opposite orders, and row reads both
    # in decreasing dominance
    computed = canonical_basis(n, e, use_cache=False)
    loaded = DecompositionMatrix.from_obj(
        json.loads(json.dumps(computed.to_obj())))
    assert list(computed.columns) == sorted(computed.columns, reverse=True)
    assert list(loaded.columns) == sorted(loaded.columns)
    for matrix in (computed, loaded):
        for lam in bipartitions(n):
            row = matrix.row(lam)
            want = _scan_row(matrix, lam)
            assert row == want and list(row) == list(want)
    # the caller owns the returned dict
    lam = computed.rows()[next(iter(computed.columns))]
    computed.row(lam).clear()
    assert computed.row(lam) == _scan_row(computed, lam) != {}


def test_to_obj_from_obj_round_trip():
    # the load gives back the solve's entries id for id, one value object
    # per distinct value
    for e, n in [(e, n) for e in (2, 3, 4) for n in range(9)] + [(3, 9)]:
        m = canonical_basis(n, e, use_cache=False)
        obj = m.to_obj()
        assert obj["schema"] == fock.SCHEMA
        # each distinct value once, in the order of first use
        first_use = list(dict.fromkeys(
            i for col in obj["columns"].values() for i in col.values()))
        assert first_use == list(range(len(obj["values"])))
        assert len(set(map(str, obj["values"]))) == len(obj["values"])
        back = DecompositionMatrix.from_obj(json.loads(json.dumps(obj)))
        assert back == m
        assert back.to_obj() == obj
        _assert_shared(m)
        _assert_shared(back)
    # equal values that arrive as different pair lists, which from_pairs
    # allows only as two orderings of the same pairs, meet in one object
    back = DecompositionMatrix.from_obj({
        "schema": 2, "n": 2, "e": 2, "convention": "above",
        "values": [[[0, 1]], [[1, 1], [2, 3]], [[2, 3], [1, 1]]],
        "columns": {"2|-": {"2|-": 0, "1,1|-": 1, "1|1": 2}}})
    _, *vals = back.columns[dominance_ids(2)[((2,), ())]].values()
    assert vals[0] is vals[1]
    _assert_shared(back)


@pytest.mark.parametrize("field, value", [
    ("n", 2.5), ("n", "2"), ("n", 2.0), ("n", True), ("n", -1),
    ("e", True), ("e", 1), ("e", 2.0), ("e", "2"),
])
def test_from_obj_refuses_n_and_e_off_their_ints(field, value):
    # int() read n = 2.5 and "2" as 2, and e = true as 1
    obj = canonical_basis(2, 2, use_cache=False).to_obj()
    obj[field] = value
    with pytest.raises(ValueError, match=f"^{field} {value!r} is not an int"):
        DecompositionMatrix.from_obj(obj)


@pytest.mark.parametrize("lam", [((5,), ()), ((1, 2), ()), ((2,), (2,))])
def test_row_refuses_a_label_outside_the_matrix(lam):
    # a shape of another size, or a tuple that is no bipartition, is no
    # row of the 3-box matrix; the row read {} before
    m = canonical_basis(3, 2, use_cache=False)
    with pytest.raises(ValueError, match=rf"^row {re.escape(format_bipartition(lam))} "
                       r"is not a bipartition of 3$"):
        m.row(lam)


def _assert_shared(matrix):
    """One LaurentPoly per distinct value, and every row and column an
    id, a position in dominance_keys(n)."""
    ids = range(len(dominance_keys(matrix.n)))
    values = {}
    for mu, col in matrix.columns.items():
        assert type(mu) is int and mu in ids
        for lam, val in col.items():
            assert type(lam) is int and lam in ids
            assert values.setdefault(val, val) is val


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# sha256 of cache files, recorded when schema 2 made entries indices into
# one values list; the file format is a compatibility surface, so these
# bytes move only with a deliberate schema bump
CACHE_SHA256 = {
    (2, 5): "df3f9077194baedb9e6b64e101a85caea89c6b232953e62636b980eeeef1e26b",
    (2, 6): "94f7f475513e4652498db71b54a888ae345d0ebf988ef216a483fe0161e9ca2b",
    (3, 7): "0af47f52ba0e6650bc5fa632b50db303e533d1b26f069ac4fb18c20e3eaf5aab",
}


def test_cache_file_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.setattr(fock, "_MEMORY", {})
    for (e, n), digest in CACHE_SHA256.items():
        canonical_basis(n, e, cache_dir=str(tmp_path))
        assert _sha256(tmp_path / f"llt_e{e}_n{n}_above.json") == digest


def test_mismatched_cache_file_is_rewritten(tmp_path, monkeypatch):
    monkeypatch.setattr(fock, "_MEMORY", {})
    canonical_basis(4, 2, cache_dir=str(tmp_path))
    wrong = tmp_path / "llt_e2_n5_above.json"
    shutil.copy(tmp_path / "llt_e2_n4_above.json", wrong)
    fock._MEMORY.clear()
    m = canonical_basis(5, 2, cache_dir=str(tmp_path))
    assert m == canonical_basis(5, 2, use_cache=False)
    assert _sha256(wrong) == CACHE_SHA256[(2, 5)]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "llt_e2_n4_above.json", "llt_e2_n5_above.json"]

    # the repaired file is served from then on
    def no_compute(*args):
        raise AssertionError("recomputed over a valid cache file")
    monkeypatch.setattr(fock, "_compute_canonical_basis", no_compute)
    fock._MEMORY.clear()
    assert canonical_basis(5, 2, cache_dir=str(tmp_path)) == m


def test_memory_is_kept_per_cache_directory(tmp_path, monkeypatch):
    monkeypatch.setattr(fock, "_MEMORY", {})
    a, b = tmp_path / "a", tmp_path / "b"
    first = canonical_basis(4, 2, cache_dir=str(a))
    fresh = (a / "llt_e2_n4_above.json").read_bytes()
    # another spelling of the same directory is a memory hit
    assert canonical_basis(4, 2, cache_dir=str(a / ".." / "a")) is first
    # another directory is read on its own, and its truncated file repaired
    b.mkdir()
    (b / "llt_e2_n4_above.json").write_bytes(fresh[:40])
    assert canonical_basis(4, 2, cache_dir=str(b)) == first
    assert (b / "llt_e2_n4_above.json").read_bytes() == fresh


@pytest.mark.parametrize("e, n", [(2, 8), (3, 9)])
def test_fault_passes_computed_and_loaded_matrices(e, n):
    computed = canonical_basis(n, e, use_cache=False)
    obj = json.loads(json.dumps(computed.to_obj()))
    assert fock._fault(computed) is None
    assert fock._fault(DecompositionMatrix.from_obj(obj)) is None
    # nor does a copy that shares no value object, its 1s included
    unshared = {mu: {lam: LaurentPoly(val.iter_terms()) for lam, val in col.items()}
                for mu, col in computed.columns.items()}
    assert fock._fault(DecompositionMatrix(n=n, e=e, columns=unshared)) is None


@pytest.mark.parametrize("e", [2, 3, 4])
def test_fault_triangularity_matches_key_dominates(monkeypatch, e):
    # every column of the solve holding every row at q: the codes _fault
    # reads by id refuse exactly the pairs key_dominates refuses, the
    # first of them named, and every one of them seen through
    # undominated, whose verdicts are recorded and withheld so that every
    # column is read
    real, seen = fock.undominated, []

    def recording(mu, lams, codes, n):
        seen.append((mu, real(mu, lams, codes, n)))
        return []

    for n in range(9):
        good = canonical_basis(n, e, use_cache=False)
        labels = good.rows()
        cols = {mu: {lam: ONE if lam == mu else Q(1) for lam in range(len(labels))}
                for mu in good.columns}
        want = [(mu, lam) for mu in cols for lam in cols[mu] if not key_dominates(
            dominance_key(labels[mu]), dominance_key(labels[lam]))]
        matrix = DecompositionMatrix(n=n, e=e, columns=cols)
        if want:
            mu, lam = want[0]
            assert fock._fault(matrix) == (
                f"column {format_bipartition(labels[mu])} does not dominate "
                f"its row {format_bipartition(labels[lam])}")
        with monkeypatch.context() as patch:
            patch.setattr(fock, "undominated", recording)
            seen.clear()
            assert fock._fault(matrix) is None
        assert [mu for mu, _ in seen] == list(cols)
        assert [(mu, lam) for mu, bad in seen for lam in bad] == want


def _set(col, row, val):
    def edit(columns, label):
        columns[label[col]][label[row]] = val
    return edit


@pytest.mark.parametrize("edit, named", [
    (_set("2,1|2", "2,1|2", LaurentPoly({0: 2})), "column 2,1|2: diagonal is 2"),
    (_set("2,1|2", "3|2", Q(1)), "column 2,1|2 does not dominate its row 3|2"),
    # equal to the shared 1 but another object: the check must not lean
    # on one object per distinct value
    (_set("3,2|-", "1|2,2", LaurentPoly({0: 1})), "column 3,2|-, row 1|2,2: 1"),
    (_set("3,2|-", "1|2,2", -Q(2)), "column 3,2|-, row 1|2,2: -q^2"),
    # 0 lies in the q window; column 5|- dominates row 4,1|- and has no
    # entry there
    (_set("5|-", "4,1|-", ZERO), "column 5|-, row 4,1|-: 0 is not a nonzero"),
    (lambda columns, label: columns.pop(label["2,1|2"]), "at 2,1|2"),
    # 2|2,1 is not regular at e = 2
    (lambda columns, label: columns.update({label["2|2,1"]: {label["2|2,1"]: ONE}}),
     "at 2|2,1"),
], ids=["diagonal-2", "entry-not-dominated", "separate-one", "negative-entry",
        "zero-entry", "dropped-column", "extra-column"])
def test_fault_names_each_broken_invariant(edit, named):
    m = canonical_basis(5, 2, use_cache=False)
    columns = {mu: dict(col) for mu, col in m.columns.items()}
    edit(columns, {format_bipartition(bp): k for k, bp in enumerate(dominance_keys(5))})
    reason = fock._fault(DecompositionMatrix(n=5, e=2, columns=columns))
    assert reason is not None and named in reason


def test_fault_formats_labels_only_on_failure(monkeypatch):
    m = canonical_basis(5, 2, use_cache=False)
    label = {format_bipartition(bp): k for k, bp in enumerate(dominance_keys(5))}
    broken = []
    for col, row, val in (("2,1|2", "2,1|2", LaurentPoly({0: 2})),
                          ("2,1|2", "3|2", Q(1)), ("3,2|-", "1|2,2", -Q(2))):
        columns = {mu: dict(c) for mu, c in m.columns.items()}
        columns[label[col]][label[row]] = val
        broken.append(DecompositionMatrix(n=5, e=2, columns=columns))
    # every text whole, as a failed solve or load reports it
    assert [fock._fault(b) for b in broken] == [
        "column 2,1|2: diagonal is 2, expected 1",
        "column 2,1|2 does not dominate its row 3|2",
        "column 3,2|-, row 1|2,2: -q^2 is not a nonzero element of q.N[q]"]
    # a matrix that passes names no column
    monkeypatch.setattr(fock, "format_bipartition", None)
    assert fock._fault(m) is None
