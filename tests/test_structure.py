from collections import Counter

import pytest

from bihooks import structure
from bihooks.crystal import induction_pairs
from bihooks.fock import canonical_basis
from bihooks.laurent import LaurentPoly, ZERO
from bihooks.partitions import format_bipartition
from bihooks.schur import num_summands, two_column
from bihooks.structure import (
    DIAGRAM, SEMISIMPLE, UNISERIAL, ModuleStructure, Summand, almost_ss_residue,
    almost_ss_structure, base_structure, braces_transpose_label,
    composition_labels, decomposability, family_label, family_shape, predict,
    semisimple_decomposition, semisimplicity_criterion, structure_j2,
)


def _labelled(struct, k, j, e):
    return struct.map_labels(lambda mu: family_label(mu, k, j, e))


def labelset(struct):
    return {(format_bipartition(lab.bipartition), lab.shift)
            for lab in struct.labels()}


def test_semisimplicity_criterion():
    assert semisimplicity_criterion(7, 5, 0)
    assert semisimplicity_criterion(2, 1, 2)
    assert not semisimplicity_criterion(7, 2, 3)
    assert semisimplicity_criterion(5, 2, 2)
    assert not semisimplicity_criterion(3, 2, 2)
    with pytest.raises(ValueError):
        semisimplicity_criterion(1, 2, 3)


def test_semisimple_decomposition_example():
    struct = _labelled(semisimple_decomposition(7, 5), 7, 5, 3)
    assert labelset(struct) == {
        ("33,1|2", 5), ("30,4|2", 5), ("27,7|2", 5),
        ("24,10|2", 5), ("21,13|2", 5), ("36|-", 5)}
    assert struct.num_summands() == 6
    small = _labelled(semisimple_decomposition(1, 1), 1, 1, 4)
    assert labelset(small) == {("4,1|3", 1), ("8|-", 1)}


def test_structure_j1():
    ss = _labelled(base_structure(2, 1, 0), 2, 1, 3)
    assert ss.num_summands() == 2
    uni = _labelled(almost_ss_structure(3, 1, 2), 3, 1, 2)
    assert uni.num_summands() == 1
    layers = uni.summands[0].labels
    assert [format_bipartition(l.bipartition) for l in layers] == \
        ["8|-", "6,1|1", "8|-"]
    assert all(l.shift == 1 for l in layers)
    uni3 = _labelled(base_structure(2, 1, 3), 2, 1, 2)
    assert uni3.summands[0].kind == UNISERIAL
    assert len(uni3.summands[0].labels) == 3


def structure_j1(k, p):
    """The j = 1 statement in closed form: two simple summands, or one
    uniserial triv | nontriv | triv when p divides k+1."""
    if semisimplicity_criterion(k, 1, p):
        return semisimple_decomposition(k, 1)
    triv, nontriv = two_column(0, k + 1), two_column(1, k + 1)
    return ModuleStructure((Summand(UNISERIAL, (triv, nontriv, triv)),))


def test_j1_is_the_almost_semisimple_case_p_divides_k_plus_1():
    for p in (0, 2, 3, 5, 7, 11):
        for k in range(1, 41):
            assert semisimplicity_criterion(k, 1, p) == (p == 0 or (k + 1) % p != 0)
            assert base_structure(k, 1, p) == structure_j1(k, p)


def test_structure_j2_cases():
    # (ii) p | k+2, at e = 3
    s = _labelled(structure_j2(4, 3), 4, 2, 3)
    assert sorted(x.kind for x in s.summands) == [SEMISIMPLE, UNISERIAL]
    uni = [x for x in s.summands if x.kind == UNISERIAL][0]
    assert [format_bipartition(l.bipartition) for l in uni.labels] == \
        ["18|-", "15,1|2", "18|-"]
    # (v) p=2, k=0 mod 4
    s = _labelled(structure_j2(4, 2), 4, 2, 2)
    uni = [x for x in s.summands if x.kind == UNISERIAL][0]
    assert [format_bipartition(l.bipartition) for l in uni.labels] == \
        ["10,1|1", "12|-", "8,3|1", "12|-", "10,1|1"]
    simple = [x for x in s.summands if x.kind == SEMISIMPLE][0]
    assert format_bipartition(simple.labels[0].bipartition) == "12|-"
    # (vi) p=2, k=2 mod 4: one five-vertex diagram
    s = _labelled(structure_j2(2, 2), 2, 2, 2)
    assert s.num_summands() == 1
    d = s.summands[0]
    assert d.kind == DIAGRAM
    assert [format_bipartition(v.bipartition) for v in d.labels] == \
        ["8|-", "6,1|1", "4,3|1", "6,1|1", "8|-"]
    assert d.edges == ((0, 1), (2, 1), (3, 2), (3, 4))


def test_almost_ss_hypothesis():
    assert almost_ss_residue(7, 3, 3) is None  # 3 divides 9 and 6
    assert almost_ss_residue(4, 2, 3) == 0
    assert almost_ss_residue(3, 3, 5) == 1
    assert almost_ss_residue(5, 2, 7) == 0 or almost_ss_residue(5, 2, 7) is None


def test_almost_ss_exceptional_branch():
    # j = p = 3, k = 5: k+1 = 6 is divisible by 3 but not 9, so the largest
    # filtration shape is simple and there are three summands
    struct = almost_ss_structure(5, 3, 3)
    assert struct.num_summands() == 3 == num_summands(5, 3, 3)
    labels = Counter(struct.labels())
    assert labels == Counter({two_column(0, 8): 1, two_column(1, 8): 2,
                              two_column(2, 8): 1, two_column(3, 8): 1})
    # j = p = 3, k = 8: 9 divides k+1, generic shape applies
    struct = almost_ss_structure(8, 3, 3)
    assert struct.num_summands() == 2 == num_summands(8, 3, 3)


def test_family_shape_examples():
    # the README's induce and induce --negate outputs at e = 4, (a, b) = (2, 1)
    assert family_shape(1, 1, 4, 2, 1) == ((6, 1), (6, 1))
    assert family_shape(1, 1, 4, 2, 1, transpose=True) == \
        ((2, 1, 1, 1, 1, 1), (2, 1, 1, 1, 1, 1))
    assert family_shape(7, 5, 3) == ((21,), (15,))


def test_predict_worked_examples():
    v = predict(7, 5, 3, 0)
    assert v.status == "decomposable"
    assert labelset(v.structure) == {
        ("33,1|2", 5), ("30,4|2", 5), ("27,7|2", 5),
        ("24,10|2", 5), ("21,13|2", 5), ("36|-", 5)}
    v = predict(1, 1, 4, 0, a=2, b=1)
    assert labelset(v.structure) == {("6,3|4,1", 1), ("10,1|2,1", 1)}
    v = predict(1, 1, 4, 0, a=2, b=3)
    assert labelset(v.structure) == {("6,3,1,1|4,1,1,1", 1),
                                     ("10,1,1,1|2,1,1,1", 1)}


def test_predict_five_factor_example():
    v = predict(7, 3, 2, 3)
    assert v.status == "decomposable"
    assert v.structure.num_summands() == 2
    diagram = [s for s in v.structure.summands if s.kind == DIAGRAM][0]
    assert len(diagram.labels) == 5
    assert diagram.edges == ((0, 1), (2, 1), (3, 2), (3, 4))
    simple = [s for s in v.structure.summands if s.kind == SEMISIMPLE][0]
    assert simple.labels[0].bipartition == ((18, 1), (1,))  # scrt(2,1^8) at e=2


def test_predict_fallback_unknown_structure():
    v = predict(6, 3, 2, 3)  # 3 divides both 9 and 6; no covered statement
    assert v.structure is None
    assert v.status == "decomposable"
    assert v.composition is not None
    assert len(v.composition) == sum(
        1 for _ in composition_labels(6, 3, 2, 3))
    # p=2, k=j=4: indecomposable by the 2-power congruence, no structure
    v = predict(4, 4, 2, 2)
    assert v.structure is None and v.status == "indecomposable"


def test_predict_swapped_components():
    base = predict(2, 1, 3, 0)
    swapped = predict(1, 2, 3, 0)
    assert swapped.structure is not None
    assert {lab.bipartition for lab in swapped.structure.labels()} == \
        {lab.bipartition for lab in base.structure.labels()}
    assert all(lab.shift == 2 for lab in swapped.structure.labels())
    assert any("dual" in note for note in swapped.notes)
    # uniserial case dualises to the same palindrome
    swapped = predict(2, 3, 2, 5)  # base (3,2) with p=5 | k+2
    assert swapped.structure is not None
    for s in swapped.structure.summands:
        if s.kind == UNISERIAL:
            assert s.labels == s.labels[::-1]
            assert all(lab.shift == 3 for lab in s.labels)
    # no covered statement gives the base (5, 3) at p = 2, so there is no
    # structure to dualise and no note may claim one
    v = predict(3, 5, 2, 2)
    assert v.structure is None
    assert not any("dual" in note for note in v.notes)
    assert v.notes == ("no covered statement gives the full structure here",)


def test_predict_transpose():
    v = predict(2, 1, 3, 0, transpose=True)
    assert v.structure is not None
    assert labelset(v.structure) == {("5,4|-", 5), ("3,3,1|1,1", 5)}
    # shift is 2k + j and labels are the Mullineux images
    v2 = predict(3, 1, 2, 2, transpose=True)
    uni = v2.structure.summands[0]
    assert uni.kind == UNISERIAL
    assert all(lab.shift == 7 for lab in uni.labels)


@pytest.mark.parametrize("e,max_kj", [(2, 6), (3, 4), (4, 3)])
def test_conjugate_composition_is_the_llt_row(e, max_kj, llt_cache_dir):
    # k < j, which the llt suite never reads: the structure's labels, or
    # the composition factors where there is none, must give the row, of
    # the (k, j) bihook and of its conjugate (at the Mullineux labels and
    # shift 2k + j)
    for total in range(3, max_kj + 1):
        matrix = canonical_basis(total * e, e, cache_dir=llt_cache_dir)
        for k in range(1, (total + 1) // 2):
            j = total - k
            for transpose in (False, True):
                v = predict(k, j, e, 0, transpose=transpose)
                want: dict = {}
                for lab in (v.composition if v.structure is None
                            else v.structure.labels()):
                    want[lab.bipartition] = want.get(lab.bipartition, ZERO) + \
                        LaurentPoly.q_power(lab.shift)
                shape = family_shape(k, j, e, transpose=transpose)
                assert matrix.row(shape) == want, (e, k, j, transpose)


def test_conjugate_composition_matches_the_structure():
    covered = 0
    for e in (2, 3):
        for p in (2, 3, 5, 7):
            for total in range(2, 11):
                for j in range(1, total // 2 + 1):
                    k = total - j
                    v = predict(k, j, e, p, transpose=True)
                    if v.structure is None:
                        continue
                    assert Counter(composition_labels(k, j, e, p, transpose=True)) \
                        == Counter(v.structure.labels()), (e, p, k, j)
                    covered += 1
    assert covered


def test_transpose_labels_agree_with_braces_route():
    for e in (2, 3, 4):
        for a, b in ([(0, 0)] + induction_pairs(e))[:6]:
            base = predict(2, 1, e, 0)
            via_mull = predict(2, 1, e, 0, a=a, b=b, transpose=True)
            for lab in base.structure.labels():
                expected = braces_transpose_label(lab, a, b, e)
                assert any(got.bipartition == expected.bipartition
                           for got in via_mull.structure.labels())


def test_family_label_refuses_a_non_regular_label(monkeypatch):
    # an induction step gone wrong: -|1 is not 2-regular
    monkeypatch.setattr(structure, "induce", lambda *args: ((), (1,)))
    with pytest.raises(RuntimeError, match=r"emitted non-regular label -\|1$"):
        family_label(two_column(0, 2), 1, 1, 2)


def test_predict_validation():
    with pytest.raises(ValueError):
        predict(2, 1, 1, 0)
    with pytest.raises(ValueError):
        predict(2, 1, 3, 4)  # p not prime
    with pytest.raises(ValueError):
        predict(2, 1, 3, 0, a=1, b=2)  # a + b = e
    with pytest.raises(ValueError):
        predict(0, 1, 3, 0)


def test_decomposability():
    assert decomposability(4, 1, 2) == "decomposable"
    assert decomposability(3, 1, 2) == "indecomposable"
    assert decomposability(3, 1, 0) == "decomposable"
    assert decomposability(1, 2, 3) == "indecomposable"
    assert decomposability(6, 3, 5) == "decomposable"
    assert decomposability(7, 3, 2) == "indecomposable"  # 4 = 0 mod 4
    assert decomposability(3, 7, 2) == "indecomposable"  # same pair swapped
    assert decomposability(6, 2, 2) == "indecomposable"
    assert decomposability(5, 2, 2) == "decomposable"


def test_structure_engine_invariants_small_grid():
    # the structure suite checks each structure; its verdict follows it
    for e in (2, 3):
        for p in (0, 2, 3, 5, 7):
            for total in range(2, 11):
                for j in range(1, total // 2 + 1):
                    v = predict(total - j, j, e, p)
                    if v.structure is not None and v.structure.num_summands() >= 2:
                        assert v.status == "decomposable"
