import pytest

from bihooks import fock
from bihooks.crystal import (
    braces, braces_int, check_regular, cogood_node, e_tilde, f_tilde, good_node,
    good_peel, induce, induction_pairs, induction_recipe, is_regular, mullineux,
    mullineux_pairs, reduce_signature, regular_bipartitions, scrt, signature,
    signatures,
)
from bihooks.partitions import (
    EMPTY_BP, addable_nodes, bipartitions, format_bipartition, removable_nodes,
    residue,
)
from bihooks.schur import two_column


def signs(sig):
    return "".join(s for s, _ in sig)


def test_signature_examples():
    assert signs(reduce_signature(signature(EMPTY_BP, 0, 3))) == "++"
    for e in (2, 3, 4):
        assert signs(reduce_signature(signature(((1,), (1,)), 0, e))) == "--"
    red = reduce_signature(signature(((4,), (4,)), 0, 4))
    assert signs(red) == "++"
    assert [n for _, n in red] == [(1, 5, 1), (1, 5, 2)]


def test_signature_matches_sorted_filtered_lists():
    # the i-nodes of addable_nodes and removable_nodes, sorted by
    # (component, row); the sort is stable, so a row's + precedes its -
    for e in (2, 3, 4, 5):
        for n in range(0, 9):
            for bp in bipartitions(n):
                for i in range(e):
                    marks = [(s, a) for s, nodes in (("+", addable_nodes(bp)),
                                                     ("-", removable_nodes(bp)))
                             for a in nodes if residue(a, e) == i]
                    marks.sort(key=lambda sa: (sa[1][2], sa[1][0]))
                    assert signature(bp, i, e) == marks
                assert signatures(bp, e) == [signature(bp, i, e) for i in range(e)]
    # residues are read mod e
    assert signature(((2, 1), (3,)), -1, 3) == signature(((2, 1), (3,)), 2, 3)
    with pytest.raises(ValueError):
        signature(EMPTY_BP, 0, 1)


def test_good_cogood_examples():
    assert cogood_node(signature(EMPTY_BP, 0, 2)) == (1, 1, 1)
    assert good_node(signature(((1,), (1,)), 0, 3)) == (1, 1, 2)
    assert good_node(signature(EMPTY_BP, 0, 3)) is None
    # -+- reduces to -: the first - is good, and no + is left
    a, b, c = (1, 2, 1), (2, 1, 1), (1, 2, 2)
    assert good_node([("-", a), ("+", b), ("-", c)]) == a
    assert cogood_node([("-", a), ("+", b), ("-", c)]) is None


def test_crystal_operator_examples():
    assert f_tilde(EMPTY_BP, 0, 4) == ((1,), ())
    x = f_tilde(f_tilde(((4,), (4,)), 0, 4), 0, 4)
    assert x == ((5,), (5,))
    assert e_tilde(((5,), (5,)), 0, 4) == ((5,), (4,))


def test_regularity_examples():
    assert is_regular(EMPTY_BP, 2)
    assert is_regular(((36,), ()), 3)
    assert is_regular(((21, 13), (2,)), 3)
    assert not is_regular(((), (1,)), 2)
    assert not is_regular(((2,), (2,)), 2)


def test_regularity_against_reachability_oracle():
    # the crystal suite's "regularity oracle" compares the good-node peel
    # with the cogood closure shape by shape at the session bounds;
    # here, the closure holds only bipartitions of n
    for e in (2, 3, 4, 5):
        for n in range(0, 11):
            assert regular_bipartitions(n, e) <= set(bipartitions(n))
    assert regular_bipartitions(-1, 2) == frozenset()
    with pytest.raises(ValueError):
        regular_bipartitions(3, 1)


def _backtracking_peel(bp, e, memo):
    # good-node removals, smallest residue first, trying the next residue
    # whenever a removal leads to a shape that gets stuck
    if bp == EMPTY_BP:
        return ()
    if bp not in memo:
        peel = None
        for i in range(e):
            down = e_tilde(bp, i, e)
            if down is not None:
                rest = _backtracking_peel(down, e, memo)
                if rest is not None:
                    peel = (i,) + rest
                    break
        memo[bp] = peel
    return memo[bp]


def test_good_peel_needs_no_backtracking():
    # crystal components are closed under good-node removal, so the first
    # good node decides and backtracking over residues finds nothing more
    for e in (2, 3, 4, 5):
        memo = {}
        for n in range(0, 11):
            for bp in bipartitions(n):
                assert good_peel(bp, e) == _backtracking_peel(bp, e, memo), (bp, e)


def test_mullineux_examples():
    assert mullineux(EMPTY_BP, 3) == EMPTY_BP
    assert mullineux(((15,), ()), 3) == ((8, 7), ())
    with pytest.raises(ValueError):
        mullineux(((), (1,)), 2)


def test_one_shape_checks_refuse_what_is_not_a_bipartition():
    # 1,2|- would peel to empty by good nodes at e = 3, yet no map may
    # read it, and the peel refuses it
    assert good_peel(((1, 2), ()), 3) is None
    for call in (mullineux, fock.peel_runs, fock.first_approximation):
        with pytest.raises(ValueError,
                           match=r"^parts not weakly decreasing: \(1, 2\)$"):
            call(((1, 2), ()), 3)
        with pytest.raises(ValueError, match=r"^2,0\|- is not regular for e=3$"):
            call(((2, 0), ()), 3)


# parts out of order and zero parts; good nodes would peel 1,2|-, 2,3|-
# and 1,2|1 to empty at e = 3 and 4, and 2,1,2|- and 1,1,2|- at e = 4
MALFORMED = [((1, 2), ()), ((2, 3), ()), ((1, 2), (1,)), ((2, 1, 2), ()),
             ((1, 1, 2), ()), ((), (1, 2)), ((2, 0), ()), ((1, 0), ()),
             ((0,), (1,)), ((1,), (0,)), ((3, 1, 0), (1,))]


@pytest.mark.parametrize("e", [2, 3, 4])
@pytest.mark.parametrize("bp", MALFORMED + [((1,), ()), ((2, 1), (1,))],
                         ids=format_bipartition)
def test_is_regular_answers_as_check_regular_does(bp, e):
    try:
        check_regular(bp, e)
        refused = False
    except ValueError:
        refused = True
    assert is_regular(bp, e) is not refused
    if bp in MALFORMED:
        assert refused and good_peel(bp, e) is None


def test_pair_table_matches_mullineux():
    for e in (2, 3, 4, 5):
        for n in range(0, 13):
            pairs = mullineux_pairs(n, e)
            assert all(mullineux(mu, e) == nu for mu, nu in pairs.items()), (e, n)
    assert mullineux_pairs(-1, 3) == {}
    with pytest.raises(ValueError):
        mullineux_pairs(3, 1)


def test_braces_examples():
    assert braces_int(0, 4) == ()
    assert braces(((15,), ()), 3) == ((8, 7), ())
    assert braces(((9, 4), (2,)), 3) == ((5, 4, 2, 2), (1, 1))
    # e = 2 braces is the identity
    for n in range(6):
        for bp in bipartitions(n):
            assert braces(bp, 2) == bp


def test_scrt_examples():
    for e in (2, 3, 5):
        assert scrt((), e) == EMPTY_BP
        assert scrt((1,) * 7, e) == ((7 * e,), ())
        assert scrt(two_column(1, 7), e) == ((6 * e, 1), (e - 1,))
        assert scrt(two_column(3, 7), e) == ((4 * e, 2 * e + 1), (e - 1,))
    with pytest.raises(ValueError):
        scrt((3, 1), 2)


def test_induction_recipe():
    assert induction_recipe(0, 0, 4) == []
    assert induction_recipe(2, 1, 4) == [(0, 2), (1, 2), (3, 2)]
    assert induction_recipe(2, 3, 4) == [(0, 2), (3, 2), (2, 2), (1, 4)]
    with pytest.raises(ValueError):
        induction_recipe(2, 2, 4)  # a + b = e
    with pytest.raises(ValueError):
        induction_recipe(0, 1, 4)
    with pytest.raises(ValueError):
        induction_recipe(5, 1, 4)


def test_induction_pairs_closed_condition():
    for e in range(2, 6):
        want = [(a, b) for a in range(-1, e + 2) for b in range(-1, e + 2)
                if 0 < a <= e and 0 <= b < e and a + b != e]
        assert induction_pairs(e) == want
        for a in range(-1, e + 2):
            for b in range(-1, e + 2):
                if (a, b) != (0, 0) and (a, b) not in want:
                    with pytest.raises(ValueError, match="invalid induction"):
                        induction_recipe(a, b, e)


def test_induce_worked_cases():
    assert induce(((4,), (4,)), 2, 1, 4) == ((6, 1), (6, 1))
    assert induce(((4, 1), (3,)), 2, 1, 4) == ((6, 3), (4, 1))
    assert induce(((8,), ()), 2, 1, 4) == ((10, 1), (2, 1))
    assert induce(((4,), (4,)), 2, 3, 4) == ((6, 1, 1, 1), (6, 1, 1, 1))
    assert induce(((4, 1), (3,)), 2, 3, 4) == ((6, 3, 1, 1), (4, 1, 1, 1))
    assert induce(((3,), (3,)), 0, 0, 3) == ((3,), (3,))


def test_induce_is_f_tilde_along_the_recipe():
    # f_tilde step by step over the expanded recipe, residues negated
    # under negate: induce gives the last shape, or names the shape where
    # a step finds no cogood node
    grown = stuck = 0
    for e in (2, 3, 4):
        for a, b in [(0, 0)] + induction_pairs(e):
            for negate in (False, True):
                residues = [-i if negate else i
                            for i, mult in induction_recipe(a, b, e)
                            for _ in range(mult)]
                for n in range(7):
                    for bp in bipartitions(n):
                        cur = bp
                        for i in residues:
                            nxt = f_tilde(cur, i, e)
                            if nxt is None:
                                break
                            cur = nxt
                        else:
                            assert induce(bp, a, b, e, negate) == cur
                            grown += 1
                            continue
                        with pytest.raises(ValueError) as err:
                            induce(bp, a, b, e, negate)
                        assert str(err.value) == (
                            f"no cogood node of residue {i % e} on "
                            f"{format_bipartition(cur)} for e={e}")
                        stuck += 1
    assert grown and stuck


def test_mullineux_is_braces_on_column_labels():
    from bihooks.schur import pieri_factors
    for e in (2, 3, 4):
        for total in range(2, 6):
            for j in range(1, total // 2 + 1):
                for mu in pieri_factors(total - j, j):
                    lab = scrt(mu, e)
                    assert mullineux(lab, e) == braces(lab, e)
