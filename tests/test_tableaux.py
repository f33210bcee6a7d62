import pytest

from bihooks.laurent import LaurentPoly, ONE
from bihooks.partitions import bipartitions, remove_node, removable_nodes
from bihooks.structure import family_shape
from bihooks.tableaux import (
    Tableau, codegree, column_initial_tableau, count_standard, gg_word,
    graded_dimension, graded_dimension_by_enumeration, is_standard,
    node_degree, peel_degrees, residue_sequence, standard_tableaux,
    word_graded_dimension,
)


def test_enumeration_counts():
    assert len(standard_tableaux(((1,), (1,)))) == 2
    assert len(standard_tableaux(((2,), (2,)))) == 6
    assert len(standard_tableaux(((2, 1), ()))) == 2


def test_enumeration_matches_recursive_count():
    for n in range(0, 8):
        for shape in bipartitions(n):
            ts = standard_tableaux(shape)
            assert len(ts) == count_standard(shape)
            assert all(is_standard(t) for t in ts)
            assert len({t.rows for t in ts}) == len(ts)


def test_binomial_count_for_one_row_shapes():
    from math import comb
    for e in (2, 3):
        for k in (1, 2):
            for j in (1, 2):
                shape = family_shape(k, j, e)
                assert count_standard(shape) == comb((k + j) * e, j * e)


def test_column_initial_examples():
    t = column_initial_tableau(((2,), (2,)))
    assert t.rows == (((3, 4),), ((1, 2),))
    assert column_initial_tableau(((), ())).rows == ((), ())
    t3 = column_initial_tableau(((3,), (3,)))
    assert t3.rows[1] == ((1, 2, 3),)
    # columns are read top to bottom, left to right, component 2 first
    t4 = column_initial_tableau(((2, 1), (1, 1)))
    assert t4.rows == (((3, 5), (4,)), ((1,), (2,)))


def test_residue_sequences():
    t = column_initial_tableau(((2,), (2,)))
    assert residue_sequence(t, 2) == (0, 1, 0, 1)
    t = column_initial_tableau(((), (1,)))
    assert residue_sequence(t, 4) == (0,)
    for e in (2, 3, 4):
        t = column_initial_tableau(((e,), (e,)))
        assert residue_sequence(t, e) == tuple(range(e)) + tuple(range(e))


def test_degree_codegree_base_cases():
    empty = column_initial_tableau(((), ()))
    assert codegree(empty, 3) == 0
    bad = Tableau(((2,), ()), (((2, 1),), ()))
    with pytest.raises(ValueError):
        codegree(bad, 2)


def test_codegree_of_column_initial_tableaux():
    # codeg of the column-initial tableau of ((je),(ke)) is k
    for e in (2, 3):
        for j in (1, 2):
            for k in (1, 2, 3):
                t = column_initial_tableau(family_shape(j, k, e))
                assert codegree(t, e) == k


def test_peel_degrees_match_node_degree():
    for e in (2, 3, 4):
        for n in range(0, 9):
            for shape in bipartitions(n):
                table = peel_degrees(shape, e)
                assert list(table) == removable_nodes(shape)
                for node, entry in table.items():
                    assert entry == (remove_node(shape, node),
                                     node_degree(shape, node, e))
    with pytest.raises(ValueError):
        peel_degrees(((1,), ()), 1)


def _reference_codegree(t, e):
    """Peel the largest entry first, one node_degree call per node."""
    node_of = t.node_map()
    shape, total = t.shape, 0
    for r in range(t.n, 0, -1):
        total += node_degree(shape, node_of[r], e)
        shape = remove_node(shape, node_of[r])
    return total


def test_statistics_match_reference_peel():
    for e in (2, 3):
        for n in range(0, 7):
            for shape in bipartitions(n):
                for t in standard_tableaux(shape):
                    assert codegree(t, e) == _reference_codegree(t, e)
                    # a node map the caller built serves the same statistic
                    node_of = t.node_map()
                    assert codegree(t, e, node_of) == codegree(t, e)
                    assert residue_sequence(t, e, node_of) == \
                        residue_sequence(t, e)


def test_graded_dimension_routes_agree():
    for e in (2, 3):
        for n in range(0, 7):
            for shape in bipartitions(n):
                assert graded_dimension(shape, e) == \
                    graded_dimension_by_enumeration(shape, e)


def test_graded_dimension_examples():
    assert graded_dimension(((), ()), 2) == ONE
    gd = graded_dimension(((2,), (2,)), 2)
    assert gd.at_one() == 6
    assert gd == LaurentPoly({-1: 1, 1: 4, 3: 1})


def test_word_graded_dimension():
    shape = ((2,), (2,))
    word = residue_sequence(column_initial_tableau(shape), 2)
    assert word_graded_dimension(shape, word, 2) == LaurentPoly({1: 2})
    assert word_graded_dimension(shape, (0, 0, 1, 1), 2) == \
        LaurentPoly({-1: 1, 1: 2, 3: 1})
    with pytest.raises(ValueError):
        word_graded_dimension(shape, (0, 1), 2)
    # the column-initial word always contributes
    for e in (2, 3):
        for n in range(1, 6):
            for shape in bipartitions(n):
                w = residue_sequence(column_initial_tableau(shape), e)
                assert word_graded_dimension(shape, w, e)


def test_gg_word():
    assert gg_word((2,), 2) == (0, 0, 1, 1)
    assert gg_word((1, 1), 3) == (0, 1, 2, 0, 1, 2)
    with pytest.raises(ValueError):
        gg_word((1, 0), 2)


def test_size_bound():
    with pytest.raises(ValueError):
        standard_tableaux((((30,), ())), bound=25)

