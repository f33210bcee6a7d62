import hashlib
import math
import re
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from bihooks import tableaux
from bihooks.laurent import LaurentPoly, ONE
from bihooks.partitions import (
    all_nodes, bipartitions, remove_node, removable_nodes, size,
)
from bihooks.structure import family_shape
from bihooks.tableaux import (
    Tableau, codegree, column_initial_tableau, count_standard,
    gg_word, graded_dimension, graded_dimension_by_enumeration, node_degree,
    packed_graded_dimension, peel_degrees, residue_sequence, standard_tableaux,
    v_tableau, word_codegree_counts, word_graded_dimension, word_graded_dimensions,
)


def test_enumeration_counts():
    assert len(standard_tableaux(((1,), (1,)))) == 2
    assert len(standard_tableaux(((2,), (2,)))) == 6
    assert len(standard_tableaux(((2, 1), ()))) == 2


# sha256 of str(t) and t.rows of every standard tableau with n <= 7, in
# enumeration order, recorded when a tableau stored its rows of entries
TABLEAU_TEXT_GOLDEN = (
    "a510c48260570de8d7c5f93693e36c2df7e7772cd87203e02df45593e611794d")


def test_tableau_text_pinned():
    h = hashlib.sha256()
    count = 0
    for n in range(8):
        for shape in bipartitions(n):
            for t in standard_tableaux(shape):
                h.update(f"{t}\n{t.rows!r}\n".encode())
                count += 1
    assert count == 8313
    assert h.hexdigest() == TABLEAU_TEXT_GOLDEN


def test_enumeration_matches_recursive_count():
    for n in range(0, 8):
        for shape in bipartitions(n):
            ts = standard_tableaux(shape)
            assert len(ts) == count_standard(shape)
            assert all(_reference_is_standard(t) for t in ts)
            assert len({t.rows for t in ts}) == len(ts)


def _reference_is_standard(t):
    """The definition, over cells {node: entry}: the path visits each node
    of the shape once and no other node, and each entry is smaller than
    its right and its lower neighbour in the same component."""
    cells = {node: k for k, node in enumerate(t.nodes, start=1)}
    if len(cells) != len(t.nodes) or set(cells) != set(all_nodes(t.shape)):
        return False
    return all(k < cells.get((r, c + 1, m), k + 1)
               and k < cells.get((r + 1, c, m), k + 1)
               for (r, c, m), k in cells.items())


@st.composite
def fillings(draw):
    """A bipartition with at most 6 boxes and a node path for it: a
    standard tableau's or a permutation of the shape's nodes, then perhaps
    one fault (two entries swapped, a node repeated, a node outside the
    shape in place of one, or a node dropped or added)."""
    shape = draw(st.sampled_from([bp for n in range(7) for bp in bipartitions(n)]))
    n = size(shape)
    if draw(st.booleans()):
        path = list(draw(st.sampled_from(standard_tableaux(shape))).nodes)
    else:
        path = draw(st.permutations(all_nodes(shape)))
    inside = set(path)
    # row 0 and component 3 are outside every shape
    outside = st.sampled_from([(r, c, m) for m in (1, 2, 3) for r in range(5)
                               for c in range(1, 5) if (r, c, m) not in inside])
    fault = draw(st.sampled_from(["none", "swap", "repeat", "outside", "drop",
                                  "add"]))
    if fault in ("swap", "repeat") and n >= 2:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        if fault == "repeat":
            path[i] = path[j]
        else:
            path[i], path[j] = path[j], path[i]
    elif fault == "outside" and n:
        path[draw(st.integers(0, n - 1))] = draw(outside)
    elif fault == "drop" and n:
        del path[draw(st.integers(0, n - 1))]
    elif fault == "add":
        path.insert(draw(st.integers(0, n)), draw(outside))
    return Tableau(shape, tuple(path))


@settings(max_examples=400, deadline=None)
@given(fillings())
def test_codegree_refuses_exactly_the_paths_that_are_not_standard(t):
    # the peel is codegree's standardness check; ValueError is its only
    # refusal, whatever the fault, and its text draws the path
    try:
        codegree(t, 2)
    except ValueError as err:
        assert not _reference_is_standard(t)
        assert str(err) == f"tableau is not standard: {t}"
    else:
        assert _reference_is_standard(t)


def test_word_filter_matches_filtered_enumeration():
    for e in (2, 3):
        for n in range(0, 7):
            for shape in bipartitions(n):
                full = standard_tableaux(shape)
                seqs = [residue_sequence(t, e) for t in full]
                words = list(dict.fromkeys(seqs))
                for w in words:
                    want = [t for t, seq in zip(full, seqs) if seq == w]
                    assert standard_tableaux(shape, word=w, e=e) == want
                    # shifted by e, the word is refused, not read mod e
                    if n:
                        with pytest.raises(ValueError,
                                           match=f"0..{e - 1} for e={e}$"):
                            standard_tableaux(shape, word=[x + e for x in w], e=e)
                # a word that no tableau has (none exists when n == 0)
                absent = next((w for w in product(range(e), repeat=n)
                               if w not in words), None)
                if absent is not None:
                    assert standard_tableaux(shape, word=absent, e=e) == []


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
    # 2 left of 1 in the one row
    bad = Tableau(((2,), ()), ((1, 2, 1), (1, 1, 1)))
    with pytest.raises(ValueError, match="not standard"):
        codegree(bad, 2)
    # a node outside the shape is reported, not an IndexError
    for node in ((1, 3, 1), (2, 1, 1), (1, 1, 2)):
        outside = Tableau(((2,), ()), ((1, 1, 1), node))
        with pytest.raises(ValueError, match="not standard"):
            codegree(outside, 2)
    # a box the path leaves empty is drawn as ".", and a path whose nodes
    # are not each a box of the shape, once, is written out after the rows
    assert str(Tableau(((2,), ()), ((1, 2, 1),))) == "[.,1]|[]"
    assert Tableau(((2,), ()), ((1, 2, 1),)).rows == (((None, 1),), ())
    for node in ((1, 1, 3), (1, 1, 0), (0, 1, 1), (1, 0, 2), (1, 2, 1)):
        off = Tableau(((1,), ()), (node,))
        assert off.rows == (((None,),), ())
        with pytest.raises(ValueError, match=re.escape(
                f"not standard: [.]|[] with nodes ({node},)")):
            codegree(off, 2)
    off = Tableau(((2,), ()), ((1, 1, 1), (0, 2, 1), (1, 2, 3)))
    assert str(off) == "[1,.]|[] with nodes ((1, 1, 1), (0, 2, 1), (1, 2, 3))"
    # a box filled twice shows its first entry
    twice = Tableau(((2,), ()), ((1, 1, 1), (1, 1, 1)))
    assert str(twice) == "[1,.]|[] with nodes ((1, 1, 1), (1, 1, 1))"
    with pytest.raises(ValueError, match=re.escape(f"not standard: {twice}")):
        codegree(twice, 2)
    both = Tableau(((2,), ()), ((0, 1, 1), (1, 3, 1), (1, 1, 1), (1, 1, 1)))
    assert str(both) == ("[3,.]|[] with nodes ((0, 1, 1), (1, 3, 1), "
                         "(1, 1, 1), (1, 1, 1))")
    # a shape that is not a bipartition is refused, though this path
    # peels it to empty
    bad_shape = Tableau(((1, 2), ()), ((1, 1, 1), (2, 1, 1), (2, 2, 1)))
    with pytest.raises(ValueError, match=r"^tableau is not standard: \[1/2,3\]\|\[\]$"):
        codegree(bad_shape, 2)


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
    shape, total = t.shape, 0
    for node in reversed(t.nodes):
        total += node_degree(shape, node, e)
        shape = remove_node(shape, node)
    return total


def test_statistics_match_reference_peel():
    for e in (2, 3):
        for n in range(0, 7):
            for shape in bipartitions(n):
                for t in standard_tableaux(shape):
                    assert codegree(t, e) == _reference_codegree(t, e)


def test_word_codegree_counts_match_enumeration(cyclic_garbage):
    # the walk over partial fillings counts what the tableaux give, at
    # every e of one call, in the order given
    es = (2, 3, 4)
    for n in range(0, 8):
        for lam in bipartitions(n):
            ts = standard_tableaux(lam)
            want = [Counter((residue_sequence(t, e), codegree(t, e)) for t in ts)
                    for e in es]
            assert word_codegree_counts(lam, es) == want
    # es is read once: an iterator gives what the tuple gives
    lam = family_shape(2, 1, 3)
    assert word_codegree_counts(lam, iter((3, 2))) == \
        word_codegree_counts(lam, (3, 2))
    assert cyclic_garbage(lambda: word_codegree_counts(lam, es)) == 0
    with pytest.raises(ValueError, match="exceeds bound 25"):
        word_codegree_counts(((26,), ()), (2,))
    with pytest.raises(ValueError):
        word_codegree_counts(lam, (2, 1))


def test_walk_reads_node_degree_by_name(monkeypatch):
    # a miss of the walk's degree memo calls the module's node_degree, so
    # a patch of it (a tracer's, say) sees every degree the walk computes
    seen = []

    def counted(*args):
        seen.append(args)
        return node_degree(*args)
    tableaux._node_degree.cache_clear()
    monkeypatch.setattr(tableaux, "node_degree", counted)
    counts = word_codegree_counts(((2, 1), (1,)), (2,))
    assert seen and sum(counts[0].values()) == 8


def test_graded_dimension_routes_agree():
    for e in (2, 3):
        for n in range(0, 7):
            for shape in bipartitions(n):
                assert graded_dimension(shape, e) == \
                    graded_dimension_by_enumeration(shape, e)


def unpack(low, value, w):
    """The polynomial whose coefficients are the 2^w-adic digits of value,
    the first at exponent low."""
    terms, digit = {}, (1 << w) - 1
    while value:
        if value & digit:
            terms[low] = value & digit
        value >>= w
        low += 1
    return LaurentPoly(terms)


def test_packed_graded_dimension_unpacks_to_the_peel():
    # at w = 64, and at the narrowest w whose digits hold n!, the bound
    # on every coefficient that the balance of verify rests on
    for e in (2, 3, 4, 5):
        for n in range(0, 11):
            for w in (64, math.factorial(n).bit_length()):
                for shape in bipartitions(n):
                    low, value = packed_graded_dimension(shape, e, w)
                    gd = unpack(low, value, w)
                    assert gd == graded_dimension(shape, e), (shape, e, w)
                    assert low == gd.min_exp()
                    assert gd.at_one() == count_standard(shape) <= math.factorial(n)


def test_packed_graded_dimension_is_exact_at_any_width():
    # the value is the graded dimension at q = 2^w even where digits carry
    shape = ((3, 2), (2, 1))
    gd = graded_dimension(shape, 2)
    for w in (1, 2, 3, 64):
        low, value = packed_graded_dimension(shape, 2, w)
        assert value == sum(c << w * (k - low) for k, c in gd.iter_terms())


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


def test_word_graded_dimensions_match_word_filter():
    # each word's value is q^codegree summed over the tableaux the word
    # filter gives; the words come unsorted and repeated, and a word that
    # no tableau has gives 0
    for e in (2, 3):
        for n in range(0, 7):
            for shape in bipartitions(n):
                words = sorted({residue_sequence(t, e)
                                for t in standard_tableaux(shape)}, reverse=True)
                asked = words + words[:2]
                absent = next((w for w in product(range(e), repeat=n)
                               if w not in words), None)
                if absent is not None:
                    asked.insert(len(words) // 2, absent)
                want = [sum((LaurentPoly.q_power(codegree(t, e)) for t in
                             standard_tableaux(shape, word=w, e=e)), LaurentPoly())
                        for w in asked]
                assert word_graded_dimensions(shape, asked, e) == want
                if absent is not None:
                    assert not word_graded_dimension(shape, absent, e)
                # a letter outside 0..e-1 is refused, not read mod e
                if n:
                    with pytest.raises(ValueError, match=f"0..{e - 1} for e={e}$"):
                        word_graded_dimensions(
                            shape, [tuple(x + e for x in w) for w in asked], e)
    with pytest.raises(ValueError, match="word length 3 != size 4"):
        word_graded_dimensions(((2,), (2,)), [(0, 1, 0, 1), (0, 1, 0)], 2)


def test_gg_word():
    assert gg_word((2,), 2) == (0, 0, 1, 1)
    assert gg_word((1, 1), 3) == (0, 1, 2, 0, 1, 2)
    with pytest.raises(ValueError):
        gg_word((1, 0), 2)


def test_size_bound():
    with pytest.raises(ValueError, match="exceeds bound 25"):
        standard_tableaux(((30,), ()))
    # a word prunes the enumeration, so no bound applies: 28 boxes
    shape = ((16,), (12,))
    word = residue_sequence(column_initial_tableau(shape), 4)
    ts = standard_tableaux(shape, word=word, e=4)
    assert len(ts) == word_graded_dimension(shape, word, 4).at_one() == 35


def test_v_tableau():
    assert str(v_tableau(((3,), (2,)), [2, 4])) == "[1,3,5]|[2,4]"
    assert str(v_tableau(((3,), (2,)), [4, 2])) == "[1,3,5]|[2,4]"
    for shape, entries in ((((3,), (2,)), [2, 2]),    # repeated entry
                           (((3,), (2,)), [0, 4]),    # out of range
                           (((3,), (2,)), [2, 6]),
                           (((3,), (2,)), [2]),       # too few
                           (((2, 1), (2,)), [2, 4])):  # two-row component
        with pytest.raises(ValueError):
            v_tableau(shape, entries)


def test_recursions_leave_no_cycles(cyclic_garbage):
    # a nested function calling itself is a closure cycle: it would hold
    # its memo or its results until the cycle collector ran
    lam = family_shape(2, 1, 2)
    words = sorted({residue_sequence(t, 2) for t in standard_tableaux(lam)})
    assert cyclic_garbage(lambda: word_graded_dimensions(lam, words, 2)) == 0
    assert cyclic_garbage(lambda: word_graded_dimension(lam, words[0], 3)) == 0
    assert cyclic_garbage(lambda: standard_tableaux(lam)) == 0
