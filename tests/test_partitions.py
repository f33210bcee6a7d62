import pytest
from hypothesis import given, strategies as st

from bihooks.partitions import (
    EMPTY_BP, add_node, addable_nodes, as_partition, bipartitions, conjugate,
    conjugate_partition, dominance_ids, dominance_key, dominance_keys, dominates,
    format_bipartition, hook_length, is_bihook, key_dominates,
    parse_bipartition, removable_nodes, remove_node, residue, signed_nodes,
    size, undominated,
)


@st.composite
def partition_st(draw, max_size=10):
    n = draw(st.integers(min_value=0, max_value=max_size))
    parts = draw(st.lists(st.integers(min_value=1, max_value=6),
                          min_size=0, max_size=n))
    return tuple(sorted(parts, reverse=True))


@st.composite
def bipartition_st(draw, max_size=8):
    return (draw(partition_st(max_size)), draw(partition_st(max_size)))


def test_as_partition_strips_and_validates():
    assert as_partition([3, 2, 0, 0]) == (3, 2)
    with pytest.raises(ValueError):
        as_partition([1, 2])


def test_as_partition_names_a_consumed_input():
    # a generator is read once: the message names all of it, not what
    # the check left unread
    with pytest.raises(ValueError, match=r"decreasing: \(1, 2, 0\)$"):
        as_partition(x for x in (1, 2, 0))
    assert as_partition(x for x in (3, 2, 0)) == (3, 2)


def test_conjugate_examples():
    assert conjugate(EMPTY_BP) == EMPTY_BP
    assert conjugate_partition((2, 1)) == (2, 1)
    assert conjugate(((3,), (1, 1))) == ((2,), (1, 1, 1))


@given(bipartition_st())
def test_conjugate_involution(bp):
    assert conjugate(conjugate(bp)) == bp


@given(partition_st(max_size=20))
def test_conjugate_partition_counts_parts_per_column(p):
    # column i holds one box of every part of length at least i
    want = tuple(sum(1 for part in p if part >= i)
                 for i in range(1, p[0] + 1)) if p else ()
    assert conjugate_partition(p) == want


def test_dominance_examples():
    assert dominates(((2,), ()), ((1,), (1,)))
    assert not dominates(((1,), (1,)), ((2,), ()))
    with pytest.raises(ValueError):
        dominates(((2,), ()), ((1,), ()))


@given(bipartition_st(max_size=5))
def test_dominance_reflexive_and_key(bp):
    assert dominates(bp, bp)
    n = size(bp)
    key = dominance_key(bp)
    assert key[n - 1] == sum(bp[0]) if n else True
    assert len(key) == 2 * n


def test_residue_examples():
    assert residue((1, 3, 1), 4) == 2
    assert residue((1, 1, 2), 5) == 0
    assert residue((2, 1, 2), 3) == 2


def test_residue_depends_on_diagonal():
    for e in (2, 3, 4):
        for r in range(1, 5):
            for c in range(1, 5):
                assert residue((r, c, 1), e) == residue((r + e, c + e, 2), e) \
                    == (c - r) % e


def test_hook_length_examples():
    assert hook_length((2, 2, 1, 1), 1, 1) == 5
    assert hook_length((2, 2, 1, 1), 2, 2) == 1
    assert hook_length((1,), 1, 1) == 1
    with pytest.raises(ValueError):
        hook_length((2, 1), 1, 3)


def test_addable_removable_examples():
    assert addable_nodes(EMPTY_BP) == [(1, 1, 1), (1, 1, 2)]
    assert removable_nodes(((1,), (1,))) == [(1, 1, 1), (1, 1, 2)]
    assert removable_nodes(((3, 1), (2,))) == [(1, 3, 1), (2, 1, 1), (1, 2, 2)]


def test_signed_nodes_match_definition():
    # a node is addable when one more box in its row, and removable when
    # one box fewer, leaves the padded rows weakly decreasing
    def decreasing(rows):
        return all(a >= b for a, b in zip(rows, rows[1:]))

    for n in range(0, 10):
        for bp in bipartitions(n):
            want = []
            for m in (1, 2):
                rows = list(bp[m - 1]) + [0]
                for r, length in enumerate(rows, start=1):
                    grown, shrunk = rows.copy(), rows.copy()
                    grown[r - 1] += 1
                    shrunk[r - 1] -= 1
                    if decreasing(grown):
                        want.append((1, (r, length + 1, m)))
                    if length and decreasing(shrunk):
                        want.append((-1, (r, length, m)))
            assert signed_nodes(bp) == want
            assert addable_nodes(bp) == [a for s, a in want if s == 1]
            assert removable_nodes(bp) == [a for s, a in want if s == -1]


def test_dominance_keys_table():
    for n in range(0, 18):
        table = dominance_keys(n)
        assert list(table) == sorted(bipartitions(n), key=dominance_key,
                                     reverse=True)
        assert dominance_keys(n) is table
        assert list(dominance_ids(n).items()) == [(bp, k) for k, bp in enumerate(table)]
        with pytest.raises(TypeError):
            table[EMPTY_BP] = 0


def test_dominance_codes_pack_the_keys():
    # the field width w grows at n = 2, 4, 8 and 16
    for n in range(0, 18):
        codes = dominance_keys(n)
        w = n.bit_length() + 1
        assert codes == {bp: sum(x << ((2 * n - 1 - k) * w)
                                 for k, x in enumerate(dominance_key(bp)))
                         for bp in bipartitions(n)}
        assert list(codes.values()) == sorted(codes.values(), reverse=True)


def _packed_dominates(lam, mu):
    """The packed test of ``undominated``, one pair at a time, on labels
    and on ids."""
    n = size(lam)
    codes, ids = dominance_keys(n), dominance_ids(n)
    by_id = tuple(codes.values())
    by_label = undominated(lam, [mu], codes, n) == []
    assert undominated(ids[lam], [ids[mu]], by_id, n) == ([] if by_label else [ids[mu]])
    return by_label


def test_packed_dominance_matches_keys_small():
    for n in range(0, 9):
        bps = bipartitions(n)
        for lam in bps:
            assert undominated(lam, bps, dominance_keys(n), n) == [
                mu for mu in bps
                if not key_dominates(dominance_key(lam), dominance_key(mu))]
            for mu in bps:
                assert _packed_dominates(lam, mu) == key_dominates(
                    dominance_key(lam), dominance_key(mu)), (lam, mu)


@st.composite
def edge_pair_st(draw):
    """(n, lam, mu) at n = 7 or 15, whose keys fill their fields up to the
    guard bit, or 8 or 16, which widen them; mu is either any bipartition
    or lam with one box moved, so most pairs are comparable."""
    n = draw(st.sampled_from((7, 8, 15, 16)))
    lam = draw(st.sampled_from(bipartitions(n)))
    if draw(st.booleans()):
        return n, lam, draw(st.sampled_from(bipartitions(n)))
    box = draw(st.sampled_from(removable_nodes(lam)))
    rest = remove_node(lam, box)
    return n, lam, add_node(rest, draw(st.sampled_from(addable_nodes(rest))))


@given(edge_pair_st())
def test_packed_dominance_matches_keys_at_field_edges(case):
    n, lam, mu = case
    for a, b in ((lam, mu), (mu, lam), (lam, lam)):
        assert _packed_dominates(a, b) == key_dominates(dominance_key(a),
                                                        dominance_key(b))


@given(bipartition_st(max_size=6))
def test_addable_nodes_grow_valid_shapes(bp):
    for node in addable_nodes(bp):
        grown = add_node(bp, node)
        assert size(grown) == size(bp) + 1
        assert as_partition(grown[0]) == grown[0]
        assert as_partition(grown[1]) == grown[1]


def test_is_bihook():
    assert is_bihook(((3, 1, 1), (2,)))
    assert is_bihook(((1,), (1,)))
    assert not is_bihook(((2, 2), (1,)))
    assert not is_bihook(((3,), ()))


def test_text_round_trip():
    cases = ["21|15", "6,1|3", "15|-", "-|-", "4,1|3"]
    for text in cases:
        assert format_bipartition(parse_bipartition(text)) == text
    with pytest.raises(ValueError):
        parse_bipartition("1,2|3")
    with pytest.raises(ValueError):
        parse_bipartition("3|0")


def test_bipartition_count():
    # sum over a of p(a) p(n-a)
    assert len(bipartitions(4)) == 20
    assert len(bipartitions(0)) == 1
