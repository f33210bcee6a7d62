import pytest

from bihooks.partitions import partitions
from bihooks.schur import (
    composition_multiset, decomp_number, exterior_weight_dim, henke_summand,
    kostka, kostka_two_column, num_summands, pieri_factors,
    simultaneous_irreducibility, two_column, weyl_is_irreducible,
)
from bihooks.schur import _horizontal_strips


def test_weyl_irreducibility_examples():
    for p in (2, 3, 5):
        for n in (3, 5, 8):
            assert weyl_is_irreducible((1,) * n, p)
    # (2, 1^(k-1)) reducible iff p | k+1
    for p in (2, 3, 5):
        for k in range(1, 12):
            assert weyl_is_irreducible(two_column(1, k + 1), p) == ((k + 1) % p != 0)
    # (2^2, 1^(n-4)) at p=2 irreducible iff n = 3 mod 4
    for n in range(4, 20):
        assert weyl_is_irreducible(two_column(2, n), 2) == (n % 4 == 3)
    assert weyl_is_irreducible((5, 3, 1), 0)


def test_simultaneous_irreducibility_examples():
    assert simultaneous_irreducibility(9, 2, 5)
    for n in range(2, 12):
        assert simultaneous_irreducibility(n, 1, 2) == (n % 2 == 1)
    for n in range(6, 20):
        assert not simultaneous_irreducibility(n, 3, 2)
    assert simultaneous_irreducibility(8, 2, 0)


def test_decomp_number_examples():
    assert decomp_number(3, 3, 10, 7) == 1
    assert decomp_number(2, 0, 10, 3) == 1
    assert decomp_number(3, 0, 10, 3) == 0
    assert decomp_number(1, 2, 10, 3) == 0
    assert decomp_number(2, 2, 9, 0) == 1
    assert decomp_number(3, 1, 9, 0) == 0


def test_pieri_factors():
    assert pieri_factors(7, 3) == [
        (1,) * 10, (2,) + (1,) * 8, (2, 2) + (1,) * 6, (2, 2, 2) + (1,) * 4]
    assert pieri_factors(1, 1) == [(1, 1), (2,)]
    for k in range(1, 7):
        for j in range(1, k + 1):
            assert len(pieri_factors(k, j)) == j + 1
    with pytest.raises(ValueError):
        pieri_factors(2, 3)


def test_henke_examples():
    for p in (2, 3, 5):
        for n in range(4, 12):
            for j in range(n // 2 + 1):
                if j >= 1:
                    assert henke_summand(n, j, j, p)
    assert not henke_summand(6, 2, 1, 2)
    assert not henke_summand(4, 2, 0, 2)
    assert henke_summand(10, 3, 1, 3)
    assert not henke_summand(10, 3, 0, 3)


def test_num_summands_examples():
    assert num_summands(4, 2, 0) == 3
    assert num_summands(7, 5, 0) == 6
    assert num_summands(4, 2, 2) == 2
    assert num_summands(2, 2, 2) == 1
    assert num_summands(7, 3, 3) == 2


def test_composition_multiset_worked_case():
    counts = composition_multiset(7, 3, 3)
    assert counts == {
        (1,) * 10: 2,
        (2,) + (1,) * 8: 1,
        (2, 2) + (1,) * 6: 2,
        (2, 2, 2) + (1,) * 4: 1,
    }
    # characteristic zero: each filtration shape exactly once
    assert composition_multiset(4, 2, 0) == {sh: 1 for sh in pieri_factors(4, 2)}
    # p = 2, k = 4, j = 2: six factors
    assert sum(composition_multiset(4, 2, 2).values()) == 6


def test_kostka():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((2, 2), (2, 2)) == 1
    assert kostka_two_column((2, 1, 1), (2, 1, 1)) == 1
    assert kostka_two_column((1, 1, 1), (1, 1, 1)) == 1
    assert kostka_two_column((2, 2), (1, 1, 1, 1)) == 2
    with pytest.raises(ValueError):
        kostka_two_column((3, 1), (2, 2))


def test_exterior_weight_dim():
    assert exterior_weight_dim(1, 1, (1, 1)) == 2
    assert exterior_weight_dim(1, 1, (2,)) == 1
    assert exterior_weight_dim(1, 2, (3,)) == 0
    assert exterior_weight_dim(2, 2, (2, 1, 1)) == 2


def test_horizontal_strips_match_definition(cyclic_garbage):
    # mu <= lam with at most one box of lam/mu in each column
    for n in range(0, 9):
        for lam in partitions(n):
            want = set()
            for k in range(n + 1):
                for mu in partitions(k):
                    padded = mu + (0,) * (len(lam) - len(mu))
                    if len(padded) == len(lam) and all(
                            b <= a for a, b in zip(lam, padded)) and all(
                            a <= b for a, b in zip(lam[1:], padded)):
                        want.add((mu, n - k))
            got = _horizontal_strips(lam)
            assert len(got) == len(want) and set(got) == want, lam
    assert cyclic_garbage(lambda: _horizontal_strips.__wrapped__((4, 2, 1))) == 0
