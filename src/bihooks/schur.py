"""Classical Schur-algebra facts for two-column shapes.

Everything here lives at level 1 with e = p: irreducibility of Weyl
modules by row-constant hook valuations, the two-column decomposition
numbers by the p-adic zero-or-equal rule, the filtration of a tensor of
exterior powers by two-column Weyl modules, Young-module summand counts
by the p-adic digit rule, and Kostka numbers by brute force.

Characteristic 0 is accepted everywhere as p = 0 and short-circuits all
divisibility: Weyl modules become simple and every Young summand occurs.
"""

from functools import lru_cache
from itertools import combinations, product

from .padic import check_prime_or_zero, leq_p, nu_p, preceq_p
from .partitions import Partition, as_partition, conjugate_partition


def two_column(m: int, n: int) -> Partition:
    """The shape (2^m, 1^(n-2m))."""
    if not 0 <= 2 * m <= n:
        raise ValueError(f"need 0 <= 2m <= n, got m={m}, n={n}")
    return as_partition((2,) * m + (1,) * (n - 2 * m))


def two_column_params(mu: Partition) -> tuple[int, int]:
    """(m, n) with mu = (2^m, 1^(n-2m)); errors on parts > 2."""
    if any(part > 2 for part in mu):
        raise ValueError(f"{mu} is not a two-column partition")
    return (sum(1 for part in mu if part == 2), sum(mu))


def weyl_is_irreducible(lam: Partition, p: int) -> bool:
    """Row-constant p-adic valuation of hook lengths.  True for p = 0."""
    check_prime_or_zero(p)
    if p == 0:
        return True
    conj = conjugate_partition(lam)
    for r, length in enumerate(lam, start=1):
        vals = {nu_p(lam[r - 1] - c + conj[c - 1] - r + 1, p)
                for c in range(1, length + 1)}
        if len(vals) > 1:
            return False
    return True


def simultaneous_irreducibility(n: int, j: int, p: int) -> bool:
    """Whether all of Delta(1^n), Delta(2,1^(n-2)), ..., Delta(2^j,1^(n-2j))
    are irreducible at once."""
    if not n >= 2 * j >= 2:
        raise ValueError(f"need n >= 2j >= 2, got n={n}, j={j}")
    check_prime_or_zero(p)
    if p == 0:
        return True
    if p == 2:
        if j == 1:
            return n % 2 == 1
        if j == 2:
            return n % 4 == 3
        return False
    return all(m % p != 0 for m in range(n - 2 * j + 2, n + 1))


def decomp_number(m: int, j: int, n: int, p: int) -> int:
    """[Delta(2^m,1^(n-2m)) : L(2^j,1^(n-2j))] via the p-adic rule: 1 when
    floor((m-j)/p) is digitwise zero-or-equal into floor((n-2j+1)/p) and p
    divides m-j or n-m-j+1, else 0.  Returns 0 when j > m (unitriangularity),
    and the Kronecker delta at p = 0."""
    if not (0 <= 2 * m <= n and 0 <= 2 * j <= n):
        raise ValueError(f"shapes must fit n={n}: m={m}, j={j}")
    check_prime_or_zero(p)
    if m == j:
        return 1
    if p == 0 or j > m:
        return 0
    if not preceq_p((m - j) // p, (n - 2 * j + 1) // p, p):
        return 0
    return 1 if ((m - j) % p == 0 or (n - m - j + 1) % p == 0) else 0


def check_kj(k: int, j: int):
    if not k >= j >= 1:
        raise ValueError(f"need k >= j >= 1, got k={k}, j={j}")


def pieri_factors(k: int, j: int) -> list[Partition]:
    """Shapes of the filtration of Delta(1^k) (x) Delta(1^j): the j+1
    two-column partitions (2^r, 1^(k+j-2r)), r = 0..j."""
    check_kj(k, j)
    return [two_column(r, k + j) for r in range(j + 1)]


def henke_summand(n: int, j: int, m: int, p: int) -> bool:
    """Whether the Young module for (n-m, m) is a summand of the permutation
    module for (n-j, j): the digit condition j-m <= n-2m base p."""
    if not 0 <= m <= j <= n - j:
        raise ValueError(f"need 0 <= m <= j <= n-j, got n={n}, j={j}, m={m}")
    check_prime_or_zero(p)
    if p == 0:
        return True
    return leq_p(j - m, n - 2 * m, p)


def num_summands(k: int, j: int, p: int) -> int:
    """Number of indecomposable summands, via the Young-module count of the
    permutation module for (k, j)."""
    check_kj(k, j)
    return sum(1 for m in range(j + 1) if henke_summand(k + j, j, m, p))


def composition_multiset(k: int, j: int, p: int) -> dict[Partition, int]:
    """Composition factors (with multiplicity) of Delta(1^k) (x) Delta(1^j),
    summing the decomposition-number columns over the filtration shapes."""
    n = k + j
    out: dict[Partition, int] = {}
    for shape in pieri_factors(k, j):
        m = two_column_params(shape)[0]
        for jj in range(m + 1):
            if decomp_number(m, jj, n, p):
                mu = two_column(jj, n)
                out[mu] = out.get(mu, 0) + 1
    return out


@lru_cache(maxsize=None)
def _horizontal_strips(lam: Partition) -> tuple[tuple[Partition, int], ...]:
    """Partitions mu <= lam with lam/mu a horizontal strip, with strip size."""
    # row r of mu runs from lam[r+1] to lam[r], so it never passes the row
    # above it: every choice is a partition, taken in the order of the
    # nested loops over the rows
    ranges = [range(low, high + 1) for high, low in zip(lam, lam[1:] + (0,))]
    total = sum(lam)
    out = []
    for parts in product(*ranges):
        mu = as_partition(parts)
        out.append((mu, total - sum(mu)))
    return tuple(out)


def kostka(lam: Partition, mu) -> int:
    """Number of semistandard tableaux of shape lam and weight mu, counted
    as chains of horizontal strips."""
    mu = tuple(int(x) for x in mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"|{lam}| != |{tuple(mu)}|")
    weights: dict[Partition, int] = {lam: 1}
    for part in reversed(mu):
        nxt: dict[Partition, int] = {}
        for shape, ways in weights.items():
            for smaller, strip in _horizontal_strips(shape):
                if strip == part:
                    nxt[smaller] = nxt.get(smaller, 0) + ways
        weights = nxt
        if not weights:
            return 0
    return weights.get((), 0)


def kostka_two_column(lam: Partition, mu) -> int:
    two_column_params(lam)
    return kostka(lam, mu)


def exterior_weight_dim(j: int, k: int, mu) -> int:
    """Dimension of the mu weight space of Lambda^j (x) Lambda^k, by brute
    force over pairs of subsets whose indicator vectors sum to mu."""
    mu = tuple(int(x) for x in mu)
    if sum(mu) != j + k:
        raise ValueError(f"weight {mu} has size {sum(mu)} != {j + k}")
    positions = range(1, len(mu) + 1)
    count = 0
    for s in combinations(positions, j):
        for t in combinations(positions, k):
            vec = [0] * len(mu)
            for x in s:
                vec[x - 1] += 1
            for x in t:
                vec[x - 1] += 1
            if tuple(vec) == mu:
                count += 1
    return count
