"""Integer Laurent polynomials in q, with the bar involution q <-> q^-1.

Coefficients are arbitrary-precision Python ints, so elimination over
these rings can never overflow.  ``dot`` is the one sum of products of
polynomials; the dimension balance of ``verify`` sums its products as
ints instead, each polynomial evaluated at q = 2^w for a w it proves.
Text form sorts exponents upwards, e.g. ``q^-2 + 2 + q^2``; the JSON
form is the sorted list of ``[exponent, coefficient]`` pairs.
"""


class LaurentPoly:
    """Finitely supported map exponent -> nonzero integer coefficient."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        d = {}
        if coeffs:
            items = coeffs.items() if hasattr(coeffs, "items") else coeffs
            for k, v in items:
                v = int(v)
                if v:
                    d[int(k)] = d.get(int(k), 0) + v
        self._c = {k: v for k, v in d.items() if v}

    @classmethod
    def _raw(cls, d: dict) -> "LaurentPoly":
        # trusted constructor: d has no zero values and is immutable from
        # here on, so it may be shared
        obj = object.__new__(cls)
        obj._c = d
        return obj

    @classmethod
    def q_power(cls, k: int) -> "LaurentPoly":
        return cls._raw({int(k): 1})

    def coeff(self, k: int) -> int:
        return self._c.get(k, 0)

    def items(self):
        return sorted(self._c.items())

    def iter_terms(self):
        """Unsorted (exponent, coefficient) pairs; cheap inner-loop access."""
        return self._c.items()

    def __bool__(self):
        return bool(self._c)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        # a constant equals its int, so it hashes as one
        if self._c.keys() <= {0}:
            return hash(self._c.get(0, 0))
        return hash(frozenset(self._c.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        d = dict(self._c)
        for k, v in other._c.items():
            nv = d.get(k, 0) + v
            if nv:
                d[k] = nv
            else:
                d.pop(k, None)
        return LaurentPoly._raw(d)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw({k: -v for k, v in self._c.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return ZERO
            return LaurentPoly._raw({k: v * other for k, v in self._c.items()})
        return dot(((self, other),))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined here")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by q^k."""
        if not k:
            return self
        return LaurentPoly._raw({e + k: v for e, v in self._c.items()})

    def bar(self) -> "LaurentPoly":
        """The bar involution, swapping q and q^-1."""
        return LaurentPoly._raw({-k: v for k, v in self._c.items()})

    def is_bar_invariant(self) -> bool:
        return all(self._c.get(-k, 0) == v for k, v in self._c.items())

    def in_q_window(self) -> bool:
        """True when the polynomial lies in q.Z[q]."""
        return not self._c or min(self._c) >= 1

    def has_nonneg_coeffs(self) -> bool:
        return all(v >= 0 for v in self._c.values())

    def bar_closure(self) -> "LaurentPoly":
        """The unique bar-invariant polynomial congruent to self mod q.Z[q].

        Determined by the coefficients in degrees <= 0."""
        d = {}
        for k, v in self._c.items():
            if k == 0:
                d[0] = d.get(0, 0) + v
            elif k < 0:
                d[k] = d.get(k, 0) + v
                d[-k] = d.get(-k, 0) + v
        return LaurentPoly({k: v for k, v in d.items() if v})

    def min_exp(self) -> int:
        return min(self._c)

    def max_exp(self) -> int:
        return max(self._c)

    def at_one(self) -> int:
        return sum(self._c.values())

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division in Z[q, q^-1]; raises ValueError when not exact."""
        if not other:
            raise ZeroDivisionError("division by zero polynomial")
        if not self:
            return ZERO
        smin, omin = self.min_exp(), other.min_exp()
        a = [self.coeff(k) for k in range(smin, self.max_exp() + 1)]
        b = [other.coeff(k) for k in range(omin, other.max_exp() + 1)]
        if len(a) < len(b):
            raise ValueError("not divisible")
        rem = a[:]
        quo = [0] * (len(a) - len(b) + 1)
        lead = b[-1]
        for i in range(len(quo) - 1, -1, -1):
            c = rem[i + len(b) - 1]
            if c % lead:
                raise ValueError("not divisible")
            t = c // lead
            quo[i] = t
            if t:
                for j, bv in enumerate(b):
                    rem[i + j] -= t * bv
        if any(rem):
            raise ValueError("not divisible")
        base = smin - omin
        return LaurentPoly({base + i: v for i, v in enumerate(quo) if v})

    def to_pairs(self) -> list[list[int]]:
        return [[k, v] for k, v in self.items()]

    @classmethod
    def from_pairs(cls, pairs) -> "LaurentPoly":
        """The inverse of ``to_pairs``, the sum of c*q^k over [k, c] pairs in
        any order: ``ValueError`` unless every k and c is an int (neither a
        bool nor a float), every c is nonzero and no k repeats."""
        d = {}
        for k, c in pairs:
            if type(k) is not int or type(c) is not int or not c or k in d:
                raise ValueError(f"pair {[k, c]!r} of {pairs!r} is not one of to_pairs")
            d[k] = c
        return cls._raw(d)

    def __str__(self):
        if not self._c:
            return "0"
        chunks = []
        for k, v in self.items():
            if k == 0:
                body = str(abs(v))
            else:
                base = "q" if k == 1 else f"q^{k}"
                body = base if abs(v) == 1 else f"{abs(v)}*{base}"
            chunks.append(("-" if v < 0 else "+", body))
        sign, body = chunks[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in chunks[1:]:
            text += f" {sign} {body}"
        return text

    __repr__ = __str__


ZERO = LaurentPoly._raw({})
ONE = LaurentPoly._raw({0: 1})


def dot(pairs) -> LaurentPoly:
    """The sum of a*b over (a, b) pairs, in one dict with the zeros dropped
    at the end.  The loops of ``fock._apply_divided``/``_eliminate`` (a
    mutable slot updated in place) and ``tableaux.graded_dimension``/
    ``_word_peel`` (shifted dicts added, not products) stay inline, and
    ``verify._llt_matrix_checks`` multiplies evaluations at q = 2^w, since
    it compares the sums and needs no coefficient of them."""
    acc: dict[int, int] = {}
    for a, b in pairs:
        terms = b._c.items()
        for ka, va in a._c.items():
            for kb, vb in terms:
                k = ka + kb
                acc[k] = acc.get(k, 0) + va * vb
    return LaurentPoly._raw({k: v for k, v in acc.items() if v})


def quantum_integer(n: int) -> LaurentPoly:
    """[n] = q^-(n-1) + q^-(n-3) + ... + q^(n-1); [0] = 0."""
    if n < 0:
        raise ValueError("quantum integer of a negative number")
    return LaurentPoly({k: 1 for k in range(-(n - 1), n, 2)})


def quantum_factorial(n: int) -> LaurentPoly:
    """[n]! = [1][2]...[n], with [0]! = 1."""
    if n < 0:
        raise ValueError("quantum factorial of a negative number")
    out = ONE
    for m in range(2, n + 1):
        out = out * quantum_integer(m)
    return out


def c_factor(nu, e: int) -> LaurentPoly:
    """([nu_1]! ... [nu_a]!)^e for a composition nu with positive parts."""
    if any(part < 1 for part in nu):
        raise ValueError(f"composition parts must be >= 1, got {tuple(nu)}")
    prod = ONE
    for part in nu:
        prod = prod * quantum_factorial(part)
    return prod ** e
