"""Exact binomials, Gaussian binomials and small finite-field tables.

Counts are exact Python integers.  Finite fields of order q <= 16 are lookup
tables built from fixed irreducible polynomials and checked against the field
axioms at construction time.
"""

from __future__ import annotations

from math import comb as binom  # re-exported; exact for all n >= 0

__all__ = [
    "binom",
    "gauss_binom",
    "FieldTable",
    "field_table",
    "SUPPORTED_Q",
]

# Prime-power orders with a fixed monic irreducible polynomial over the prime
# subfield (ascending coefficients, constant first).  Elements of F_{p^e} are
# encoded as integers 0..q-1 read as base-p digit strings, digit i being the
# coefficient of x^i.
SUPPORTED_Q = {
    2: (2, 1, None),
    3: (3, 1, None),
    4: (2, 2, (1, 1, 1)),  # x^2 + x + 1
    5: (5, 1, None),
    7: (7, 1, None),
    8: (2, 3, (1, 1, 0, 1)),  # x^3 + x + 1
    9: (3, 2, (1, 0, 1)),  # x^2 + 1
    11: (11, 1, None),
    13: (13, 1, None),
    16: (2, 4, (1, 1, 0, 0, 1)),  # x^4 + x + 1
}


def gauss_binom(n: int, k: int, q: int) -> int:
    """Gaussian binomial coefficient [n choose k]_q, exactly.

    Counts k-dimensional subspaces of an n-dimensional space over F_q when q
    is a prime power; defined by the same product formula for any integer
    q >= 2.  Returns 0 when k < 0 or k > n.
    """
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    assert num % den == 0
    return num // den


def _digits(value: int, p: int, e: int) -> tuple[int, ...]:
    out = []
    for _ in range(e):
        out.append(value % p)
        value //= p
    return tuple(out)


def _undigits(digits, p: int) -> int:
    out = 0
    for d in reversed(digits):
        out = out * p + d
    return out


def _polymul_mod(a, b, p, modpoly):
    """Multiply digit polynomials a*b mod (modpoly, p); modpoly monic."""
    e = len(modpoly) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce by the monic modulus
    for i in range(len(prod) - 1, e - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(e + 1):
                prod[i - e + j] = (prod[i - e + j] - c * modpoly[j]) % p
    return tuple(prod[:e]) + (0,) * (e - len(prod))


class FieldTable:
    """Arithmetic tables for F_q, q in SUPPORTED_Q.

    Attributes add, mul are q x q tuples; neg and inv are length-q tuples
    (inv[0] is None).  Construction verifies every field axiom exhaustively.
    """

    __slots__ = ("q", "p", "e", "add", "mul", "neg", "inv")

    def __init__(self, q: int):
        if q not in SUPPORTED_Q:
            raise ValueError(f"unsupported field order {q}; supported: {sorted(SUPPORTED_Q)}")
        p, e, modpoly = SUPPORTED_Q[q]
        self.q = q
        self.p = p
        self.e = e
        if e == 1:
            add = tuple(tuple((a + b) % p for b in range(q)) for a in range(q))
            mul = tuple(tuple((a * b) % p for b in range(q)) for a in range(q))
        else:
            digs = [_digits(v, p, e) for v in range(q)]
            add = tuple(
                tuple(_undigits([(x + y) % p for x, y in zip(digs[a], digs[b])], p) for b in range(q))
                for a in range(q)
            )
            mul = tuple(
                tuple(_undigits(_polymul_mod(digs[a], digs[b], p, modpoly), p) for b in range(q))
                for a in range(q)
            )
        self.add = add
        self.mul = mul
        neg = [0] * q
        inv = [None] * q
        for a in range(q):
            for b in range(q):
                if add[a][b] == 0:
                    neg[a] = b
                if a and mul[a][b] == 1:
                    inv[a] = b
        self.neg = tuple(neg)
        self.inv = tuple(inv)
        self._check_axioms()

    def _check_axioms(self):
        q, add, mul = self.q, self.add, self.mul
        rng = range(q)
        for a in rng:
            if add[a][0] != a or mul[a][1] != a or mul[a][0] != 0:
                raise AssertionError(f"identity axiom fails in F_{q} at {a}")
            if add[a][self.neg[a]] != 0:
                raise AssertionError(f"additive inverse fails in F_{q} at {a}")
            if a and mul[a][self.inv[a]] != 1:
                raise AssertionError(f"multiplicative inverse fails in F_{q} at {a}")
            for b in rng:
                if add[a][b] != add[b][a] or mul[a][b] != mul[b][a]:
                    raise AssertionError(f"commutativity fails in F_{q} at {a},{b}")
                for c in rng:
                    if add[add[a][b]][c] != add[a][add[b][c]]:
                        raise AssertionError(f"additive associativity fails in F_{q}")
                    if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                        raise AssertionError(f"multiplicative associativity fails in F_{q}")
                    if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                        raise AssertionError(f"distributivity fails in F_{q}")

    def __repr__(self):
        return f"FieldTable(q={self.q})"


_FIELD_CACHE: dict[int, FieldTable] = {}


def field_table(q: int) -> FieldTable:
    """Shared FieldTable instance for a supported order q."""
    tab = _FIELD_CACHE.get(q)
    if tab is None:
        tab = _FIELD_CACHE[q] = FieldTable(q)
    return tab

