"""Cospectrality: minimal polynomials and charpolys modulo 31-bit primes.

A pair that switching.apply_switching built needs neither: the mate is
Q^T A Q for the rational orthogonal Q of its spec (see the switching module
docstring), so its callers record _SWITCHING_VERDICT and compute nothing.

cospectral tries two methods, cheapest first.  For graphs on
n <= MAX_CHARPOLY_N vertices, it looks for a polynomial
p(x) = (x - t_1) ... (x - t_r) with distinct integer roots that
annihilates both adjacency matrices.  A symmetric matrix with p(A) = 0 has
its spectrum in {t_i}, and the multiplicities m_i solve
sum_i m_i P_j(t_i) = tr P_j(A) for j < r, where P_j = (x - t_1) ... (x - t_j):
a triangular system whose diagonal P_j(t_(j+1)) is nonzero because the t_i
are distinct (Brouwer and Haemers, Spectra of Graphs, 2012).  So p(A2) != 0
proves the graphs not cospectral, and p(A2) = 0 with equal traces proves them
cospectral.  The roots are only a hint, read from a Lanczos run on A1: every
Johnson and Grassmann scheme graph has at most k + 1 distinct eigenvalues,
all integers, and its switched mates share them.  The check itself is exact:
P_j(A) is applied to blocks of identity columns in float64, and before each
product the entry bound max|Y| (max degree + |t|) < 2^53 is checked, so
every partial sum is an integer float64 holds.  A hint that does not
annihilate A1, more than _MAX_ROOTS roots, or a tripped bound sends the
pair on to the charpoly.

The charpoly test compares det(xI - A) over F_p for primes drawn
deterministically from a seed, one prime at a time.  The first disagreement
is a certain "not cospectral"; agreement at every prime is one-sided Monte
Carlo with the error bound reported in the verdict.

Per prime, A is reduced to upper Hessenberg form by a Gaussian similarity
over F_p, then the division-free leading-principal-minor recurrence reads
off the polynomial.  The matrix stays in float64 throughout, with entries in
[0, p).  Every product is exact mod p: one operand is split into three
11-bit limbs, so a limb times an entry stays below 2^42, and the inner
dimension is cut into chunks of at most 2048, so every float64 sum stays
below 2^53.  The three partial products are reduced to balanced residues,
r - rint(r/p) p, which recombine below 2^53; a result is reduced as
r - floor(r/p) p.  Only the small products inside a panel run in int64.

The reduction is blocked and its updates delayed, in the manner of
FFLAS-FFPACK (Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008).  A panel of
BLOCK columns is eliminated left-looking: each column is formed from the
matrix as it stood when the panel began, one product A f per nonzero pivot
before it, and the inverse of the panel's transform, a unit lower
triangular BLOCK x BLOCK matrix grown by one row per column.  At the end of
the panel its transform reaches the rows above it and the trailing columns
in one matrix product per chunk of at most COL_CHUNK columns.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

import numpy as np

from .graphcore import Graph, dense_adjacency

__all__ = [
    "is_probable_prime",
    "random_primes",
    "MAX_CHARPOLY_N",
    "CharpolySizeError",
    "charpoly_mod_p",
    "CharPolySignature",
    "signature",
    "CospectralVerdict",
    "cospectral",
    "eigenvalues_float",
]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

MAX_CHARPOLY_N = 1 << 15  # largest vertex count charpoly_mod_p accepts
BLOCK = 64  # panel width of the Hessenberg reduction
COL_CHUNK = 64  # trailing columns updated per matrix product
_LIMB = 2048.0  # limb radix 2^11: a limb times an entry < 2^31 stays below 2^42
_MAX_INNER = 2048  # inner dimension per product: 2048 such terms stay below 2^53
_SHIFTS = np.array([0, 11, 22])
_WEIGHTS = np.array([1.0, _LIMB, _LIMB**2])
_SCALES = np.array([1, 1 << 11, 1 << 22])
_MAX_ROOTS = 12  # most distinct eigenvalues the minimal-polynomial path tries
_EXACT = 2.0**53  # float64 holds every integer of smaller magnitude
_EXACT_COLS = 64  # identity columns per block of the minimal-polynomial check


class CharpolySizeError(ValueError):
    """The graph has more vertices than the charpoly kernel accepts."""


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (covers all 64-bit ints)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_primes(count: int, seed: int) -> tuple[int, ...]:
    """Deterministic distinct primes in (2^30, 2^31)."""
    rng = random.Random(seed)
    out: list[int] = []
    seen = set()
    while len(out) < count:
        c = rng.randrange((1 << 30) + 1, 1 << 31) | 1
        if c not in seen and is_probable_prime(c):
            seen.add(c)
            out.append(c)
    return tuple(out)


def _reduce(r: np.ndarray, p: int) -> np.ndarray:
    """r mod p in place, for a float64 array of integers with |r| < 2^53.

    floor(r / p) is exact there: the division rounds by less than
    |r/p| 2^-53 < 1/p, while r/p lies at least 1/p from the next integer
    up, so the remainder lands in [0, p) with no fix-up.
    """
    q = r / p
    np.floor(q, out=q)
    q *= p
    r -= q
    return r


def _limbs(b: np.ndarray) -> np.ndarray:
    """Limbs of b along a new last axis, as float64: b = l0 + 2^11 l1 +
    2^22 l2 with every l_i in [0, 2^11), for integers b in [0, 2^33)."""
    x = b.astype(np.int64, copy=False)[..., None] >> _SHIFTS
    x &= 2047
    return x.astype(np.float64)


def _mulmod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) mod p in [0, p), exact, for float64 a with entries in
    [0, 2^31) and b (a matrix or a vector) with entries in [0, 2^33)."""
    return _mulmod_limbs(a, _limbs(b), p)


def _mulmod_limbs(a: np.ndarray, bl: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) mod p from the limbs bl = _limbs(b).

    One product per inner chunk of at most 2048 gives the partial products
    r_i of all three limbs.  Each is reduced to a balanced residue, at most
    p/2 + 1 in absolute value, so r0 + 2^11 r1 + 2^22 r2 stays below
    2^52 + 2^42 and takes one more reduction.
    """
    k = a.shape[1]
    out = None
    for s in range(0, max(k, 1), _MAX_INNER):
        ak = a[:, s:s + _MAX_INNER]
        blk = bl[s:s + _MAX_INNER]
        if bl.ndim == 2:
            prod = blk.T @ ak.T  # limbs x rows: BLAS streams a once, fastest way round
        else:
            prod = ak @ blk.reshape(blk.shape[0], -1)
        q = prod / p
        np.rint(q, out=q)
        q *= p
        prod -= q
        if bl.ndim == 2:
            acc = _WEIGHTS @ prod
        else:
            acc = (prod.reshape(-1, 3) @ _WEIGHTS).reshape(a.shape[0], -1)
        _reduce(acc, p)
        out = acc if out is None else out + acc
    if k > _MAX_INNER:
        _reduce(out, p)
    return out


def _mulmod_small(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) mod p for int64 a with entries below 2^31, b with entries
    below 2^32 and an inner dimension below 2^15: b is split into 16-bit
    halves, so every sum stays below 2^62."""
    r = a @ (b >> 16) % p
    r <<= 16
    r += a @ (b & 0xFFFF)
    return r % p


def _hessenberg(a: np.ndarray, p: int) -> np.ndarray:
    """In-place similarity reduction to upper Hessenberg form over F_p.

    Step j makes column j zero below row j + 1, with the first nonzero entry
    at or below row j + 1 swapped up as the pivot; steps are grouped into
    panels of BLOCK columns.
    """
    n = a.shape[0]
    for j0 in range(0, n - 2, BLOCK):
        _hessenberg_panel(a, p, j0, min(j0 + BLOCK, n - 2))
    return a


def _hessenberg_panel(a: np.ndarray, p: int, j0: int, j1: int) -> None:
    """Steps j0 .. j1-1 of the reduction, then their update of the rest of a.

    The steps multiply a on the right by M = I + V E^T and on the left by
    M^-1 = I - V W E^T, where column c of V holds the multipliers of step
    j0 + c, E picks rows j0+1 .. j1, and W is the inverse of I + E^T V.
    Until the panel ends, a holds the panel-start matrix, row and column
    swaps applied, except that each finished column is written back.
    """
    n = a.shape[0]
    bb = j1 - j0
    lo = a[j0 + 1:]  # row j0 + 1 + i of a is row i of lo, V and Y
    m = lo.shape[0]
    vl = np.zeros((m, bb, 3))  # V, kept as its limbs
    y = np.zeros((m, bb))  # Y = lo @ V, the product A f of each step
    w = np.zeros((bb, bb), dtype=np.int64)  # entries are residues in (0, p]
    for c in range(bb):
        j = j0 + c
        # column j of M^-1 A M; M e_j = e_j + V e_(c-1)
        if c:
            z = lo[:, j] + y[:, c - 1]
            # V u meets the limbs of V with u 2^(11 i) mod p: one product,
            # below 3 BLOCK 2^42 < 2^53
            u = _mulmod_small(w[:c, :c], z[:c].astype(np.int64), p)
            us = u[:, None] * _SCALES % p
            z -= vl[:, :c].reshape(m, 3 * c) @ us.ravel().astype(np.float64)
            _reduce(z, p)
        else:
            z = lo[:, j].copy()
        nz = z[c:].nonzero()[0]
        if nz.size:
            i = c + int(nz[0])
            if i != c:
                r, s = j + 1, j0 + 1 + i
                a[[r, s]] = a[[s, r]]
                a[:, [r, s]] = a[:, [s, r]]
                for arr in (vl, y, z):
                    arr[[c, i]] = arr[[i, c]]
            inv = pow(int(z[c]), p - 2, p)
            f = z[c + 1:].astype(np.int64) * inv % p
            if f.any():
                fl = _limbs(f)
                vl[c + 1:, c] = fl
                y[:, c] = _mulmod_limbs(lo[:, j + 2:], fl, p)
        z[c + 1:] = 0
        lo[:, j] = z
        # row c of I + E^T V is V[c, :c]; append the matching row of W
        w[c, c] = 1
        if c:
            vc = (vl[c, :c] @ _WEIGHTS).astype(np.int64)
            w[c, :c] = p - _mulmod_small(w[:c, :c].T, vc, p)
    # rows above the panel are outside V: they take A M only
    top = a[:j0 + 1, j0 + 1:j1 + 1]
    top += _mulmod_limbs(a[:j0 + 1, j0 + 2:], vl[1:], p)
    top[top >= p] -= p
    col = lo[:, j1]
    col += y[:, bb - 1]
    col[col >= p] -= p
    # trailing columns: A M differs from A only in column j1; then M^-1.
    # V's limbs meet X, 2^11 X and 2^22 X along one inner dimension of
    # 3 BLOCK <= 2048, so each chunk takes one product and one reduction.
    vl = vl.reshape(m, 3 * bb)
    wf = w.astype(np.float64)
    for s in range(j1, n, COL_CHUNK):
        blk = lo[:, s:s + COL_CHUNK]
        x = _mulmod(wf, blk[:bb], p)
        xs = _reduce(x[:, None, :] * _WEIGHTS[:, None], p)
        blk -= vl @ xs.reshape(3 * bb, -1)
        _reduce(blk, p)


def _charpoly_from_hessenberg(h: np.ndarray, p: int) -> np.ndarray:
    """Ascending coefficients of det(xI - H) mod p for Hessenberg H.

    With c_m the polynomial of the leading m x m block,
    c_m = x c_(m-1) - sum_(i < m) h[i, m-1] h[i+1, i] ... h[m-1, m-2] c_i.
    A zero subdiagonal h[s, s-1] removes every term with i < s, so the sum
    runs only from the last zero subdiagonal.
    """
    n = h.shape[0]
    c = np.zeros((n + 1, n + 1))
    c[0, 0] = 1.0
    s = 0
    prods = np.ones(n, dtype=np.int64)  # subdiagonal products, live for i = s .. m-1
    for m in range(1, n + 1):
        v = h[s:m, m - 1].astype(np.int64) * prods[s:m] % p
        row = c[m]
        row[1:m + 1] = c[m - 1, :m]
        row[:m] -= _mulmod(c[s:m, :m].T, v, p)
        np.add(row, p, out=row, where=row < 0)
        if m < n:
            sub = int(h[m, m - 1])
            if sub:
                live = prods[s:m]
                live *= sub
                live %= p
            else:
                s = m
    return c[n]


def charpoly_mod_p(g: Graph, p: int) -> tuple[int, ...]:
    """Coefficients of det(xI - A) mod p, descending (leading 1 first)."""
    if not is_probable_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    if p >= 1 << 31:
        raise ValueError(f"modulus {p} too large; need p < 2^31")
    n = g.n
    if n > MAX_CHARPOLY_N:
        raise CharpolySizeError(
            f"n={n} exceeds the charpoly kernel's limit of {MAX_CHARPOLY_N} vertices")
    if n == 0:
        return (1,)
    h = _hessenberg(dense_adjacency(g), p)
    asc = _charpoly_from_hessenberg(h, p)
    return tuple(int(x) for x in asc[::-1])


@dataclass(frozen=True)
class CharPolySignature:
    """Charpoly coefficients (descending) for each of several primes."""

    n: int
    primes: tuple[int, ...]
    coeffs: tuple[tuple[int, ...], ...]

    def coeff_hashes(self) -> dict[str, str]:
        out = {}
        for p, cs in zip(self.primes, self.coeffs):
            h = hashlib.sha256()
            for c in cs:
                h.update(c.to_bytes(8, "little"))
            out[str(p)] = h.hexdigest()
        return out

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "primes": list(self.primes),
            "coeff_hashes": self.coeff_hashes(),
        }


def signature(g: Graph, primes) -> CharPolySignature:
    """Charpoly signature of g at the given primes."""
    primes = tuple(primes)
    coeffs = tuple(charpoly_mod_p(g, p) for p in primes)
    return CharPolySignature(g.n, primes, coeffs)


@dataclass(frozen=True)
class CospectralVerdict:
    equal: bool
    primes_used: tuple[int, ...]
    first_disagreeing_coefficient: tuple[int, int] | None
    error_bound: float | None
    # "switching" or "minimal-polynomial": exact; "charpoly": primes
    method: str = "charpoly"

    def to_json_dict(self) -> dict:
        out = {
            "equal": self.equal,
            "primes_used": list(self.primes_used),
            "method": self.method,
        }
        if self.first_disagreeing_coefficient is not None:
            p, i = self.first_disagreeing_coefficient
            out["first_disagreeing_coefficient"] = {"prime": p, "index": i}
        if self.error_bound is not None:
            out["error_bound"] = self.error_bound
        return out


# The verdict of a pair that switching.apply_switching built: the mate is
# Q^T A Q for a rational orthogonal Q, exactly (the switching module
# docstring has the proof), so it is a proof with no primes and error bound 0.
_SWITCHING_VERDICT = CospectralVerdict(True, (), None, 0.0, "switching")


# A proven lower bound on the number of primes in (2^30, 2^31), from
# x / (ln x - 1) <= pi(x) for x >= 5393 and pi(x) <= x / (ln x - 1.1) for
# x >= 60184 (Dusart, arXiv:1002.0442); one is taken off for
# the rounding of the floats.
_PRIMES_IN_RANGE = math.floor(2**31 / (31 * math.log(2) - 1)
                              - 2**30 / (30 * math.log(2) - 1.1)) - 1


def _equal_error_bound(n: int, num_primes: int) -> float:
    """Chance that non-cospectral graphs agree at num_primes random primes.

    Every coefficient is a sum of principal minors, at most
    H = 2^n n^(n/2) in absolute value (Hadamard), so a nonzero coefficient
    difference d has |d| <= 2H and at most B = floor(log2(2H) / 30) prime
    factors above 2^30.  The primes are distinct and uniform over the N
    primes in (2^30, 2^31), so all of them divide d with chance at most
    prod_j B / (N - j).
    """
    # bit length of (2H)^2 = 2^(2n+2) n^n, an integer
    bits = 2 * n + 2 + (n**n).bit_length()
    bad = (bits - 1) // 60
    bound = 1.0
    for j in range(num_primes):
        bound *= bad / (_PRIMES_IN_RANGE - j)
    return min(1.0, bound)


def _eigenvalue_hint(a: np.ndarray, seed: int) -> tuple[int, ...] | None:
    """Candidate distinct eigenvalues of the symmetric 0/1 matrix a, ascending
    integers, or None if Lanczos meets more than _MAX_ROOTS or one that is not
    within 1e-6 of an integer.

    Lanczos with full reorthogonalisation, from a start vector drawn by
    random.Random(seed): the Krylov space of a matrix with r distinct
    eigenvalues has dimension at most r, so the residual vanishes after at
    most r products, and the projected matrix has the eigenvalues the start
    vector meets.  Only the exact check decides, so a wrong hint costs
    time, never a verdict.
    """
    n = a.shape[0]
    rng = random.Random(seed)
    q = np.array([rng.random() - 0.5 for _ in range(n)])
    basis = np.empty((_MAX_ROOTS, n))
    images = np.empty_like(basis)
    for k in range(_MAX_ROOTS):
        basis[k] = q / np.linalg.norm(q)
        images[k] = a @ basis[k]
        q = images[k]
        for _ in range(2):  # twice is enough (Kahan-Parlett)
            q = q - basis[:k + 1].T @ (basis[:k + 1] @ q)
        if np.linalg.norm(q) <= 1e-9 * n:
            h = basis[:k + 1] @ images[:k + 1].T
            ritz = np.linalg.eigvalsh((h + h.T) / 2)
            roots = np.rint(ritz)
            if np.abs(ritz - roots).max() > 1e-6:
                return None
            return tuple(sorted({int(t) for t in roots}))
    return None


def _annihilated_traces(a: np.ndarray, roots: tuple[int, ...]) -> tuple[int, ...] | None:
    """(tr P_0(A), ..., tr P_(r-1)(A)) with P_j = (A - t_0 I) ... (A - t_(j-1) I)
    over the r roots, if P_r(A) = 0; () if P_r(A) != 0; None if a product
    could leave float64's exact integers.

    P_j(A) meets one block of identity columns at a time, so memory stays at
    a plus a few n x _EXACT_COLS blocks; the first factor is a column slice.
    With entries of Y at most m and max degree d, every partial sum of
    A Y - t Y is an integer below m (d + |t|), so while that bound stays under
    2^53 every product is exact in any summation order.  The first nonzero
    block of P_r(A) ends the check.
    """
    n = a.shape[0]
    degree = float(a.sum(axis=1).max())
    traces = [0] * len(roots)
    for s in range(0, n, _EXACT_COLS):
        cols = np.arange(min(_EXACT_COLS, n - s))
        diag = (s + cols, cols)
        traces[0] += cols.size
        y = a[:, s:s + cols.size].copy()
        y[diag] -= roots[0]
        for j, t in enumerate(roots[1:], 1):
            traces[j] += int(y[diag].astype(np.int64).sum())
            if np.abs(y).max() * (degree + abs(t)) >= _EXACT:
                return None
            y = a @ y - t * y
        if y.any():
            return ()
    return tuple(traces)


def _minimal_polynomial_verdict(g1: Graph, g2: Graph, seed: int) -> CospectralVerdict | None:
    """An exact verdict from a polynomial with distinct integer roots that
    annihilates g1's adjacency matrix, or None if no such polynomial was
    found or a product could be inexact."""
    a = dense_adjacency(g1)
    roots = _eigenvalue_hint(a, seed)
    if roots is None:
        return None
    t1 = _annihilated_traces(a, roots)
    if not t1:
        return None
    del a
    t2 = _annihilated_traces(dense_adjacency(g2), roots)
    if t2 is None:
        return None
    equal = t1 == t2
    return CospectralVerdict(equal, (), None, 0.0 if equal else None, "minimal-polynomial")


def cospectral(g1: Graph, g2: Graph, num_primes: int = 3, seed: int = 0) -> CospectralVerdict:
    """Decide whether g1 and g2 are cospectral.

    Graphs on different vertex counts are never cospectral.  Then, on at
    most MAX_CHARPOLY_N vertices, a polynomial with distinct integer roots
    that annihilates A1 decides the pair exactly (method
    "minimal-polynomial", no primes, error bound 0 when equal).  Failing
    that, the one-sided Monte Carlo charpoly test runs (method "charpoly"):
    "not equal" is certain and "equal" holds up to the reported error bound.
    Primes are tried one at a time and the test stops at the first that
    separates the graphs.
    """
    if num_primes < 1:
        raise ValueError("need at least one prime")
    return _cospectral(g1, g2, num_primes, seed)


def _cospectral(g1: Graph, g2: Graph, primes: int | tuple[int, ...], seed: int,
                coeffs1: tuple[tuple[int, ...], ...] | None = None) -> CospectralVerdict:
    """cospectral at the given primes, or at random_primes(primes, seed) drawn
    only when the charpoly test runs; coeffs1, if given, holds g1's charpolys
    at those primes (a signature's coeffs), so none is computed twice."""
    if g1.n != g2.n:
        return CospectralVerdict(False, (), None, None)
    if 0 < g1.n <= MAX_CHARPOLY_N:
        verdict = _minimal_polynomial_verdict(g1, g2, seed)
        if verdict is not None:
            return verdict
    if isinstance(primes, int):
        primes = random_primes(primes, seed)
    for k, p in enumerate(primes):
        c1 = coeffs1[k] if coeffs1 is not None else charpoly_mod_p(g1, p)
        c2 = charpoly_mod_p(g2, p)
        if c1 != c2:
            idx = next(i for i, (a, b) in enumerate(zip(c1, c2)) if a != b)
            return CospectralVerdict(False, primes[:k + 1], (p, idx), None)
    return CospectralVerdict(True, primes, None, _equal_error_bound(g1.n, len(primes)))


def eigenvalues_float(g: Graph) -> list[float]:
    """Floating adjacency eigenvalues, ascending; diagnostics only."""
    return [float(x) for x in np.linalg.eigvalsh(dense_adjacency(g))]
