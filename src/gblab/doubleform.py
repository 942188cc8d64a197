"""Bigraded exterior algebra of double forms.

A double form of bidegree (p, q) over an n-dimensional oriented inner-product
space is an element of Lambda^p V* (x) Lambda^q V*.  Coefficients are stored
densely, indexed by pairs of strictly increasing multi-indices ranked in
colexicographic order.  The product wedges first slots with first slots and
second slots with second slots, with no interchange sign.

Coefficient tables may carry leading batch axes, one form per quadrature
node; wedge, power and berezin broadcast over them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

__all__ = [
    "DoubleForm",
    "ShapeError",
    "multi_indices",
    "index_rank",
    "wedge",
    "power",
    "berezin",
    "pfaffian_skew",
]

MAX_DIM = 8


class ShapeError(ValueError):
    """Dimension or bidegree mismatch between algebra elements."""


@lru_cache(maxsize=None)
def multi_indices(n: int, p: int) -> tuple[tuple[int, ...], ...]:
    """Strictly increasing p-tuples drawn from range(n), in colex order."""
    if p < 0 or p > n:
        return ()
    return tuple(sorted(combinations(range(n), p), key=lambda I: I[::-1]))


@lru_cache(maxsize=None)
def _rank_table(n: int, p: int) -> dict:
    return {I: r for r, I in enumerate(multi_indices(n, p))}


def index_rank(n: int, I) -> int:
    """Colex rank of the strictly increasing multi-index I."""
    return _rank_table(n, len(I))[tuple(I)]


def _merge_sign(I: tuple, J: tuple):
    """Merge two increasing tuples; return (sign, merged) or (0, None) on a
    repeated index.  The sign is the parity of the shuffle sorting I+J."""
    if set(I) & set(J):
        return 0, None
    merged = I + J
    inv = 0
    for a in range(len(merged)):
        for b in range(a + 1, len(merged)):
            if merged[a] > merged[b]:
                inv += 1
    return (-1) ** inv, tuple(sorted(merged))


@lru_cache(maxsize=None)
def _slot_table(n: int, pa: int, pb: int):
    """All (rank_a, rank_b, rank_out, sign) with nonzero wedge in one slot; pa + pb <= n."""
    out = []
    A = multi_indices(n, pa)
    B = multi_indices(n, pb)
    rk = _rank_table(n, pa + pb)
    for ra, I in enumerate(A):
        for rb, J in enumerate(B):
            s, K = _merge_sign(I, J)
            if s:
                out.append((ra, rb, rk[K], s))
    return out


@lru_cache(maxsize=None)
def _wedge_table(n: int, pa: int, qa: int, pb: int, qb: int):
    """Read-only index and sign tables (m, C_out) of the wedge; each slot's degree <= n.

    Column o holds the m = C(pa+pb, pa) C(qa+qb, qa) terms of output entry o
    (flat over its two slots), as flat indices into a and b and their signs,
    in the order of the two slot tables' product: the order in which a
    scatter over that product adds them.
    """
    t1, t2 = _slot_table(n, pa, pb), _slot_table(n, qa, qb)
    na_q, nb_q, no_q = (len(multi_indices(n, k)) for k in (qa, qb, qa + qb))
    terms = [[] for _ in range(len(multi_indices(n, pa + pb)) * no_q)]
    for ra, rb, ro, s1 in t1:
        for ca, cb, co, s2 in t2:
            terms[ro * no_q + co].append((ra * na_q + ca, rb * nb_q + cb, s1 * s2))
    m = comb(pa + pb, pa) * comb(qa + qb, qa)
    assert all(len(t) == m for t in terms), "every wedge output has the same term count"
    table = np.array(terms).T                       # [index into a | into b | sign, term, out]
    ia, ib, sg = (np.ascontiguousarray(t, dtype=dt)
                  for t, dt in zip(table, (np.intp, np.intp, float)))
    for arr in (ia, ib, sg):
        arr.flags.writeable = False
    return ia, ib, sg


def _table_shape(n: int, p: int, q: int) -> tuple[int, int]:
    return len(multi_indices(n, p)), len(multi_indices(n, q))


@dataclass(frozen=True)
class DoubleForm:
    """Element of Lambda^p (x) Lambda^q over an n-dimensional space.

    coeffs has shape (..., C(n,p), C(n,q)); entry [..., rank(I), rank(J)] is
    the coefficient of e^I (x) e^J, and leading axes index a batch of forms.
    Values are treated as immutable.
    """

    n: int
    p: int
    q: int
    coeffs: np.ndarray

    def __post_init__(self):
        if not (1 <= self.n <= MAX_DIM):
            raise ShapeError(f"dimension {self.n} outside 1..{MAX_DIM}")
        # bidegrees above n are the zero space; their tables are empty
        if not (0 <= self.p <= MAX_DIM and 0 <= self.q <= MAX_DIM):
            raise ShapeError(f"bidegree ({self.p},{self.q}) outside 0..{MAX_DIM}")
        want = _table_shape(self.n, self.p, self.q)
        if self.coeffs.shape[-2:] != want or self.coeffs.ndim < 2:
            raise ShapeError(f"coefficient table {self.coeffs.shape} != (..., {want})")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(n: int, p: int, q: int) -> "DoubleForm":
        return DoubleForm(n, p, q, np.zeros(_table_shape(n, p, q)))

    @staticmethod
    def unit(n: int) -> "DoubleForm":
        """The (0,0) multiplicative unit."""
        return DoubleForm(n, 0, 0, np.ones((1, 1)))

    @staticmethod
    def metric_form(n: int) -> "DoubleForm":
        """The metric as a (1,1) form in an orthonormal frame: sum e^i (x) e^i."""
        return DoubleForm(n, 1, 1, np.eye(n))

    # -- algebra -----------------------------------------------------------

    def same_shape(self, other: "DoubleForm") -> bool:
        return (self.n, self.p, self.q) == (other.n, other.p, other.q)

    def __add__(self, other: "DoubleForm") -> "DoubleForm":
        if not self.same_shape(other):
            raise ShapeError("sum of double forms with different shapes")
        return DoubleForm(self.n, self.p, self.q, self.coeffs + other.coeffs)

    def __sub__(self, other: "DoubleForm") -> "DoubleForm":
        if not self.same_shape(other):
            raise ShapeError("difference of double forms with different shapes")
        return DoubleForm(self.n, self.p, self.q, self.coeffs - other.coeffs)

    def __rmul__(self, s) -> "DoubleForm":
        return DoubleForm(self.n, self.p, self.q, s * self.coeffs)

    def __mul__(self, other):
        if isinstance(other, DoubleForm):
            return wedge(self, other)
        return DoubleForm(self.n, self.p, self.q, other * self.coeffs)

    def __neg__(self) -> "DoubleForm":
        return DoubleForm(self.n, self.p, self.q, -self.coeffs)

    def norm_inf(self) -> float:
        if self.coeffs.size == 0:
            return 0.0
        return float(np.max(np.abs(self.coeffs)))


def wedge(a: DoubleForm, b: DoubleForm) -> DoubleForm:
    """Slotwise wedge (a1^b1) (x) (a2^b2), no interchange sign.

    Batch axes of the two factors broadcast.  Overflow of either slot degree
    past n yields the (unbatched) zero form of the clipped bidegree.  Every
    output entry is a sum of the same number of signed products
    (_wedge_table), laid out term-major and summed down the term axis by
    one in-place np.add.accumulate, which adds sequentially on every
    layout: the same left-to-right sum as a scatter of the terms onto
    zeros, and adding 0.0 to the last row turns a -0.0 into the +0.0 that
    scatter gives.  A (0,0) factor scales the other entrywise, each output
    entry having one term, with the same + 0.0.
    """
    if a.n != b.n:
        raise ShapeError("wedge of forms over different dimensions")
    n = a.n
    p, q = a.p + b.p, a.q + b.q
    if p > n or q > n:
        return DoubleForm.zero(n, min(p, n), min(q, n))
    if a.p == a.q == 0 or b.p == b.q == 0:
        of = np.multiply(a.coeffs, b.coeffs, dtype=float)
        of += 0.0
        return DoubleForm(n, p, q, of)
    ia, ib, sg = _wedge_table(n, a.p, a.q, b.p, b.q)
    af = a.coeffs.reshape(a.coeffs.shape[:-2] + (-1,))
    bf = b.coeffs.reshape(b.coeffs.shape[:-2] + (-1,))
    terms = sg * af[..., ia] * bf[..., ib]                          # [..., term, out]
    np.add.accumulate(terms, axis=-2, out=terms)
    of = terms[..., -1, :] + 0.0
    return DoubleForm(n, p, q, of.reshape(of.shape[:-1] + _table_shape(n, p, q)))


def power(a: DoubleForm, m: int) -> DoubleForm:
    """m-fold wedge power; power(a, 0) is the (0,0) unit."""
    if m < 0:
        raise ShapeError("negative wedge power")
    if m == 0:
        return DoubleForm.unit(a.n)
    out = a
    for _ in range(m - 1):
        out = wedge(out, a)
    return out


def berezin(a: DoubleForm) -> DoubleForm:
    """Contract the second slot with the unit volume element e^0 ^ ... ^ e^(n-1).

    The frame's own orientation fixes the sign; every orientation choice of
    an identity lives in the verification layer.  For q == n this extracts
    the coefficients at J = (0,...,n-1); for q < n the contraction vanishes
    and the zero (p, 0) form is returned.
    """
    if a.q == a.n:
        return DoubleForm(a.n, a.p, 0, a.coeffs[..., :, :1])
    return DoubleForm.zero(a.n, a.p, 0)


def _pfaffian_matchings(avail: tuple, A) -> object:
    if not avail:
        return 1.0
    i = avail[0]
    rest = avail[1:]
    total = None
    for pos, j in enumerate(rest):
        sub = tuple(x for x in rest if x != j)
        term = ((-1) ** pos) * (A[i][j] * _pfaffian_matchings(sub, A))
        total = term if total is None else total + term
    return total


def pfaffian_skew(A) -> object:
    """Combinatorial Pfaffian of an even skew matrix.

    Entries may be scalars or double forms of even degree (which commute).
    Expansion is over perfect matchings, so Pf([[0,a],[-a,0]]) = a.
    """
    A = list(map(list, A))
    m = len(A)
    if m % 2 != 0 or any(len(row) != m for row in A):
        raise ShapeError("pfaffian needs a square matrix of even size")
    if m == 0:
        return 1.0
    if all(np.isscalar(A[i][j]) or isinstance(A[i][j], (int, float)) for i in range(m) for j in range(m)):
        M = np.asarray(A, dtype=float)
        if np.max(np.abs(M + M.T)) > 1e-9 * max(1.0, np.max(np.abs(M))):
            raise ShapeError("matrix is not skew-symmetric")
    res = _pfaffian_matchings(tuple(range(m)), A)
    if isinstance(res, DoubleForm):
        return res
    return float(res) if np.isscalar(res) else res
