"""Double-form algebra: unit cases plus randomized algebraic properties."""

import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import mutually_broadcastable_shapes

from gblab.doubleform import (
    _slot_table,
    DoubleForm,
    ShapeError,
    berezin,
    index_rank,
    multi_indices,
    pfaffian_skew,
    power,
    wedge,
)


def _rand_form(rng, n, p, q):
    shape = (len(multi_indices(n, p)), len(multi_indices(n, q)))
    return DoubleForm(n, p, q, rng.normal(size=shape))


# -- brute-force oracle -------------------------------------------------------

def _dense(form):
    """Fully antisymmetrized coefficient function keyed by index tuples."""
    table = {}
    for r, I in enumerate(multi_indices(form.n, form.p)):
        for c, J in enumerate(multi_indices(form.n, form.q)):
            val = form.coeffs[r, c]
            if val == 0:
                continue
            for pi in permutations(range(form.p)):
                si = _perm_sign(pi)
                Ip = tuple(I[k] for k in pi)
                for pj in permutations(range(form.q)):
                    sj = _perm_sign(pj)
                    Jp = tuple(J[k] for k in pj)
                    table[(Ip, Jp)] = table.get((Ip, Jp), 0.0) + si * sj * val
    return table


def _perm_sign(pi):
    sign = 1
    pi = list(pi)
    for i in range(len(pi)):
        for j in range(i + 1, len(pi)):
            if pi[i] > pi[j]:
                sign = -sign
    return sign


def _brute_wedge(a, b):
    """Wedge through the full alternation sum over index splittings."""
    da, db = _dense(a), _dense(b)
    n, p, q = a.n, a.p + b.p, a.q + b.q
    out = DoubleForm.zero(n, p, q)
    for r, I in enumerate(multi_indices(n, p)):
        for c, J in enumerate(multi_indices(n, q)):
            total = 0.0
            for (Ia, Ja), va in da.items():
                for (Ib, Jb), vb in db.items():
                    if set(Ia) | set(Ib) != set(I) or set(Ia) & set(Ib):
                        continue
                    if set(Ja) | set(Jb) != set(J) or set(Ja) & set(Jb):
                        continue
                    s1 = _concat_sign(Ia + Ib, I)
                    s2 = _concat_sign(Ja + Jb, J)
                    total += s1 * s2 * va * vb
            count = (math.factorial(a.p) * math.factorial(b.p)
                     * math.factorial(a.q) * math.factorial(b.q))
            out.coeffs[r, c] = total / count
    return out


def _concat_sign(seq, target):
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        j = seq.index(target[i], i)
        while j > i:
            seq[j], seq[j - 1] = seq[j - 1], seq[j]
            sign = -sign
            j -= 1
    return sign


# -- construction and linear structure ----------------------------------------

def test_metric_form_and_shapes():
    h = DoubleForm.metric_form(3)
    assert h.coeffs.shape == (3, 3)
    with pytest.raises(ShapeError):
        DoubleForm(3, 1, 1, np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        DoubleForm(9, 1, 1, np.zeros((9, 9)))


def test_colex_ranking():
    assert multi_indices(4, 2) == ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))
    assert index_rank(4, (1, 3)) == 4


def test_linear_combine_identity_and_cancellation():
    rng = np.random.default_rng(0)
    a = _rand_form(rng, 3, 1, 2)
    b = _rand_form(rng, 3, 1, 2)
    assert (1.0 * a + 0.0 * b - a).norm_inf() <= 1e-12
    assert (1.0 * a + -1.0 * a).norm_inf() == 0.0
    ones = DoubleForm(2, 1, 1, np.ones((2, 2)))
    combo = 2.0 * ones + 3.0 * ones
    assert np.allclose(combo.coeffs, 5.0)


def test_linear_combine_shape_mismatch():
    a = DoubleForm.zero(3, 1, 1)
    b = DoubleForm.zero(3, 2, 1)
    with pytest.raises(ShapeError):
        1.0 * a + 1.0 * b


# -- wedge ---------------------------------------------------------------------

def test_wedge_metric_square_n2():
    h = DoubleForm.metric_form(2)
    hh = wedge(h, h)
    assert hh.coeffs.shape == (1, 1)
    assert hh.coeffs[0, 0] == pytest.approx(2.0)


def test_wedge_with_zero():
    rng = np.random.default_rng(1)
    a = _rand_form(rng, 3, 1, 1)
    z = DoubleForm.zero(3, 1, 1)
    assert wedge(a, z).norm_inf() == 0.0


def test_wedge_dimension_mismatch():
    with pytest.raises(ShapeError):
        wedge(DoubleForm.metric_form(2), DoubleForm.metric_form(3))


def test_b_of_h_cubed_is_six_vol():
    h = DoubleForm.metric_form(3)
    out = berezin(power(h, 3))
    assert out.coeffs[0, 0] == pytest.approx(6.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(0, 1000))
def test_wedge_matches_brute_force(n, seed):
    rng = np.random.default_rng(seed)
    a = _rand_form(rng, n, 1, 1)
    b = _rand_form(rng, n, 1, 2 if n >= 3 else 1)
    got = wedge(a, b)
    want = _brute_wedge(a, b)
    assert (got - want).norm_inf() <= 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.integers(1, 5), st.integers(0, 1000))
def test_batched_wedge_power_berezin_match_each_form(n, batch, seed):
    rng = np.random.default_rng(seed)
    shape = (len(multi_indices(n, 2)),) * 2
    R = DoubleForm(n, 2, 2, rng.normal(size=(batch,) + shape))
    h = DoubleForm.metric_form(n)
    k = n // 2
    top = berezin(wedge(power(R, k), power(h, n - 2 * k)))
    assert top.coeffs.shape == (batch, 1, 1)
    for i in range(batch):
        Ri = DoubleForm(n, 2, 2, R.coeffs[i])
        want = berezin(wedge(power(Ri, k), power(h, n - 2 * k)))
        # the scatter adds in the same order per form: bit for bit
        assert top.coeffs[i].tobytes() == want.coeffs.tobytes()


def _table_wedge(a, b):
    """The scatter route: every signed product of the two slot tables added onto zeros in turn."""
    n, p, q = a.n, a.p + b.p, a.q + b.q
    shape = (len(multi_indices(n, p)), len(multi_indices(n, q)))
    nq = [len(multi_indices(n, k)) for k in (a.q, b.q)]
    ia, ib, io, sg = np.array([(ra * nq[0] + ca, rb * nq[1] + cb, ro * shape[1] + co, s1 * s2)
                               for ra, rb, ro, s1 in _slot_table(n, a.p, b.p)
                               for ca, cb, co, s2 in _slot_table(n, a.q, b.q)]).T
    ia, ib, io = (t.astype(np.intp) for t in (ia, ib, io))
    af = a.coeffs.reshape(a.coeffs.shape[:-2] + (-1,))
    bf = b.coeffs.reshape(b.coeffs.shape[:-2] + (-1,))
    of = np.zeros(np.broadcast_shapes(af.shape[:-1], bf.shape[:-1]) + (shape[0] * shape[1],))
    np.add.at(of, (..., io), sg * af[..., ia] * bf[..., ib])
    return of.reshape(of.shape[:-1] + shape)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 5), st.booleans(), st.integers(0, 1000),
       mutually_broadcastable_shapes(num_shapes=2, max_dims=2, max_side=3))
def test_a_scalar_factor_wedges_as_the_table_route(data, n, scalar_left, seed, batches):
    # a (0,0) factor on either side, signed zeros in both factors
    p = data.draw(st.integers(0, n), label="p")
    q = data.draw(st.integers(0, n), label="q")
    rng = np.random.default_rng(seed)

    def form(batch, p, q):
        c = rng.normal(size=tuple(batch) + (len(multi_indices(n, p)), len(multi_indices(n, q))))
        c[rng.random(c.shape) < 0.3] = 0.0
        c[rng.random(c.shape) < 0.3] = -0.0
        return DoubleForm(n, p, q, c)

    scalar, other = form(batches.input_shapes[0], 0, 0), form(batches.input_shapes[1], p, q)
    a, b = (scalar, other) if scalar_left else (other, scalar)
    got = wedge(a, b)
    want = _table_wedge(a, b)
    assert (got.p, got.q) == (p, q)
    assert got.coeffs.shape == want.shape and got.coeffs.tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(1, 6), st.integers(0, 1000),
       mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=3))
def test_the_general_wedge_adds_as_the_scatter_route(data, n, seed, batches):
    # two factors of positive degree, signed zeros in both; the sequential
    # accumulate down the term axis gives the scatter's bytes
    pa, qa = data.draw(st.integers(0, n), label="pa"), data.draw(st.integers(0, n), label="qa")
    pb = data.draw(st.integers(0, n - pa), label="pb")
    qb = data.draw(st.integers(0, n - qa), label="qb")
    assume(pa + qa > 0 and pb + qb > 0)
    rng = np.random.default_rng(seed)

    def form(batch, p, q):
        c = rng.normal(size=tuple(batch) + (len(multi_indices(n, p)), len(multi_indices(n, q))))
        c[rng.random(c.shape) < 0.3] = 0.0
        c[rng.random(c.shape) < 0.3] = -0.0
        return DoubleForm(n, p, q, c)

    a, b = form(batches.input_shapes[0], pa, qa), form(batches.input_shapes[1], pb, qb)
    got, want = wedge(a, b), _table_wedge(a, b)
    assert (got.p, got.q) == (pa + pb, qa + qb)
    assert got.coeffs.shape == want.shape and got.coeffs.tobytes() == want.tobytes()


def test_batched_coefficients_check_the_last_two_axes():
    assert DoubleForm(3, 1, 1, np.zeros((4, 2, 3, 3))).coeffs.shape == (4, 2, 3, 3)
    with pytest.raises(ShapeError):
        DoubleForm(3, 1, 1, np.zeros((3, 3, 4)))
    with pytest.raises(ShapeError):
        DoubleForm(3, 1, 1, np.zeros(9))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.integers(0, 1000))
def test_wedge_bilinear_and_associative(n, seed):
    rng = np.random.default_rng(seed)
    a = _rand_form(rng, n, 1, 1)
    b = _rand_form(rng, n, 1, 1)
    c = _rand_form(rng, n, 0, 1)
    s, t = rng.normal(), rng.normal()
    left = wedge(s * a + t * b, c)
    right = s * wedge(a, c) + t * wedge(b, c)
    assert (left - right).norm_inf() <= 1e-12
    assoc_l = wedge(wedge(a, b), c)
    assoc_r = wedge(a, wedge(b, c))
    assert (assoc_l - assoc_r).norm_inf() <= 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 4), st.integers(0, 500))
def test_wedge_even_bidegree_commutes(n, seed):
    rng = np.random.default_rng(seed)
    a = _rand_form(rng, n, 1, 1)
    b = _rand_form(rng, n, 1, 1)
    assert (wedge(a, b) - wedge(b, a)).norm_inf() <= 1e-12


# -- powers ----------------------------------------------------------------------

def test_power_identities():
    rng = np.random.default_rng(2)
    a = _rand_form(rng, 4, 1, 1)
    assert (power(a, 1) - a).norm_inf() <= 1e-12
    unit = power(a, 0)
    assert unit.p == unit.q == 0 and unit.coeffs[0, 0] == 1.0


def test_power_overflow_is_zero():
    rng = np.random.default_rng(3)
    a = _rand_form(rng, 3, 2, 2)
    out = power(a, 2)
    assert out.norm_inf() == 0.0


@pytest.mark.parametrize("n", range(1, 9))
def test_metric_power_exact_factorial(n):
    # B(h^n) sums n! products of +-1 entries: every partial sum is an
    # integer below 2^53, so float64 gives n! bit for bit
    val = berezin(power(DoubleForm.metric_form(n), n)).coeffs[0, 0]
    assert val == math.factorial(n)


# -- Berezin ----------------------------------------------------------------------

def test_berezin_unit_cases():
    vol_pair = DoubleForm.zero(2, 2, 2)
    vol_pair.coeffs[0, 0] = 1.0
    out = berezin(vol_pair)
    assert out.p == 2 and out.coeffs[0, 0] == 1.0
    h1 = DoubleForm.metric_form(1)
    out1 = berezin(h1)
    assert out1.coeffs[0, 0] == 1.0


def test_berezin_below_top_degree_vanishes():
    h = DoubleForm.metric_form(3)
    out = berezin(h)
    assert out.q == 0 and out.norm_inf() == 0.0


# -- Pfaffian of skew matrices ------------------------------------------------------

def test_pfaffian_2x2():
    assert pfaffian_skew([[0.0, 1.0], [-1.0, 0.0]]) == pytest.approx(1.0)


def test_pfaffian_block_multiplicativity():
    a, b = 2.0, -1.5
    m = np.zeros((4, 4))
    m[0, 1], m[1, 0] = a, -a
    m[2, 3], m[3, 2] = b, -b
    assert pfaffian_skew(m) == pytest.approx(a * b)


def test_pfaffian_odd_size_rejected():
    with pytest.raises(ShapeError):
        pfaffian_skew(np.zeros((3, 3)))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 4, 6, 8]), st.integers(0, 10_000))
def test_pfaffian_squared_is_determinant(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    m = m - m.T
    assert pfaffian_skew(m) ** 2 == pytest.approx(np.linalg.det(m), abs=1e-9, rel=1e-9)
