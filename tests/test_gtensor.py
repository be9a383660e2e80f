"""Operator algebra and worst-case quadratic forms.

The closed corner formula is checked against two independent routes: full
corner enumeration and a dense grid supremum. Algebraic identities (splits,
contractions, sublinearity) are property-tested.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcalc import (DiagTensor, VolatilityBox, colon_product, correlated_bounds,
                   g_argmax_sigma, g_diag, g_sym_bruteforce, pos_neg_split,
                   tensor_dot)
from gcalc.errors import DimensionError, InputError
from gcalc.gtensor import CorrelationSpec, tensor_contract

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def corner_sup(eta: DiagTensor, box: VolatilityBox) -> np.ndarray:
    """Independent oracle: max of half corner quadratic forms, per block."""
    corners = box.corners()                       # (2^d, d)
    vals = 0.5 * eta.diag @ corners.T             # (n, 2^d)
    return vals.max(axis=1)


# ---------------------------------------------------------------------------
# colon product / DiagTensor basics
# ---------------------------------------------------------------------------

def test_colon_product_trace_pairing():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0, 6.0], [7.0, 8.0]])
    assert colon_product(a, b) == pytest.approx(np.trace(a.T @ b), abs=1e-14)


@given(st.lists(finite, min_size=4, max_size=4), st.lists(finite, min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_colon_product_symmetric_bilinear(xs, ys):
    a = np.array(xs).reshape(2, 2)
    b = np.array(ys).reshape(2, 2)
    assert colon_product(a, b) == pytest.approx(colon_product(b, a), rel=1e-12, abs=1e-9)
    assert colon_product(2.5 * a, b) == pytest.approx(2.5 * colon_product(a, b),
                                                      rel=1e-12, abs=1e-9)


def test_diag_tensor_shapes_and_blocks():
    eta = DiagTensor(np.array([[1.0, -2.0], [0.5, 3.0]]))
    assert (eta.n, eta.d) == (2, 2)
    blocks = eta.blocks()
    assert blocks.shape == (2, 2, 2)
    assert blocks[0, 0, 1] == 0.0
    back = DiagTensor.from_blocks(blocks)
    assert np.array_equal(back.diag, eta.diag)


def test_from_blocks_rejects_off_diagonal():
    bad = np.array([[[1.0, 0.1], [0.0, 2.0]]])
    with pytest.raises(InputError):
        DiagTensor.from_blocks(bad)


def test_diag_tensor_arithmetic():
    a = DiagTensor(np.array([[1.0, 2.0]]))
    b = DiagTensor(np.array([[3.0, -1.0]]))
    assert np.array_equal((a + b).diag, [[4.0, 1.0]])
    assert np.array_equal((a - b).diag, [[-2.0, 3.0]])
    assert np.array_equal((2.0 * a).diag, [[2.0, 4.0]])
    assert a.norm == pytest.approx(np.sqrt(5.0))
    with pytest.raises(DimensionError):
        a + DiagTensor(np.array([[1.0, 2.0, 3.0]]))


@given(st.lists(finite, min_size=6, max_size=6))
@settings(max_examples=60, deadline=None)
def test_pos_neg_split_properties(xs):
    eta = DiagTensor(np.array(xs).reshape(2, 3))
    plus, minus = pos_neg_split(eta)
    assert np.all(plus.diag >= 0.0) and np.all(minus.diag >= 0.0)
    assert np.allclose(plus.diag - minus.diag, eta.diag)
    assert np.all(plus.diag * minus.diag == 0.0)


def test_tensor_contract_and_dot_signatures():
    eta = DiagTensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    theta = DiagTensor(np.array([[5.0, 6.0], [7.0, 8.0]]))
    gamma = np.diag([2.0, 3.0])
    # per-component trace pairing with one matrix
    assert np.allclose(tensor_contract(eta, gamma), [1 * 2 + 2 * 3, 3 * 2 + 4 * 3])
    # tensor . tensor -> diagonal matrix
    tt = tensor_dot(eta, theta)
    assert np.allclose(tt, np.diag([1 * 5 + 3 * 7, 2 * 6 + 4 * 8]))
    # vector . tensor -> diagonal matrix
    xi = np.array([1.0, -1.0])
    vt = tensor_dot(xi, eta)
    assert np.allclose(vt, np.diag([1.0 - 3.0, 2.0 - 4.0]))
    # vector . tensor : gamma -> scalar
    s = tensor_dot(xi, eta, gamma)
    assert s == pytest.approx((2.0 + 6.0) - (6.0 + 12.0))
    with pytest.raises(DimensionError):
        tensor_dot(np.array([1.0, 2.0, 3.0]), eta)
    with pytest.raises(DimensionError):
        tensor_dot(eta, theta, gamma)


# ---------------------------------------------------------------------------
# volatility boxes
# ---------------------------------------------------------------------------

def test_box_validation():
    with pytest.raises(InputError):
        VolatilityBox(np.array([0.0]), np.array([1.0]))   # zero lower bound
    with pytest.raises(InputError):
        VolatilityBox(np.array([2.0]), np.array([1.0]))   # inverted
    with pytest.raises(DimensionError):
        VolatilityBox(np.array([1.0]), np.array([1.0, 2.0]))
    with pytest.raises(InputError):
        VolatilityBox(np.array([1.0]), np.array([2.0]), grid_points_per_axis=1)
    # policy indices are int16: 181^2 = 32,761 combos fit, 182^2 do not
    VolatilityBox(np.ones(2), np.full(2, 2.0), grid_points_per_axis=181)
    with pytest.raises(InputError):
        VolatilityBox(np.ones(2), np.full(2, 2.0), grid_points_per_axis=182)


def test_box_grid_and_corners():
    box = VolatilityBox(np.array([1.0, 2.0]), np.array([4.0, 3.0]),
                        grid_points_per_axis=3)
    combos = box.sigma2_combos()
    assert combos.shape == (9, 2)
    # lexicographically ascending, endpoints included
    assert np.array_equal(combos[0], [1.0, 2.0])
    assert np.array_equal(combos[-1], [4.0, 3.0])
    assert np.array_equal(combos[1], [1.0, 2.5])
    corners = box.corners()
    assert corners.shape == (4, 2)
    assert box.contains(corners.T @ np.full(4, 0.25))    # center
    assert not box.contains([0.5, 2.5])
    assert box.sigma_min_sq == 1.0 and box.sigma_max_sq == 4.0
    assert not box.is_degenerate
    assert VolatilityBox(np.array([2.0]), np.array([2.0])).is_degenerate


# ---------------------------------------------------------------------------
# worst-case quadratic forms
# ---------------------------------------------------------------------------

def test_corner_formula_matches_enumeration_exactly():
    rng = np.random.default_rng(7)
    for _ in range(200):
        d = int(rng.integers(1, 3))
        n = int(rng.integers(1, 3))
        lo = rng.uniform(0.1, 2.0, d)
        box = VolatilityBox(lo, lo + rng.uniform(0.0, 3.0, d))
        eta = DiagTensor(rng.normal(0.0, 5.0, (n, d)))
        lhs = g_diag(eta, box)
        rhs = corner_sup(eta, box)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_corner_formula_matches_grid_supremum():
    rng = np.random.default_rng(8)
    for _ in range(50):
        d = int(rng.integers(1, 3))
        lo = rng.uniform(0.1, 2.0, d)
        box = VolatilityBox(lo, lo + rng.uniform(0.1, 3.0, d))
        eta = DiagTensor(rng.normal(0.0, 5.0, (1, d)))
        grid_sup = g_sym_bruteforce(np.diag(eta.diag[0]), box, points_per_axis=101)
        assert g_diag(eta, box)[0] == pytest.approx(grid_sup, abs=1e-12)


def test_argmax_attains_the_supremum():
    rng = np.random.default_rng(9)
    for _ in range(100):
        d = int(rng.integers(1, 3))
        lo = rng.uniform(0.1, 2.0, d)
        box = VolatilityBox(lo, lo + rng.uniform(0.0, 3.0, d))
        eta = DiagTensor(rng.normal(0.0, 5.0, (2, d)))
        star = g_argmax_sigma(eta, box)
        attained = 0.5 * np.sum(eta.diag * star, axis=1)
        assert np.allclose(attained, g_diag(eta, box), atol=1e-12)
        assert np.all(star >= box.lower) and np.all(star <= box.upper)
    # zero curvature resolves to the lower corner
    flat = DiagTensor(np.zeros((1, 2)))
    box = VolatilityBox(np.array([1.0, 1.0]), np.array([4.0, 4.0]))
    assert np.array_equal(g_argmax_sigma(flat, box), [[1.0, 1.0]])


@given(st.lists(finite, min_size=2, max_size=2), st.lists(finite, min_size=2, max_size=2))
@settings(max_examples=60, deadline=None)
def test_worst_case_form_is_sublinear(xs, ys):
    box = VolatilityBox(np.array([1.0, 0.5]), np.array([4.0, 2.0]))
    e1 = DiagTensor(np.array([xs]))
    e2 = DiagTensor(np.array([ys]))
    g1, g2 = g_diag(e1, box)[0], g_diag(e2, box)[0]
    g_sum = g_diag(e1 + e2, box)[0]
    tol = 1e-9 * (1.0 + abs(g1) + abs(g2))
    assert g_sum <= g1 + g2 + tol
    # positive homogeneity
    assert g_diag(2.0 * e1, box)[0] == pytest.approx(2.0 * g1, rel=1e-12, abs=1e-9)
    # monotonicity in the box: a wider box can only increase the sup
    wide = VolatilityBox(np.array([0.5, 0.25]), np.array([5.0, 3.0]))
    assert g_diag(e1, wide)[0] >= g1 - tol


def test_bruteforce_rejects_asymmetric_input():
    box = VolatilityBox(np.array([1.0, 1.0]), np.array([4.0, 4.0]))
    with pytest.raises(InputError):
        g_sym_bruteforce(np.array([[1.0, 0.5], [0.0, 2.0]]), box)


# ---------------------------------------------------------------------------
# correlated covariance envelopes
# ---------------------------------------------------------------------------

def test_correlated_bounds_identity_mixing():
    box = VolatilityBox(np.array([1.0, 2.0]), np.array([4.0, 3.0]))
    q_low, q_high = correlated_bounds(CorrelationSpec(np.eye(2), box))
    assert np.allclose(np.diag(q_high), box.upper)
    assert np.allclose(np.diag(q_low), box.lower)
    assert np.allclose(q_high - np.diag(np.diag(q_high)), 0.0)


def test_correlated_bounds_match_corner_enumeration():
    rng = np.random.default_rng(10)
    for _ in range(100):
        d = int(rng.integers(1, 3))
        lo = rng.uniform(0.1, 2.0, d)
        box = VolatilityBox(lo, lo + rng.uniform(0.0, 3.0, d))
        p = rng.normal(0.0, 1.0, (d, d)) + 2.0 * np.eye(d)
        q_low, q_high = correlated_bounds(CorrelationSpec(p, box))
        corners = box.corners()                              # (2^d, d)
        # q(sigma2)_ij = sum_l p_il p_jl sigma2_l over every corner
        qs = np.einsum("il,jl,cl->cij", p, p, corners)
        assert np.allclose(q_high, qs.max(axis=0), atol=1e-10)
        assert np.allclose(q_low, qs.min(axis=0), atol=1e-10)
        assert np.all(q_low <= q_high + 1e-12)
