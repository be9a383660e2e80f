"""Volatility boxes and worst-case quadratic forms.

The closed corner formula is checked against two independent routes: full
corner enumeration and a dense grid supremum. Sublinearity is
property-tested.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcalc import DiagTensor, VolatilityBox, g_corner, g_diag, g_sym_bruteforce
from gcalc.errors import DimensionError, InputError

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def corner_sup(eta: DiagTensor, box: VolatilityBox) -> np.ndarray:
    """Independent oracle: max of half corner quadratic forms, per block."""
    corners = box.corners()                       # (2^d, d)
    vals = 0.5 * eta.diag @ corners.T             # (n, 2^d)
    return vals.max(axis=1)


# ---------------------------------------------------------------------------
# DiagTensor basics
# ---------------------------------------------------------------------------

def test_diag_tensor_shapes_and_blocks():
    eta = DiagTensor(np.array([[1.0, -2.0], [0.5, 3.0]]))
    assert (eta.n, eta.d) == (2, 2)


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
        # the kernel maps over leading axes: a stacked (k, n, d) array gives
        # each slice's corner supremum
        stack = rng.normal(0.0, 5.0, (3, n, d))
        got = g_corner(stack, box)
        assert got.shape == (3, n)
        for i in range(3):
            assert np.max(np.abs(got[i] - corner_sup(DiagTensor(stack[i]), box))) < 1e-12


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
    # the curvature-corner rule that compensator_mc_check uses for its
    # zero-compensator control: upper bound where eta > 0, lower elsewhere
    rng = np.random.default_rng(9)
    for _ in range(100):
        d = int(rng.integers(1, 3))
        lo = rng.uniform(0.1, 2.0, d)
        box = VolatilityBox(lo, lo + rng.uniform(0.0, 3.0, d))
        eta = rng.normal(0.0, 5.0, (2, d))
        star = np.where(eta > 0.0, box.upper, box.lower)
        attained = 0.5 * np.sum(eta * star, axis=1)
        assert np.allclose(attained, g_corner(eta, box), atol=1e-12)


@given(st.lists(finite, min_size=2, max_size=2), st.lists(finite, min_size=2, max_size=2))
@settings(max_examples=60, deadline=None)
def test_worst_case_form_is_sublinear(xs, ys):
    box = VolatilityBox(np.array([1.0, 0.5]), np.array([4.0, 2.0]))
    e1 = DiagTensor(np.array([xs]))
    e2 = DiagTensor(np.array([ys]))
    g1, g2 = g_diag(e1, box)[0], g_diag(e2, box)[0]
    g_sum = g_diag(DiagTensor(e1.diag + e2.diag), box)[0]
    tol = 1e-9 * (1.0 + abs(g1) + abs(g2))
    assert g_sum <= g1 + g2 + tol
    # positive homogeneity
    assert g_diag(DiagTensor(2.0 * e1.diag), box)[0] == pytest.approx(
        2.0 * g1, rel=1e-12, abs=1e-9)
    # monotonicity in the box: a wider box can only increase the sup
    wide = VolatilityBox(np.array([0.5, 0.25]), np.array([5.0, 3.0]))
    assert g_diag(e1, wide)[0] >= g1 - tol


def test_bruteforce_rejects_asymmetric_input():
    box = VolatilityBox(np.array([1.0, 1.0]), np.array([4.0, 4.0]))
    with pytest.raises(InputError):
        g_sym_bruteforce(np.array([[1.0, 0.5], [0.0, 2.0]]), box)
