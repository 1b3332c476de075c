import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relphase import (basis, commutator, d_basis, d_hat, d_operator,
                      tri_product, tri_product_coords)

finite = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)
complexes = st.builds(complex, finite, finite)
vectors = st.builds(lambda a, b, c, d: np.array([a, b, c, d]), complexes, complexes,
                    complexes, complexes)


def rel(x, y):
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    scale = max(1.0, np.abs(x).max(initial=0), np.abs(y).max(initial=0))
    return np.abs(x - y).max(initial=0) / scale


class TestTriProduct:
    def test_repeated_basis_vector(self):
        np.testing.assert_array_equal(tri_product(basis(0), basis(0), basis(0)), basis(0))

    def test_projector_action(self):
        np.testing.assert_array_equal(tri_product(basis(0), basis(0), basis(1)), basis(1))

    def test_orthogonal_triple_vanishes(self):
        np.testing.assert_array_equal(tri_product(basis(1), basis(2), basis(3)),
                                      np.zeros(4))

    @given(vectors, vectors, vectors)
    @settings(max_examples=200)
    def test_outer_symmetry(self, a, b, c):
        assert rel(tri_product(a, b, c), tri_product(c, b, a)) < 1e-12

    @given(vectors, vectors, vectors)
    @settings(max_examples=200)
    def test_coordinate_form_agrees(self, a, b, c):
        assert rel(tri_product(a, b, c), tri_product_coords(a, b, c)) < 1e-13

    @given(complexes, vectors, vectors, vectors, vectors)
    @settings(max_examples=150)
    def test_trilinear_middle_slot(self, lam, a, a2, b, c):
        lhs = tri_product(b, lam * a + a2, c)
        rhs = lam * tri_product(b, a, c) + tri_product(b, a2, c)
        assert rel(lhs, rhs) < 1e-12


class TestDOperator:
    def test_matches_tri_product(self):
        np.testing.assert_allclose(d_operator(basis(0), basis(0)) @ basis(1), basis(1))

    def test_zero_argument(self):
        np.testing.assert_array_equal(d_operator(np.zeros(4), basis(1)),
                                      np.zeros((4, 4)))

    def test_annihilates_orthogonal_vector(self):
        np.testing.assert_array_equal(d_operator(basis(0), basis(1)) @ basis(2),
                                      np.zeros(4))

    @given(vectors, vectors, vectors)
    @settings(max_examples=100)
    def test_linear_action(self, a, b, c):
        assert rel(d_operator(a, b) @ c, tri_product(a, b, c)) < 1e-12


class TestDHat:
    def test_vanishes_on_diagonal(self):
        np.testing.assert_array_equal(d_hat(basis(2), basis(2)), np.zeros((4, 4)))

    def test_equals_d_operator_off_diagonal(self):
        # for metric-orthogonal basis pairs the symmetric part cancels
        np.testing.assert_array_equal(d_hat(basis(0), basis(1)),
                                      d_operator(basis(0), basis(1)))

    def test_action_on_first_argument(self):
        np.testing.assert_array_equal(d_hat(basis(0), basis(1)) @ basis(0), -basis(1))


class TestDBasis:
    def test_boost_plane_action(self):
        d01 = d_basis(0, 1)
        np.testing.assert_array_equal(d01 @ basis(0), -basis(1))
        np.testing.assert_array_equal(d01 @ basis(1), -basis(0))
        np.testing.assert_array_equal(d01 @ basis(2), np.zeros(4))

    def test_rotation_plane_action(self):
        d23 = d_basis(2, 3)
        np.testing.assert_array_equal(d23 @ basis(2), basis(3))
        np.testing.assert_array_equal(d23 @ basis(3), -basis(2))

    def test_antisymmetric_labels(self):
        np.testing.assert_array_equal(d_basis(1, 1), np.zeros((4, 4)))
        np.testing.assert_array_equal(d_basis(1, 0), -d_basis(0, 1))

    def test_agrees_with_d_hat_everywhere(self):
        for alpha in range(4):
            for beta in range(4):
                np.testing.assert_array_equal(d_basis(alpha, beta),
                                              d_hat(basis(alpha), basis(beta)))


class TestJordanIdentity:
    def test_seeded_quadruples(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(500):
            x, y, a, b = (rng.standard_normal(4) + 1j * rng.standard_normal(4)
                          for _ in range(4))
            lhs = commutator(d_operator(x, y), d_operator(a, b))
            rhs = d_operator(d_operator(x, y) @ a, b) - d_operator(a, d_operator(y, x) @ b)
            worst = max(worst, rel(lhs, rhs))
        assert worst < 1e-10


class TestBatchAxes:
    """(..., 4) inputs give the stack of the single-vector results, bit for bit."""

    @pytest.fixture
    def stacks(self):
        rng = np.random.default_rng(13)
        return [rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
                for _ in range(3)]

    @pytest.mark.parametrize("fn", [tri_product, tri_product_coords])
    def test_tri_products_stack(self, fn, stacks):
        got = fn(*stacks)
        assert got.shape == (50, 4)
        np.testing.assert_array_equal(got, [fn(*v) for v in zip(*stacks)])
        assert fn(*(v[0] for v in stacks)).shape == (4,)

    @pytest.mark.parametrize("fn", [d_operator, d_hat])
    def test_operators_stack(self, fn, stacks):
        a, b, _ = stacks
        got = fn(a, b)
        assert got.shape == (50, 4, 4)
        np.testing.assert_array_equal(got, [fn(x, y) for x, y in zip(a, b)])
        assert fn(a[0], b[0]).shape == (4, 4)

    def test_broadcasts_single_vectors_against_a_stack(self, stacks):
        a, b, c = stacks
        np.testing.assert_array_equal(tri_product(a, b[0], c[0]),
                                      [tri_product(x, b[0], c[0]) for x in a])
        np.testing.assert_array_equal(d_operator(a[0], b),
                                      [d_operator(a[0], y) for y in b])

    def test_operator_stack_acts_by_matvec(self, stacks):
        a, b, c = stacks
        np.testing.assert_array_equal(np.matvec(d_operator(a, b), c),
                                      [d_operator(x, y) @ z for x, y, z in zip(a, b, c)])
