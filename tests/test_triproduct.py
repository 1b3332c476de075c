import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relphase import (basis, commutator, d_basis, d_hat, d_operator,
                      scalar_product, tri_product, tri_product_coords)

finite = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)
complexes = st.builds(complex, finite, finite)
vectors = st.builds(lambda a, b, c, d: np.array([a, b, c, d]), complexes, complexes,
                    complexes, complexes)


def rel(x, y):
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    scale = max(1.0, np.abs(x).max(initial=0), np.abs(y).max(initial=0))
    return np.abs(x - y).max(initial=0) / scale


def terms(a, b, c):
    """Largest of the three terms <a|b>c, <c|a>b and <b|c>a of {a,b,c}.

    Rounding in a tri-product is proportional to its terms, not to its
    result, which can cancel to far below them.
    """
    size = lambda v: np.abs(v).max()
    return max(abs(scalar_product(a, b)) * size(c), abs(scalar_product(c, a)) * size(b),
               abs(scalar_product(b, c)) * size(a))


def rounding_scale(a, b, c):
    """Largest entry of the tri-product of absolute values with a Euclidean
    dot, (|a|.|b|)|c| + (|c|.|a|)|b| + (|b|.|c|)|a|.

    Each bilinear product <a|b> carries rounding of about eps sum_k
    |a_k||b_k|, even where it cancels to far below that (nearly null a = b),
    so this bounds the rounding of {a, b, c} and of D(a, b) @ c a priori.
    """
    a, b, c = np.abs(a), np.abs(b), np.abs(c)
    return ((a @ b) * c + (c @ a) * b + (b @ c) * a).max()


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
    @example(35j * basis(0), 20.875 * (basis(0) + basis(2)),
             np.array([22.96484375, 0, 22.96615734861906, 0], dtype=complex))
    def test_outer_symmetry(self, a, b, c):
        # {c,b,a} has the same three terms as {a,b,c}
        diff = np.abs(tri_product(a, b, c) - tri_product(c, b, a)).max()
        assert diff / max(1.0, terms(a, b, c)) < 1e-12

    @given(vectors, vectors, vectors)
    @settings(max_examples=200)
    def test_coordinate_form_agrees(self, a, b, c):
        assert rel(tri_product(a, b, c), tri_product_coords(a, b, c)) < 1e-13

    @given(complexes, vectors, vectors, vectors, vectors)
    @settings(max_examples=150)
    @example(-0.99999, 40 * basis(3), 40 * basis(3), 9j * basis(3), 41j * basis(3))
    def test_trilinear_middle_slot(self, lam, a, a2, b, c):
        mixed = lam * a + a2
        lhs = tri_product(b, mixed, c)
        rhs = lam * tri_product(b, a, c) + tri_product(b, a2, c)
        scale = max(1.0, rounding_scale(b, mixed, c), abs(lam) * rounding_scale(b, a, c),
                    rounding_scale(b, a2, c))
        assert np.abs(lhs - rhs).max() / scale < 1e-12


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
    @example(np.array([0, 0, 0, 15.906287375278794j]), np.array([33, 0, 33, 0]),
             np.array([33, 0, 33, 0]))
    def test_linear_action(self, a, b, c):
        # Rounding in D @ c is proportional to the a-priori scale, not to the
        # result: with b null all three tri-product terms vanish, and D @ c
        # cancels entries of 524.9 * 33 against each other.
        d = d_operator(a, b)
        size = max(1.0, rounding_scale(a, b, c))
        assert np.abs(d @ c - tri_product(a, b, c)).max() / size < 1e-12


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
