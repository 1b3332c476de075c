import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relphase import (basis, conjugate, decompose, lorentz_product,
                      phase_operator, phase_vector, scalar_product,
                      scalar_square, symplectic_bracket)

finite = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)
complexes = st.builds(complex, finite, finite)
vectors = st.builds(lambda a, b, c, d: np.array([a, b, c, d]), complexes, complexes,
                    complexes, complexes)


def rel(x, y):
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    scale = max(1.0, np.abs(x).max(initial=0), np.abs(y).max(initial=0))
    return np.abs(x - y).max(initial=0) / scale


class TestScalarProduct:
    def test_metric_values_on_basis(self):
        assert scalar_product(basis(0), basis(0)) == 1
        assert scalar_product(basis(1), basis(1)) == -1
        assert scalar_product(basis(0), basis(1)) == 0

    def test_no_conjugation(self):
        # bilinear: i^2 = -1 comes through
        assert scalar_product(1j * basis(0), 1j * basis(0)) == -1

    @given(vectors, vectors)
    def test_symmetric(self, a, b):
        assert abs(scalar_product(a, b) - scalar_product(b, a)) <= 1e-15 * max(
            1.0, abs(scalar_product(a, b)))

    @given(complexes, vectors, vectors, vectors)
    @settings(max_examples=200)
    def test_bilinear_first_slot(self, lam, a, b, c):
        lhs = scalar_product(lam * a + c, b)
        rhs = lam * scalar_product(a, b) + scalar_product(c, b)
        assert rel(lhs, rhs) < 1e-12


class TestScalarSquare:
    def test_timelike_basis(self):
        assert scalar_square(basis(0)) == 1

    def test_complex_coordinates(self):
        # (1, i, 0, 0): 1*1 - (i*i) = 2
        assert scalar_square(np.array([1, 1j, 0, 0])) == pytest.approx(2)

    def test_null_vector(self):
        assert scalar_square(basis(0) + basis(1)) == 0


class TestConjugate:
    def test_real_fixed(self):
        np.testing.assert_array_equal(conjugate(basis(0)), basis(0))

    def test_imaginary_flips(self):
        np.testing.assert_array_equal(conjugate(1j * basis(2)), -1j * basis(2))

    def test_general(self):
        np.testing.assert_array_equal(conjugate((1 + 2j) * basis(3)), (1 - 2j) * basis(3))

    @given(vectors)
    def test_involution(self, a):
        np.testing.assert_array_equal(conjugate(conjugate(a)), a)


class TestLorentzProduct:
    def test_real_basis(self):
        assert lorentz_product(basis(0), basis(0)) == 1

    def test_imaginary_vector(self):
        # Re((-i)(i) eta_00) = 1: the product ignores the overall phase i
        assert lorentz_product(1j * basis(0), 1j * basis(0)) == 1

    def test_mixed_real_imaginary(self):
        assert lorentz_product(basis(0), 1j * basis(0)) == 0


class TestSymplecticBracket:
    def test_diagonal_vanishes(self):
        assert symplectic_bracket(basis(0), basis(0)) == 0

    def test_pairs_momentum_with_position(self):
        assert symplectic_bracket(basis(0), 1j * basis(0)) == 1
        assert symplectic_bracket(basis(1), 1j * basis(1)) == -1

    @given(vectors, vectors)
    def test_antisymmetric(self, a, b):
        s = symplectic_bracket(a, b) + symplectic_bracket(b, a)
        assert abs(s) <= 1e-12 * max(1.0, abs(symplectic_bracket(a, b)))

    def test_vanishes_on_real_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p, q = rng.standard_normal(4), rng.standard_normal(4)
            assert symplectic_bracket(p, q) == 0
            assert symplectic_bracket(1j * p, 1j * q) == 0


class TestDecompose:
    def test_splits_real_and_imaginary(self):
        p, x = decompose((1 + 2j) * basis(0))
        np.testing.assert_array_equal(p, [1, 0, 0, 0])
        np.testing.assert_array_equal(x, [2, 0, 0, 0])

    def test_pure_momentum(self):
        p, x = decompose(basis(1))
        np.testing.assert_array_equal(p, [0, 1, 0, 0])
        np.testing.assert_array_equal(x, [0, 0, 0, 0])

    def test_momentum_square_identity(self):
        a = (1 + 2j) * basis(0)
        p, _ = decompose(a)
        s = scalar_product(conjugate(a), a)
        # 0.5 * Re(5 + (1+2j)^2) = 0.5 * (5 - 3) = 1
        assert scalar_square(p) == pytest.approx(0.5 * (s + scalar_square(a)).real)
        assert scalar_square(p) == pytest.approx(1.0)

    @given(vectors)
    @settings(max_examples=200)
    def test_square_identities(self, a):
        p, x = decompose(a)
        s = scalar_product(conjugate(a), a)
        sq = scalar_square(a)
        # the identity cancels terms of size |s|; compare at that scale
        scale = max(1.0, abs(s), abs(sq))
        assert abs(scalar_square(p) - 0.5 * (s + sq).real) < 1e-12 * scale
        assert abs(scalar_square(x) - 0.5 * (s - sq).real) < 1e-12 * scale


class TestPhaseVector:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            phase_vector([1, 2, 3])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            phase_vector([np.nan, 0, 0, 0])
        with pytest.raises(ValueError):
            phase_vector([np.inf * 1j, 0, 0, 0])

    def test_roundtrip(self):
        v = phase_vector([1, 2j, 3 + 4j, -1])
        np.testing.assert_array_equal(v, np.array([1, 2j, 3 + 4j, -1]))


class TestPhaseOperator:
    def test_accepts_4x4(self):
        m = phase_operator(np.eye(4))
        np.testing.assert_array_equal(m, np.eye(4))
        assert m.dtype == np.complex128

    def test_rejects_wrong_shape_and_non_finite(self):
        with pytest.raises(ValueError):
            phase_operator(np.eye(3))
        bad = np.eye(4, dtype=complex)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            phase_operator(bad)


class TestBatchAxes:
    """(..., 4) inputs give the stack of the single-vector results, bit for bit."""

    @pytest.fixture
    def stacks(self):
        rng = np.random.default_rng(12)
        return [rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
                for _ in range(2)]

    @pytest.mark.parametrize("fn", [scalar_product, lorentz_product, symplectic_bracket])
    def test_pair_products_stack(self, fn, stacks):
        a, b = stacks
        got = fn(a, b)
        assert got.shape == (50,)
        np.testing.assert_array_equal(got, [fn(x, y) for x, y in zip(a, b)])

    @pytest.mark.parametrize("fn", [scalar_square, conjugate])
    def test_one_argument_kernels_stack(self, fn, stacks):
        a, _ = stacks
        np.testing.assert_array_equal(fn(a), [fn(x) for x in a])

    def test_decompose_stacks(self, stacks):
        a, _ = stacks
        p, x = decompose(a)
        np.testing.assert_array_equal(p, [decompose(v)[0] for v in a])
        np.testing.assert_array_equal(x, [decompose(v)[1] for v in a])

    def test_broadcasts_a_single_vector_against_a_stack(self, stacks):
        a, b = stacks
        np.testing.assert_array_equal(scalar_product(a, b[0]),
                                      [scalar_product(x, b[0]) for x in a])
        np.testing.assert_array_equal(symplectic_bracket(b[0], a),
                                      [symplectic_bracket(b[0], x) for x in a])

    def test_several_leading_axes(self, stacks):
        a, b = (v.reshape(5, 10, 4) for v in stacks)
        assert scalar_product(a, b).shape == (5, 10)
        np.testing.assert_array_equal(scalar_product(a, b).ravel(),
                                      scalar_product(stacks[0], stacks[1]))

    def test_single_vectors_keep_scalar_types(self, stacks):
        a, b = stacks[0][0], stacks[1][0]
        assert type(scalar_product(a, b)) is complex
        assert type(scalar_square(a)) is complex
        assert type(lorentz_product(a, b)) is float
        assert type(symplectic_bracket(a, b)) is float
        assert conjugate(a).shape == (4,)
        assert [v.shape for v in decompose(a)] == [(4,), (4,)]
