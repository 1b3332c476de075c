import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relphase import (basis, conjugate, decompose, lorentz_product,
                      phase_operator, phase_vector, scalar_product,
                      scalar_square, symplectic_bracket)

finite = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)
complexes = st.builds(complex, finite, finite)
vectors = st.builds(lambda a, b, c, d: np.array([a, b, c, d]), complexes, complexes,
                    complexes, complexes)


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
    @example(-0.99999, np.array([0, 0, -99 + 53j, 0]), np.array([0, -0.99999j, 47 + 38j, 0]),
             np.array([0, 1j, -99 + 53j, 0]))
    def test_bilinear_first_slot(self, lam, a, b, c):
        # Rounding is proportional to the terms lam*a and c against b, not to
        # the result: lam*a + c can cancel far below them.
        lhs = scalar_product(lam * a + c, b)
        rhs = lam * scalar_product(a, b) + scalar_product(c, b)
        size = lambda v: np.abs(v).max()
        scale = max(1.0, abs(lam) * size(a) * size(b), size(c) * size(b))
        assert abs(lhs - rhs) / scale < 1e-12


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
    def test_roundtrip(self):
        v = phase_vector([1, 2j, 3 + 4j, -1])
        np.testing.assert_array_equal(v, np.array([1, 2j, 3 + 4j, -1]))


class TestPhaseOperator:
    def test_accepts_4x4(self):
        m = phase_operator(np.eye(4))
        np.testing.assert_array_equal(m, np.eye(4))
        assert m.dtype == np.complex128
