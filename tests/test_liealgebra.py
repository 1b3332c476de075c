import numpy as np
import pytest

from relphase import (ETA, GradedElement, basis, commutator, d_basis, exponential_flow,
                      graded_bracket, half_graded_bracket, is_in_qo, is_quasi_orthogonal,
                      qo_from_operator, qo_realize, scalar_product)
from relphase.liealgebra import QO_BASIS_PAIRS, _group_residual
from relphase.verify import _graded_draws, jacobi_residual, qo_dimension

GENERATORS = [d_basis(*p) for p in QO_BASIS_PAIRS]
# the tensors below that fail are off by 2 from antisymmetric
ANTISYMMETRY_ERROR = r"^coefficient tensor is not antisymmetric \(residual 2\.000e\+00\)$"


def antisym(coeffs):
    c = np.asarray(coeffs, dtype=complex)
    return c - c.mT


def random_elements(rng, n, real_ops=False):
    """A stack of n graded elements with random grade-0 coefficients (real
    ones when ``real_ops``), vectors and scalars."""
    coeffs = rng.standard_normal((n, 4, 4))
    if not real_ops:
        coeffs = coeffs + 1j * rng.standard_normal((n, 4, 4))
    return GradedElement(qo_realize(antisym(coeffs)),
                         rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4)),
                         rng.standard_normal(n) + 1j * rng.standard_normal(n))


class TestQoRealize:
    def test_single_plane_double_counts(self):
        coeffs = np.zeros((4, 4), dtype=complex)
        coeffs[0, 1], coeffs[1, 0] = 1, -1
        q = qo_realize(coeffs)
        np.testing.assert_allclose(q.matrix, 2 * d_basis(0, 1))

    def test_zero_tensor(self):
        q = qo_realize(np.zeros((4, 4)))
        np.testing.assert_array_equal(q.matrix, np.zeros((4, 4)))

    def test_rejects_symmetric_input(self):
        coeffs = np.zeros((4, 4), dtype=complex)
        coeffs[0, 1] = coeffs[1, 0] = 1
        with pytest.raises(ValueError, match=ANTISYMMETRY_ERROR):
            qo_realize(coeffs)

    def test_lowered_matrix_antisymmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            q = qo_realize(antisym(rng.standard_normal((4, 4))
                                   + 1j * rng.standard_normal((4, 4))))
            lowered = q.matrix.T @ ETA
            np.testing.assert_allclose(lowered, -lowered.T, atol=1e-12)

    def test_roundtrip_through_operator(self):
        rng = np.random.default_rng(6)
        q = qo_realize(antisym(rng.standard_normal((4, 4))))
        q2 = qo_from_operator(q.matrix)
        np.testing.assert_allclose(q2.coeffs, q.coeffs, atol=1e-12)

    def test_coeffs_recover_antisymmetrised_input_exactly(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            q = qo_realize(x - x.T)
            np.testing.assert_array_equal(q.coeffs, 0.5 * ((x - x.T) - (x - x.T).T))

    def test_stacks_reject_one_bad_entry(self):
        rng = np.random.default_rng(36)
        coeffs = antisym(rng.standard_normal((7, 4, 4)) + 1j * rng.standard_normal((7, 4, 4)))
        bad = qo_realize(coeffs).matrix.copy()
        bad[3] += np.eye(4)
        with pytest.raises(ValueError, match="^operator is not in the quasi-orthogonal algebra$"):
            qo_from_operator(bad)
        with pytest.raises(ValueError, match=ANTISYMMETRY_ERROR):
            qo_realize(coeffs + np.eye(4))

    def test_from_operator_rejects_outsiders(self):
        message = "^operator is not in the quasi-orthogonal algebra$"
        with pytest.raises(ValueError, match=message):
            qo_from_operator(np.eye(4))
        rng = np.random.default_rng(9)
        for pair in QO_BASIS_PAIRS:
            for bump in (np.eye(4), np.outer(basis(0), basis(0)),
                         rng.standard_normal((4, 4))):
                with pytest.raises(ValueError, match=message):
                    qo_from_operator(d_basis(*pair) + 1e-6 * bump)


class TestMembership:
    def test_identity_in_group_not_algebra(self):
        assert is_quasi_orthogonal(np.eye(4))
        assert not is_in_qo(np.eye(4))

    def test_boost_flow_in_group(self):
        for phi in (0.5, 1.0, 2.0):
            assert is_quasi_orthogonal(exponential_flow(d_basis(0, 1), phi))

    def test_scaling_breaks_group(self):
        assert not is_quasi_orthogonal(np.diag([2.0, 1.0, 1.0, 1.0]))

    def test_generators_in_algebra(self):
        assert is_in_qo(d_basis(0, 1))
        assert is_in_qo(1j * d_basis(2, 3))

    def test_stack_is_in_algebra_when_every_operator_is(self):
        stack = np.stack([d_basis(0, 1), 1e6 * d_basis(2, 3), 1j * d_basis(1, 3)])
        assert is_in_qo(stack)
        assert is_in_qo(stack.reshape(3, 1, 4, 4))
        # each operator is judged relative to its own size
        bumped = stack.copy()
        bumped[2, 0, 0] = 1e-9
        assert not is_in_qo(bumped)
        assert not is_in_qo(np.stack([d_basis(0, 1), np.eye(4)]))

    def test_algebra_exponentiates_into_group(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            q = qo_realize(antisym(rng.standard_normal((4, 4))
                                   + 1j * rng.standard_normal((4, 4))))
            for t in (0.1, 1.0, 2.5):
                assert is_quasi_orthogonal(exponential_flow(q.matrix, t))

    def test_group_residual_squares_its_scale_exactly(self):
        # max(1, |g|)^2 is a correctly rounded product on every host; libm's
        # pow(x, 2) differs from it in the last bit on a few of these sizes
        rng = np.random.default_rng(2024)
        c = rng.standard_normal((20000, 4, 4)) + 1j * rng.standard_normal((20000, 4, 4))
        g = exponential_flow(qo_realize(antisym(c)).matrix,
                             rng.uniform(0.0, 3.0, 20000)[:, None, None])
        size = np.maximum(1.0, np.abs(g).max(axis=(-2, -1)))
        want = np.abs(g.mT @ ETA @ g - ETA).max(axis=(-2, -1)) / np.square(size)
        np.testing.assert_array_equal(_group_residual(g).view(np.uint64), want.view(np.uint64))


class TestCommutator:
    def test_self_commutator(self):
        np.testing.assert_array_equal(commutator(d_basis(0, 1), d_basis(0, 1)),
                                      np.zeros((4, 4)))

    def test_shared_index(self):
        # one contraction survives: eta_11 d_basis(0,2)
        np.testing.assert_allclose(commutator(d_basis(0, 1), d_basis(1, 2)),
                                   -d_basis(0, 2))

    def test_disjoint_indices_commute(self):
        np.testing.assert_array_equal(commutator(d_basis(0, 1), d_basis(2, 3)),
                                      np.zeros((4, 4)))


class TestDimension:
    def test_six_independent_generators(self):
        rank, _, _ = qo_dimension(GENERATORS)
        assert rank == 6

    def test_every_algebra_member_in_span(self):
        # nullspace of X -> X^T eta + eta X has dimension 6 and projects
        # onto the generator span without loss
        _, dim, span = qo_dimension(GENERATORS)
        assert dim == 6
        assert span < 1e-12


class TestGradedBracket:
    def test_operator_acts_on_vector(self):
        x = GradedElement.from_operator(qo_from_operator(d_basis(0, 1)))
        y = GradedElement.from_vector(basis(0))
        br = graded_bracket(x, y)
        np.testing.assert_allclose(br.l1, -basis(1), atol=1e-14)
        assert br.l2 == 0

    def test_vector_pair_lands_in_scalars(self):
        br = graded_bracket(GradedElement.from_vector(basis(0)),
                            GradedElement.from_vector(1j * basis(0)))
        assert br.l2 == pytest.approx(1.0)
        np.testing.assert_array_equal(br.l1, np.zeros(4))

    def test_scalars_are_central(self):
        one = GradedElement.from_scalar(1.0)
        rng = np.random.default_rng(8)
        x = GradedElement(qo_realize(antisym(rng.standard_normal((4, 4)))),
                          rng.standard_normal(4), 2.0 + 1j)
        br = graded_bracket(one, x)
        assert br.norm() < 1e-15

    def test_norm_is_the_largest_grade(self):
        # each grade is the largest somewhere; the scalar part's size is
        # Python's abs of a complex
        rng = np.random.default_rng(33)
        for _ in range(300):
            c, v, s = (rng.uniform(0, 3) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
                       for n in ((4, 4), 4, ()))
            x = GradedElement(qo_realize(c - c.T), v, s)
            assert x.norm() == max(float(np.abs(x.l0.matrix).max()), float(np.abs(v).max()),
                                   abs(x.l2))

    def test_antisymmetry(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            def elem():
                return GradedElement(
                    qo_realize(antisym(rng.standard_normal((4, 4))
                                       + 1j * rng.standard_normal((4, 4)))),
                    rng.standard_normal(4) + 1j * rng.standard_normal(4),
                    complex(*rng.standard_normal(2)))
            x, y = elem(), elem()
            assert (graded_bracket(x, y) + graded_bracket(y, x)).norm() < 1e-12

    @pytest.mark.parametrize("bracket, act", [(graded_bracket, lambda a: a),
                                              (half_graded_bracket, lambda a: a + np.conj(a))],
                             ids=["graded", "half"])
    def test_bits_match_the_formulas(self, bracket, act):
        # [A, B]; act(A) w - act(B) v with act(A) = A, or A + conj(A) for the
        # spin-1/2 bracket; Im <conj(v)|w>.  Complex grade-0 parts, so the
        # two actions differ.
        x, y = _graded_draws(np.random.default_rng(25), 200, 2)
        a, b, v, w = x.l0.matrix, y.l0.matrix, x.l1, y.l1
        br = bracket(x, y)
        for got, want in ((br.l0.matrix, a @ b - b @ a),
                          (br.l1, np.matvec(act(a), w) - np.matvec(act(b), v)),
                          (br.l2, scalar_product(np.conj(v), w).imag + 0j)):
            assert got.shape == want.shape
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_jacobi_on_real_form(self):
        rng = np.random.default_rng(10)
        x, y, z = (random_elements(rng, 100, real_ops=True) for _ in range(3))
        assert jacobi_residual(graded_bracket, x, y, z) < 1e-10

    def test_jacobi_defect_for_imaginary_operator(self):
        # documented limitation: an imaginary grade-0 part breaks the mixed
        # Jacobi identity because the grade-2 pairing is real-valued
        a = GradedElement.from_operator(qo_from_operator(1j * d_basis(0, 1)))
        v = GradedElement.from_vector(basis(0))
        w = GradedElement.from_vector(basis(1))
        s = (graded_bracket(graded_bracket(a, v), w)
             + graded_bracket(graded_bracket(v, w), a)
             + graded_bracket(graded_bracket(w, a), v))
        assert s.l2 == pytest.approx(-2.0)


class TestQoElementArithmetic:
    def test_add_and_scale(self):
        q1 = qo_from_operator(d_basis(0, 1))
        q2 = qo_from_operator(d_basis(2, 3))
        s = q1 + 2j * q2
        np.testing.assert_allclose(s.matrix, d_basis(0, 1) + 2j * d_basis(2, 3))
        np.testing.assert_allclose((q1 - q2).matrix, d_basis(0, 1) - d_basis(2, 3))
