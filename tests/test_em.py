import warnings

import numpy as np
import pytest

from relphase import (DUAL_PAIRS, ETA, EMField, Representation, basis, d_basis,
                      evolution_generator, evolve_closed_form, evolve_numeric,
                      exp_faraday, exp_faraday_conjugate, exponential_flow,
                      faraday_components, faraday_conjugate, faraday_tensor,
                      field_tensor, invariant_z, is_in_qo, lorentz_force,
                      mass_shell_residual, qo_realize, scalar_product)
from relphase.core import _frozen, _require_finite
from relphase.em import shell_drift
from relphase.verify import (closed_form_rk4_residual, commuting_factor_residual,
                             conjugate_commutator_residual, faraday_square_residual,
                             flow_invariance_residual, null_flow_residual,
                             shell_and_reality_residuals)
from test_contract import FIELDS, P0S, assert_same_bits

PLUS = Representation("spin_half_plus")


def rel(x, y):
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    scale = max(1.0, np.abs(x).max(initial=0), np.abs(y).max(initial=0))
    return np.abs(x - y).max(initial=0) / scale


def random_fields(seed, n):
    """A stack of n fields; field k is E, B = rows k of two uniform draws."""
    u = np.random.default_rng(seed).uniform(-1, 1, (n, 6))
    return EMField(u[:, :3], u[:, 3:])


class TestEMField:
    def test_faraday_vector(self):
        f = EMField([1, 2, 3], [4, 5, 6])
        np.testing.assert_array_equal(f.faraday_vector, [1 + 4j, 2 + 5j, 3 + 6j])

    def test_complex_dtype_with_zero_imaginary_parts_keeps_the_real_bits(self):
        # E, B and p0 are read through one rule: a complex dtype within
        # imag_tol is the float64 input, silently and bit for bit
        f, p0, taus = FIELDS[:40], P0S[:40], np.array([0.0, 0.7, 2.5])
        fc = EMField(f.e.astype(np.complex128), f.b.astype(np.complex128))
        pc = p0.astype(np.complex128)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_same_bits(fc.e, f.e)
            assert_same_bits(fc.b, f.b)
            assert_same_bits(evolve_closed_form(fc[:, None], pc[:, None], taus),
                             evolve_closed_form(f[:, None], p0[:, None], taus))
            assert_same_bits(evolve_numeric(fc[:, None], pc[:, None], taus, 20),
                             evolve_numeric(f[:, None], p0[:, None], taus, 20))
            for k in range(3):
                assert (mass_shell_residual(fc[k], pc[k], 1.3).hex()
                        == mass_shell_residual(f[k], p0[k], 1.3).hex())

    def test_stack_is_read_only_copy(self):
        e = np.random.default_rng(41).uniform(-1, 1, (4, 2, 3))
        f = EMField(e, -e)
        e[0, 0, 0] = 5.0
        assert f.e[0, 0, 0] != 5.0
        for v in (f.e, f.b, f[1:].e, f[:, None].b):
            with pytest.raises(ValueError):
                v[..., 0] = 0.0
        assert f[1:].e.shape == (3, 2, 3) and f[:, None].b.shape == (4, 1, 2, 3)
        np.testing.assert_array_equal(f[2, 1].e, e[2, 1])


class TestFieldTensor:
    def test_pure_electric(self):
        q = field_tensor(EMField([1, 0, 0], [0, 0, 0]))
        np.testing.assert_allclose(q.matrix, d_basis(0, 1))

    def test_pure_magnetic(self):
        q = field_tensor(EMField([0, 0, 0], [0, 0, 1]))
        np.testing.assert_allclose(q.matrix, d_basis(1, 2))

    def test_zero_field(self):
        q = field_tensor(EMField([0, 0, 0], [0, 0, 0]))
        np.testing.assert_array_equal(q.matrix, np.zeros((4, 4)))

    def test_always_in_algebra_with_real_entries(self):
        for f in random_fields(21, 50):
            q = field_tensor(f)
            assert is_in_qo(q.matrix)
            assert np.abs(q.matrix.imag).max() == 0


class TestFaradayTensor:
    def test_pure_electric_is_boost_image(self):
        fc = faraday_tensor(EMField([1, 0, 0], [0, 0, 0]))
        np.testing.assert_allclose(fc, PLUS.angular_matrix(0, 1))
        np.testing.assert_allclose(fc, 0.5 * (d_basis(0, 1) + 1j * d_basis(2, 3)))

    def test_square_is_quarter_invariant(self):
        fc = faraday_tensor(EMField([1, 0, 0], [0, 0, 0]))
        np.testing.assert_allclose(fc @ fc, 0.25 * np.eye(4), atol=1e-14)
        assert faraday_square_residual(random_fields(22, 100)) < 1e-12

    def test_zero_field(self):
        np.testing.assert_array_equal(faraday_tensor(EMField([0] * 3, [0] * 3)),
                                      np.zeros((4, 4)))

    def test_conjugate_is_entrywise(self):
        f = EMField([1, 0, 0], [0, 0, 0])
        np.testing.assert_allclose(faraday_conjugate(f),
                                   0.5 * (d_basis(0, 1) - 1j * d_basis(2, 3)))

    def test_conjugate_commutes(self):
        assert conjugate_commutator_residual(random_fields(23, 100)) < 1e-12

    def test_evolution_generator_flips_magnetic_sign(self):
        f = EMField([0.3, -0.7, 0.2], [0.5, 0.1, -0.4])
        flipped = EMField(f.e, -f.b)
        np.testing.assert_allclose(evolution_generator(f),
                                   field_tensor(flipped).matrix.real, atol=1e-14)

    def test_component_extraction(self):
        f = EMField([0.2, -0.4, 0.9], [-0.1, 0.6, 0.3])
        comps = faraday_components(faraday_tensor(f))
        np.testing.assert_allclose(comps, f.faraday_vector, atol=1e-12)


class TestLorentzForce:
    def test_boost_generator_action(self):
        np.testing.assert_array_equal(lorentz_force(d_basis(0, 1), basis(0)),
                                      -basis(1))

    def test_zero_field(self):
        np.testing.assert_array_equal(lorentz_force(np.zeros((4, 4)), basis(0)),
                                      np.zeros(4))

    def test_force_orthogonal_to_momentum(self):
        rng = np.random.default_rng(24)
        for f in random_fields(25, 50):
            p = rng.standard_normal(4)
            force = lorentz_force(field_tensor(f).matrix, p)
            assert abs(scalar_product(p, force)) < 1e-12 * max(1.0, np.abs(p).max() ** 2)


class TestInvariant:
    def test_pure_electric(self):
        inv = invariant_z(EMField([1, 0, 0], [0, 0, 0]))
        assert inv.z == pytest.approx(1.0)
        assert inv.w == pytest.approx(0.5)

    def test_null_field(self):
        inv = invariant_z(EMField([1, 0, 0], [0, 1, 0]))
        assert abs(inv.z) < 1e-15

    def test_zero_field(self):
        inv = invariant_z(EMField([0, 0, 0], [0, 0, 0]))
        assert inv.z == 0 and inv.w == 0

    def test_component_identity(self):
        for f in random_fields(26, 50):
            e2 = f.e @ f.e
            b2 = f.b @ f.b
            eb = f.e @ f.b
            assert invariant_z(f).z == pytest.approx((e2 - b2) + 2j * eb)

    def test_w_squares_to_quarter_z(self):
        for f in random_fields(27, 50):
            inv = invariant_z(f)
            assert abs(inv.w ** 2 - inv.z / 4) < 1e-14

    def test_half_root_is_finite_for_huge_fields(self):
        # z = 1e400 overflows and follows numpy; w = 5e199 is exact, and so is
        # a w whose parts sit near the largest float
        with pytest.warns(RuntimeWarning):
            inv = invariant_z(EMField([1e200, 0, 0], [0, 0, 0]))
        assert inv.z == complex(np.inf, 0) and inv.w == 5e199
        with np.errstate(all="ignore"):
            inv = invariant_z(EMField([1e308, 0, -1.7e308], [0, 1e308, 0]))
        assert inv.w == 8.5e307

    def test_invariance_under_boost_flows(self):
        rng = np.random.default_rng(28)
        fields = random_fields(29, 30)
        axes, phis = zip(*[(int(rng.integers(1, 4)), float(rng.uniform(-1.5, 1.5)))
                           for _ in fields])
        assert flow_invariance_residual(fields, axes, phis) < 1e-11

    @pytest.mark.parametrize("axis", [0, 4])
    def test_flow_axis_outside_one_to_three_raises(self, axis):
        # index axis - 1 of the boost table would wrap 0 round to axis 3
        with pytest.raises(ValueError, match=rf"^boost axes must be 1, 2 or 3, got \[1 {axis}\]$"):
            flow_invariance_residual(random_fields(29, 2), (1, axis), (0.4, 0.4))


class TestExpFaraday:
    def test_zero_time(self):
        f = EMField([0.3, 0.1, -0.2], [0.0, 0.5, 0.4])
        np.testing.assert_allclose(exp_faraday(f, 0.0), np.eye(4))

    def test_matches_matrix_exponential(self):
        for f in random_fields(30, 60):
            for tau in (0.5, 1.0, 3.0):
                assert rel(exp_faraday(f, tau),
                           exponential_flow(faraday_tensor(f), tau)) < 1e-12

    def test_null_field_truncates(self):
        # Entries are at most 3.5, so 2.5e-13 scale-relative bounds every
        # difference by 1e-12.
        assert null_flow_residual(EMField([1, 0, 0], [0, 1, 0]), (0.5, 2.0, 7.0)) <= 2.5e-13

    def test_pure_electric_closed_form(self):
        f = EMField([1, 0, 0], [0, 0, 0])
        expected = (np.cosh(0.5) * np.eye(4)
                    + 2 * np.sinh(0.5) * PLUS.angular_matrix(0, 1))
        np.testing.assert_allclose(exp_faraday(f, 1.0), expected, atol=1e-14)

    def test_conjugate_version(self):
        f = EMField([0.2, -0.3, 0.4], [0.6, 0.1, -0.5])
        np.testing.assert_allclose(exp_faraday_conjugate(f, 1.3),
                                   np.conj(exp_faraday(f, 1.3)), atol=1e-15)

    def test_huge_field_at_a_tiny_time(self):
        # tau |E| = 1: the boost by rapidity 1, although z overflows
        got = exp_faraday(EMField([1e200, 0, 0], [0, 0, 0]), 1e-200)
        np.testing.assert_allclose(got, exp_faraday(EMField([1, 0, 0], [0, 0, 0]), 1.0),
                                   rtol=0, atol=1e-15)
        np.testing.assert_array_equal(exp_faraday(EMField([1e200, 0, 0], [0, 0, 0]), 0.0),
                                      np.eye(4))
        # a single huge field takes the rescaled root alone and keeps the
        # bits of its entry in a stack beside a field that does not
        stack = EMField([[1e200, 0, 0], [3e199, -1e200, 2e199], [0.5, 0, 0]],
                        [[0, 0, 0], [1e200, -0.0, -5e199], [0, 0.3, 0]])
        p0 = np.array([1.0, -0.0, 0.5, -0.25])
        for k in range(3):
            assert_same_bits(exp_faraday(stack[k], 1e-200), exp_faraday(stack, 1e-200)[k])
            assert_same_bits(evolve_closed_form(stack[k], p0, 1e-200),
                             evolve_closed_form(stack, p0, 1e-200)[k])

    def test_small_invariant_kernel(self):
        # nearly null field exercises the series branch of sinh(x)/x
        f = EMField([1, 0, 0], [1e-6, 1, 0])
        assert rel(exp_faraday(f, 1.0),
                   exponential_flow(faraday_tensor(f), 1.0)) < 1e-12


class TestEvolution:
    def test_zero_time_returns_start(self):
        f = EMField([0.4, 0.2, -0.6], [0.3, -0.1, 0.8])
        p0 = np.array([1.0, 0.1, -0.2, 0.3])
        np.testing.assert_allclose(evolve_closed_form(f, p0, 0.0), p0)
        np.testing.assert_allclose(evolve_numeric(f, p0, 0.0, 50), p0)

    def test_rejects_complex_momentum(self):
        f = EMField([1, 0, 0], [0, 0, 0])
        with pytest.raises(ValueError, match=r"^momentum components must be real within 1e-09$"):
            evolve_closed_form(f, np.array([1, 1j, 0, 0]), 1.0)

    def test_pure_electric_is_boost(self):
        # E along x boosts the momentum in the time-x plane with rapidity
        # e*tau (library sign: p1 decreases for positive E and p0)
        e, m, tau = 0.7, 2.0, 1.3
        f = EMField([e, 0, 0], [0, 0, 0])
        p = evolve_closed_form(f, m * basis(0).real, tau)
        np.testing.assert_allclose(p, [m * np.cosh(e * tau), -m * np.sinh(e * tau), 0, 0],
                                   atol=1e-12)

    def test_pure_magnetic_rotates(self):
        b, tau = 0.9, 2.1
        f = EMField([0, 0, 0], [0, 0, b])
        p = evolve_closed_form(f, basis(1).real, tau)
        assert p[0] == pytest.approx(0.0, abs=1e-12)  # no work done
        assert p[3] == pytest.approx(0.0, abs=1e-12)
        assert p[1] ** 2 + p[2] ** 2 == pytest.approx(1.0)
        # matches the rotation flow generated by -b * d_basis(1,2)
        expected = exponential_flow(d_basis(1, 2), -b * tau) @ basis(1)
        np.testing.assert_allclose(p, expected.real, atol=1e-12)

    def test_closed_form_matches_rk4(self):
        # |p| stays below 3, so 3e-9 scale-relative bounds every difference
        # by 1e-8.
        p0s = np.random.default_rng(31).uniform(-1, 1, (20, 4))
        assert closed_form_rk4_residual(random_fields(32, 20), p0s, 1.0, 10_000) <= 3e-9

    def test_rk4_order(self):
        f = EMField([0.6, -0.2, 0.1], [0.3, 0.5, -0.4])
        p0 = np.array([1.0, 0.2, -0.1, 0.4])
        exact = evolve_closed_form(f, p0, 2.0)
        e1 = np.abs(evolve_numeric(f, p0, 2.0, 50) - exact).max()
        e2 = np.abs(evolve_numeric(f, p0, 2.0, 100) - exact).max()
        assert e1 / e2 == pytest.approx(16.0, rel=0.25)

    def test_tau_zero_row_is_exact(self):
        f = EMField([0.4, 0.2, -0.6], [0.3, -0.1, 0.8])
        p0 = np.array([1.0, 0.1, -0.2, 0.3])
        rows = evolve_numeric(f, p0, np.linspace(0.0, 2.0, 3), 100)
        np.testing.assert_array_equal(rows[0], p0)

    def test_tau_shape_contract(self):
        f = EMField([0.4, 0.2, -0.6], [0.3, -0.1, 0.8])
        p0 = np.ones(4)
        assert evolve_numeric(f, p0, 1.0, 10).shape == (4,)
        assert evolve_numeric(f, p0, np.float64(1.0), 10).shape == (4,)
        assert evolve_numeric(f, p0, [0.5, 1.0, 2.0], 10).shape == (3, 4)

    def test_closed_form_checks_imaginary_residual(self):
        f = EMField([0.6, -0.2, 0.1], [0.3, 0.5, -0.4])
        p0 = np.array([1.0, 0.2, -0.1, 0.4])
        with pytest.raises(ValueError):
            evolve_closed_form(f, p0, 3.0, imag_tol=0.0)
        # the tolerance is relative to |p|: at |p| ~ 3e51 the imaginary
        # residual is ~1e34 in absolute terms and still passes
        p = evolve_closed_form(EMField([1, 0, 0], [0, 0, 0.1]), p0, 120.0)
        assert np.abs(p).max() > 1e50

    def test_mass_shell_residual_large_and_overflowing(self):
        f = EMField([1, 0, 0], [0, 0, 0])
        assert mass_shell_residual(f, [1, 0, 0, 0], 700.0) < 1e-11
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
            mass_shell_residual(f, [1, 0, 0, 0], 1500.0)

    def test_shell_drift_equals_unscaled_formula(self):
        # the power-of-two prescaling is exact, so ordinary momenta give the
        # very bits of the direct formula
        rng = np.random.default_rng(37)
        for _ in range(200):
            p0 = rng.uniform(-1, 1, 4)
            p = p0 * 10.0 ** rng.uniform(-3, 12)
            direct = abs(p @ ETA @ p - p0 @ ETA @ p0) / np.square(max(1.0, np.abs(p).max()))
            assert shell_drift(p0, p) == direct

    def test_mass_shell_and_reality(self):
        fields = random_fields(33, 20)
        p0 = np.array([1.5, 0.3, -0.2, 0.1])
        taus = np.linspace(0.0, 10.0, 6)
        shell, real = shell_and_reality_residuals(fields, np.tile(p0, (20, 1)), taus)
        assert real < 1e-11
        assert shell < 1e-11
        for f in fields:
            for tau in taus:
                assert mass_shell_residual(f, p0, float(tau)) < 1e-11

    def test_factorised_flow_matches_joint_exponential(self):
        assert commuting_factor_residual(random_fields(34, 30), (0.5, 2.0)) < 1e-11

    def test_branch_independent(self):
        # the closed form is even in w: replacing w by -w changes nothing
        f = EMField([0.8, -0.1, 0.3], [0.2, 0.7, -0.6])
        inv = invariant_z(f)
        fc = faraday_tensor(f)
        tau = 1.9
        for w in (inv.w, -inv.w):
            kern = np.sinh(w * tau) / w
            got = np.cosh(w * tau) * np.eye(4) + kern * fc
            np.testing.assert_allclose(got, exp_faraday(f, tau), atol=1e-13)


def qo_realize_field_tensor(f):
    """sum_j E^j D_{0j} + B^j Dperp_j through a coefficient tensor and qo_realize."""
    coeffs = np.zeros((4, 4), dtype=np.complex128)
    for j in (1, 2, 3):
        coeffs[0, j] += f.e[j - 1] / 2.0
        coeffs[j, 0] -= f.e[j - 1] / 2.0
        k, l = DUAL_PAIRS[j]
        coeffs[k, l] += f.b[j - 1] / 2.0
        coeffs[l, k] -= f.b[j - 1] / 2.0
    return qo_realize(coeffs)


def test_field_tensor_equals_the_coefficient_tensor_path():
    want = np.stack([qo_realize_field_tensor(FIELDS[k]).matrix for k in range(len(P0S))])
    assert_same_bits(field_tensor(FIELDS).matrix, want)


@pytest.mark.parametrize("tau", [690.0, 700.0])
def test_large_finite_rk4_is_silent(tau):
    # Momenta near the top of double precision (e^690 and e^700): the steps
    # neither warn nor raise.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = evolve_numeric(EMField([1, 0, 0], [0, 0, 0]), [1, 0, 0, 0], tau, 2000)
    assert np.isfinite(p).all() and p[0] > 1e299


def loop_evolve_numeric(f, p0, tau, steps):
    """The RK4 oracle stepped as ``q = q + d @ q`` on a ``(..., 4, 1)`` column,
    a new array each step; the library steps the same sums in place."""
    taus = np.asarray(tau, dtype=np.float64)
    eye = np.eye(4)
    q = np.asarray(p0, dtype=np.float64)[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        x = (taus[..., None, None] / steps) * evolution_generator(f)
        d = x @ (eye + (x / 2.0) @ (eye + (x / 3.0) @ (eye + x / 4.0)))
        for _ in range(steps):
            q = q + d @ q
    return _require_finite(q[..., 0], taus, "tau", "momentum", "tau or the field", 1)


def rk4_cases(seed):
    """(field, p0, tau) for a single field, field stacks against tau vectors,
    p0 stacks, and scalar and vector tau."""
    rng = np.random.default_rng(seed)
    fields = random_fields(seed, 5)
    p0s = rng.uniform(-1, 1, (5, 4))
    taus = rng.uniform(-3, 3, 3)
    return [
        (fields[0], p0s[0], float(taus[0])),
        (fields[0], p0s[0], taus),
        (fields[0], p0s, float(taus[1])),
        (fields, p0s, float(taus[2])),
        (fields[:, None], p0s[0], taus),
        (fields[:, None], p0s[:, None], taus),
        (fields[:3], p0s[:3], taus),
        (fields[0], p0s[:3], taus),
    ]


@pytest.mark.parametrize("steps", [1, 2, 7, 500])
def test_rk4_steps_match_the_allocating_loop(steps):
    for seed in (41, 42, 43):
        for f, p0, tau in rk4_cases(seed):
            assert_same_bits(evolve_numeric(f, p0, tau, steps),
                             loop_evolve_numeric(f, p0, tau, steps))


def test_rk4_overflow_message_matches_the_allocating_loop():
    f, taus = EMField([1, 0, 0], [0, 0, 0.1]), [1.0, 650.0, 800.0, 900.0]
    with pytest.raises(ValueError) as want:
        loop_evolve_numeric(f, [1, 0, 0, 0], taus, 500)
    with pytest.raises(ValueError, match="^non-finite result at tau=800:") as got:
        evolve_numeric(f, [1, 0, 0, 0], taus, 500)
    assert str(got.value) == str(want.value)


def test_rk4_buffers():
    f = random_fields(44, 3)
    taus = np.array([0.5, 1.0, 2.0])
    # Already float64 of the broadcast shape: still copied, never written.
    p0 = np.random.default_rng(44).uniform(-1, 1, (3, 4))
    before = p0.copy()
    p = evolve_numeric(f, p0, taus, 20)
    assert_same_bits(p0, before)
    assert p.flags.writeable and p.flags.owndata and not np.shares_memory(p, p0)
    frozen = _frozen(p0, np.float64)
    assert_same_bits(evolve_numeric(f, frozen, taus, 20), p)
    single = evolve_numeric(f[0], frozen[0], 1.0, 20)
    assert single.shape == (4,) and single.flags.writeable and single.flags.owndata
