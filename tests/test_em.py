import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relphase import (DUAL_PAIRS, ETA, EMField, Representation, basis, d_basis,
                      evolution_generator, evolve_closed_form, evolve_numeric,
                      exp_faraday, exp_faraday_conjugate, exponential_flow,
                      faraday_components, faraday_conjugate, faraday_tensor,
                      field_tensor, invariant_z, is_in_qo, lorentz_force,
                      mass_shell_residual, qo_realize, scalar_product)
from relphase.em import _sinhc, shell_drift
from relphase.verify import (closed_form_rk4_residual, commuting_factor_residual,
                             conjugate_commutator_residual, faraday_square_residual,
                             flow_invariance_residual, null_flow_residual,
                             shell_and_reality_residuals)

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

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            EMField([1, 2], [0, 0, 0])
        with pytest.raises(ValueError):
            EMField([1, 2, np.nan], [0, 0, 0])

    def test_rejects_bad_stacks(self):
        e = np.random.default_rng(40).uniform(-1, 1, (50, 3))
        with pytest.raises(ValueError, match="3-vector"):
            EMField(e[:, :2], e[:, :2])
        with pytest.raises(ValueError, match="same shape"):
            EMField(e, e[:49])
        with pytest.raises(ValueError, match="same shape"):
            EMField(e, e[0])
        for name in ("e", "b"):
            bad = e.copy()
            bad[37, 1] = np.inf
            with pytest.raises(ValueError, match=f"{name} components must be finite"):
                EMField(bad, e) if name == "e" else EMField(e, bad)

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
        with pytest.raises(ValueError):
            faraday_components(np.eye(4))


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

    def test_invariance_under_boost_flows(self):
        rng = np.random.default_rng(28)
        fields = random_fields(29, 30)
        axes, phis = zip(*[(int(rng.integers(1, 4)), float(rng.uniform(-1.5, 1.5)))
                           for _ in fields])
        assert flow_invariance_residual(fields, axes, phis) < 1e-11


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
        with pytest.raises(ValueError):
            evolve_closed_form(f, np.array([1, 1j, 0, 0]), 1.0)

    def test_rejects_bad_steps(self):
        f = EMField([1, 0, 0], [0, 0, 0])
        with pytest.raises(ValueError):
            evolve_numeric(f, np.ones(4), 1.0, 0)

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

    def test_tau_vector_matches_scalar_calls(self):
        rng = np.random.default_rng(35)
        for f in random_fields(36, 6):
            p0 = rng.uniform(-1, 1, 4)
            taus = np.concatenate(([0.0], rng.uniform(-3.0, 6.0, 4)))
            rows = evolve_numeric(f, p0, taus, 500)
            for tau, row in zip(taus, rows):
                assert rel(row, evolve_numeric(f, p0, float(tau), 500)) < 1e-14

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
        with pytest.raises(ValueError):
            evolve_numeric(f, p0, np.ones((2, 2)), 10)

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
            direct = abs(p @ ETA @ p - p0 @ ETA @ p0) / max(1.0, np.abs(p).max()) ** 2
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


def contract_fields():
    """2 000 random fields with null, pure-E, pure-B and zero fields mixed in.

    The null fields are exact (a unit E with a perpendicular unit B) or
    built from orthonormal pairs, so |w tau| < 1e-4 and the Taylor branch of
    the kernel runs in the same stack as the sinh branch.  Pure-E fields
    carry B = -0.0 to exercise signed zeros.
    """
    rng = np.random.default_rng(43)
    e, b = rng.uniform(-1, 1, (2, 2000, 3))
    e1 = rng.standard_normal((60, 3))
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    v = rng.standard_normal((60, 3))
    e2 = v - np.sum(v * e1, axis=1, keepdims=True) * e1
    e2 /= np.linalg.norm(e2, axis=1, keepdims=True)
    amp = rng.uniform(0.2, 1.0, (60, 1))
    unit = np.eye(3)
    special_e = np.concatenate([amp * e1, 0.7 * unit, -unit, 0 * unit, unit, np.zeros((1, 3))])
    special_b = np.concatenate([amp * e2, 0 * unit, -0.0 * unit, -0.9 * unit, np.roll(unit, 1, 0),
                                np.zeros((1, 3))])
    order = rng.permutation(2000 + len(special_e))
    return (EMField(np.concatenate([e, special_e])[order], np.concatenate([b, special_b])[order]),
            rng.uniform(-1, 1, (2000 + len(special_e), 4)))


def assert_same_bits(got, want):
    """Equal entries, the sign of every zero included."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    if got.dtype.kind == "c":
        got, want = np.stack([got.real, got.imag]), np.stack([want.real, want.imag])
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


CONTRACT_TAUS = np.array([0.0, 0.7, 3.0, -1.3])
CONTRACT_FIELDS, CONTRACT_P0S = contract_fields()


class TestFieldAxis:
    """A stack of fields gives, entry by entry, the bits of the single calls."""

    fields, p0s = CONTRACT_FIELDS, CONTRACT_P0S
    singles = [CONTRACT_FIELDS[k] for k in range(len(CONTRACT_P0S))]

    def test_stack_has_the_taylor_branch(self):
        x = np.abs(invariant_z(self.fields).w[:, None] * CONTRACT_TAUS[1:])
        assert np.count_nonzero(x < 1e-4) >= 60 * 3 and np.count_nonzero(x >= 1e-4) > 2000

    def test_operators(self):
        for fn in (faraday_tensor, faraday_conjugate, evolution_generator):
            assert_same_bits(fn(self.fields), np.stack([fn(f) for f in self.singles]))
        assert_same_bits(field_tensor(self.fields).matrix,
                         np.stack([field_tensor(f).matrix for f in self.singles]))

    def test_invariants(self):
        inv = invariant_z(self.fields)
        assert_same_bits(inv.z, np.array([invariant_z(f).z for f in self.singles]))
        assert_same_bits(inv.w, np.array([invariant_z(f).w for f in self.singles]))
        x = inv.w[:, None] * CONTRACT_TAUS
        assert_same_bits(_sinhc(x), np.array([[_sinhc(v) for v in row] for row in x]))

    def test_closed_form_over_fields_and_taus(self):
        grid = exp_faraday(self.fields[:, None], CONTRACT_TAUS)
        assert grid.shape == (len(self.singles), len(CONTRACT_TAUS), 4, 4)
        assert_same_bits(grid, np.stack([[exp_faraday(f, float(t)) for t in CONTRACT_TAUS]
                                         for f in self.singles]))
        paired = evolve_closed_form(self.fields, self.p0s, 2.5)
        assert_same_bits(paired, np.stack([evolve_closed_form(f, p0, 2.5)
                                           for f, p0 in zip(self.singles, self.p0s)]))
        rows = evolve_closed_form(self.fields[:, None], self.p0s[:, None], CONTRACT_TAUS)
        for k, tau in enumerate(CONTRACT_TAUS):
            assert_same_bits(rows[:, k], np.stack([evolve_closed_form(f, p0, float(tau))
                                                   for f, p0 in zip(self.singles, self.p0s)]))

    def test_rk4_over_fields_and_taus(self):
        got = evolve_numeric(self.fields[:200, None], self.p0s[:200, None], CONTRACT_TAUS, 9)
        assert got.shape == (200, len(CONTRACT_TAUS), 4)
        assert_same_bits(got, np.stack([evolve_numeric(f, p0, CONTRACT_TAUS, 9)
                                        for f, p0 in zip(self.singles, self.p0s[:200])]))

    def test_faraday_components_of_a_stack(self):
        x = PLUS.angular_matrix(0, 2)
        ops = exponential_flow(x, 0.8) @ faraday_tensor(self.fields) @ exponential_flow(x, -0.8)
        assert_same_bits(faraday_components(ops), np.stack([faraday_components(m) for m in ops]))
        assert faraday_components(ops[0]).shape == (3,)
        bad = ops.copy()
        bad[1000] += 1e-6 * np.eye(4)
        with pytest.raises(ValueError):
            faraday_components(bad)

    def test_single_inputs_keep_their_types(self):
        f = self.singles[0]
        inv = invariant_z(f)
        assert type(inv.z) is complex and type(inv.w) is complex
        assert isinstance(_sinhc(0.5 + 0.1j), complex) and isinstance(_sinhc(1e-6), complex)
        assert faraday_tensor(f).shape == exp_faraday(f, 1.0).shape == (4, 4)
        assert field_tensor(f).matrix.shape == (4, 4)
        assert evolve_closed_form(f, self.p0s[0], 1.0).shape == (4,)
        assert evolve_numeric(f, self.p0s[0], 1.0, 5).shape == (4,)
        assert isinstance(mass_shell_residual(f, self.p0s[0], 1.0), float)


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
    want = np.stack([qo_realize_field_tensor(f).matrix for f in TestFieldAxis.singles])
    assert_same_bits(field_tensor(CONTRACT_FIELDS).matrix, want)


components = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)
three = st.lists(components, min_size=3, max_size=3)


@given(three, three, components, st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4))
@settings(max_examples=150, deadline=None)
def test_closed_form_is_finite_or_value_error(e, b, tau, p0):
    # |E|, |B| and tau up to 1e300: a finite result or a ValueError, never
    # inf or NaN and never another exception
    f = EMField(e, b)
    with np.errstate(all="ignore"):
        for call in (lambda: exp_faraday(f, tau), lambda: exp_faraday_conjugate(f, tau),
                     lambda: evolve_closed_form(f, p0, tau),
                     lambda: mass_shell_residual(f, p0, tau)):
            try:
                out = call()
            except ValueError as exc:
                assert str(exc).startswith(("non-finite result at tau=", "imaginary residual"))
                continue
            assert np.all(np.isfinite(out))


def test_overflow_names_the_first_non_finite_tau():
    f = EMField([1, 0, 0], [0.05, 0, 0])
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match=r"^non-finite result at tau=800:"):
            evolve_closed_form(f, [1, 0.1, 0, 0], 800.0)
        with pytest.raises(ValueError, match=r"^non-finite result at tau=1600:"):
            exp_faraday(f, 1600.0)
        with pytest.raises(ValueError, match=r"^non-finite result at tau=1500:"):
            evolve_closed_form(f, [1, 0, 0, 0], [0.0, 700.0, 1500.0, 1600.0])
        # entries in C order: the 0.1 field stays finite, the unit field
        # overflows at 1600 and 1500, and 1600 comes first
        stack = EMField([[0.1, 0, 0], [1, 0, 0]], [[0, 0, 0], [0, 0, 0]])
        with pytest.raises(ValueError, match=r"^non-finite result at tau=1600:"):
            exp_faraday(stack[:, None], [10.0, 1600.0, 1500.0])
        # the RK4 oracle names the first overflowing tau the same way
        pure_e = EMField([1, 0, 0], [0, 0, 0])
        with pytest.raises(ValueError, match=r"^non-finite result at tau=2000:"):
            evolve_numeric(pure_e, [1, 0, 0, 0], 2000.0, 100)
        with pytest.raises(ValueError, match=r"^non-finite result at tau=3000:"):
            evolve_numeric(pure_e, [1, 0, 0, 0], [10.0, 3000.0, 2000.0], 100)
