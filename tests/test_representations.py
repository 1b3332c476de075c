import re
import warnings

import numpy as np
import pytest

from relphase import (PAULI, PoincareGenerator, QoElement, Representation, basis,
                      boost_flow_closed, commutator, d_basis, d_perp, d_pm,
                      exponential_flow, half_flow_closed, half_graded_bracket,
                      is_quasi_orthogonal, np_block_pattern, np_matrix, np_matrix_conjugate,
                      parse_generator, pi_half, pi_spin1, qo_dual,
                      qo_from_operator, qo_realize, rotation_flow_closed,
                      scalar_product, to_np_basis)
from relphase import representations
from relphase.liealgebra import QO_BASIS_PAIRS
from relphase.representations import DUAL_PAIRS, np_block_residuals
from relphase.verify import (boost_closed_form_residual, casimir_residual,
                             closed_flows_residual, np_round_trip_residual,
                             real_subspace_residual)

def coefficient_tensor_dual(q):
    """qo_dual through the coefficient tensor and qo_realize, its old path."""
    x = q.coeffs
    out = np.zeros((4, 4), dtype=np.complex128)
    for j, (k, l) in DUAL_PAIRS.items():
        out[k, l] += x[0, j]
        out[l, k] -= x[0, j]
        out[0, j] -= x[k, l]
        out[j, 0] += x[k, l]
    return qo_realize(out)


SPIN1 = Representation("spin1")
PLUS = Representation("spin_half_plus")
MINUS = Representation("spin_half_minus")


class TestPoincareGenerator:
    def test_translation_label(self):
        assert PoincareGenerator.translation(0).label == "P0"

    def test_angular_canonicalisation(self):
        g = PoincareGenerator.angular(1, 0)
        assert g.indices == (0, 1)
        assert g.sign == -1

    def test_parse(self):
        assert parse_generator("M01") == PoincareGenerator.angular(0, 1)
        assert parse_generator("P3") == PoincareGenerator.translation(3)
        assert [parse_generator(s).is_boost() for s in ("M10", "M31", "P0")] == [True, False, False]


class TestSpin1:
    def test_translation_image(self):
        for mu in range(4):
            g = pi_spin1(PoincareGenerator.translation(mu))
            np.testing.assert_array_equal(g.l1, basis(mu))
            np.testing.assert_array_equal(g.l0.matrix, np.zeros((4, 4)))

    def test_angular_image(self):
        for pair in QO_BASIS_PAIRS:
            g = pi_spin1(PoincareGenerator.angular(*pair))
            np.testing.assert_array_equal(g.l0.matrix, d_basis(*pair))

    def test_swapped_labels_flip_sign(self):
        g = pi_spin1(PoincareGenerator.angular(1, 0))
        np.testing.assert_allclose(g.l0.matrix, -d_basis(0, 1))


class TestDualPlane:
    def test_boost_duals(self):
        np.testing.assert_array_equal(d_perp(1), d_basis(2, 3))
        np.testing.assert_array_equal(d_perp(2), d_basis(3, 1))
        np.testing.assert_array_equal(d_perp(3), d_basis(1, 2))

    def test_double_dual_negates(self):
        for j in (1, 2, 3):
            q = qo_from_operator(d_basis(0, j))
            np.testing.assert_allclose(qo_dual(qo_dual(q)).matrix, -q.matrix,
                                       atol=1e-14)
        # rotation plane: dual of d_basis(2,3) is -d_basis(0,1)
        q23 = qo_from_operator(d_basis(2, 3))
        np.testing.assert_allclose(qo_dual(q23).matrix, -d_basis(0, 1), atol=1e-14)

    def test_dual_equals_the_coefficient_tensor_path(self):
        # Bit for bit, sign bits included: the old path leaves every zero as
        # +0.0, and so does the signed permutation.
        rng = np.random.default_rng(41)
        x = rng.standard_normal((1000, 4, 4)) + 1j * rng.standard_normal((1000, 4, 4))
        x[:300] = x[:300].real  # real elements: zero imaginary parts
        x[300:400, 0, 2] = 0.0  # exact zeros among the entries
        x[400:500, 1, 2] = -1.0 + 0j
        stack = qo_realize(x - x.mT)
        singles = [qo_realize(c) for c in x - x.mT]
        singles += [qo_from_operator(d_basis(*pair)) for pair in QO_BASIS_PAIRS]
        singles += [qo_from_operator(1j * d_basis(*pair)) for pair in QO_BASIS_PAIRS]
        for q in singles:
            new, old = qo_dual(q).matrix, coefficient_tensor_dual(q).matrix
            np.testing.assert_array_equal(new, old)
            np.testing.assert_array_equal(np.signbit(new.view(float)), np.signbit(old.view(float)))
        np.testing.assert_array_equal(qo_dual(stack).matrix,
                                      np.stack([qo_dual(q).matrix for q in singles[:1000]]))

    def test_dual_is_a_signed_permutation(self):
        m = np.arange(1, 17, dtype=complex).reshape(4, 4)
        dual = qo_dual(QoElement(m)).matrix
        entries = np.abs(dual[dual != 0]).real
        assert sorted(entries) == [2, 2, 3, 3, 4, 4, 7, 7, 12, 12, 14, 14]
        for j, (k, l) in DUAL_PAIRS.items():
            assert dual[k, l] == m[0, j] and dual[l, k] == -m[0, j]
            assert dual[0, j] == -m[k, l] and dual[j, 0] == -m[k, l]
        np.testing.assert_array_equal(np.diag(dual), np.zeros(4))

    def test_dual_annihilates_own_boost(self):
        for j in (1, 2, 3):
            np.testing.assert_array_equal(d_perp(j) @ d_basis(0, j),
                                          np.zeros((4, 4)))
            np.testing.assert_array_equal(d_basis(0, j) @ d_perp(j),
                                          np.zeros((4, 4)))


class TestTripotents:
    def test_opposite_signs_commute(self):
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                np.testing.assert_allclose(
                    commutator(d_pm(j, +1), d_pm(k, -1)), np.zeros((4, 4)),
                    atol=1e-14)


class TestSpinHalf:
    def test_boost_image_explicit(self):
        g = pi_half(PoincareGenerator.angular(0, 1), +1)
        np.testing.assert_allclose(g.l0.matrix,
                                   0.5 * (d_basis(0, 1) + 1j * d_basis(2, 3)))

    def test_rotation_is_complex_multiple_of_boost(self):
        m23 = pi_half(PoincareGenerator.angular(2, 3), +1).l0.matrix
        m01 = pi_half(PoincareGenerator.angular(0, 1), +1).l0.matrix
        np.testing.assert_allclose(m23, -1j * m01, atol=1e-15)
        np.testing.assert_allclose(m23, 0.5 * (d_basis(2, 3) - 1j * d_basis(0, 1)))

    def test_minus_is_entrywise_conjugate(self):
        for pair in QO_BASIS_PAIRS:
            np.testing.assert_array_equal(MINUS.angular_matrix(*pair),
                                          np.conj(PLUS.angular_matrix(*pair)))


def reference_image(kind, alpha, beta):
    """Closed-form angular image built from d_basis, independent of the tables."""
    if alpha > beta:
        return -reference_image(kind, beta, alpha)
    if kind == "spin1":
        return d_basis(alpha, beta)
    plus = {(0, j): 0.5 * (d_basis(0, j) + 1j * d_perp(j)) for j in (1, 2, 3)}
    for j, (k, l) in DUAL_PAIRS.items():
        plus[(k, l)] = -1j * plus[(0, j)]
        plus[(l, k)] = 1j * plus[(0, j)]
    return plus[(alpha, beta)] if kind == "spin_half_plus" else np.conj(plus[(alpha, beta)])


ORDERED_PAIRS = [(a, b) for a in range(4) for b in range(4) if a != b]


class TestImageTables:
    @pytest.mark.parametrize("rep", [SPIN1, PLUS, MINUS], ids=lambda r: r.kind)
    def test_every_ordered_pair_matches_closed_form(self, rep):
        for alpha, beta in ORDERED_PAIRS:
            expected = reference_image(rep.kind, alpha, beta)
            np.testing.assert_array_equal(rep.angular_matrix(alpha, beta), expected)
            np.testing.assert_array_equal(
                rep(PoincareGenerator.angular(alpha, beta)).l0.matrix, expected)

    def test_images_are_built_once(self):
        for rep in (SPIN1, PLUS, MINUS):
            for g in (PoincareGenerator.translation(3), PoincareGenerator.angular(3, 1)):
                assert rep(g) is rep(g)
            # one stored operator per ordered pair, shared by both lookups
            for alpha, beta in ORDERED_PAIRS:
                g = PoincareGenerator.angular(alpha, beta)
                assert rep.angular_matrix(alpha, beta) is rep(g).l0.matrix

    def test_non_canonical_hand_built_label(self):
        # a hand-built M10 with sign +1 is read as the ordered pair (1, 0)
        for rep in (SPIN1, PLUS, MINUS):
            image = rep(PoincareGenerator("angular", (1, 0)))
            np.testing.assert_array_equal(image.l0.matrix, rep.angular_matrix(1, 0))

    @pytest.mark.parametrize("pair", [(2, 2), (0, 4), (-1, 0)])
    def test_bad_indices_are_value_errors(self, pair):
        for rep in (SPIN1, PLUS, MINUS):
            message = re.escape(f"no {rep.kind} image for angular indices {pair}")
            with pytest.raises(ValueError, match=f"^{message}$"):
                rep.angular_matrix(*pair)
            with pytest.raises(ValueError, match=f"^{message}$"):
                rep(PoincareGenerator("angular", pair))

    @pytest.mark.parametrize("mu", [-1, 4])
    def test_bad_translation_index_is_value_error(self, mu):
        for rep in (SPIN1, PLUS, MINUS):
            message = re.escape(f"no {rep.kind} image for translation indices ({mu},)")
            with pytest.raises(ValueError, match=f"^{message}$"):
                rep(PoincareGenerator("translation", (mu,)))


class TestPoincareRelations:
    def test_modified_bracket_matches_plain_action(self):
        # the conjugate pair in the modified bracket recovers the real
        # generator action on translations
        x = PLUS(PoincareGenerator.angular(0, 1))
        v = PLUS(PoincareGenerator.translation(0))
        br = half_graded_bracket(x, v)
        np.testing.assert_allclose(br.l1, d_basis(0, 1) @ basis(0), atol=1e-15)

    def test_lorentz_casimirs_fix_the_spin(self):
        # With K_j the images of M_0j and J_j those of the dual rotations
        # M_23, M_31, M_12, the two Casimirs J.J - K.K and J.K are the
        # multiples of I that casimir_residual states: (1/2, 1/2), the
        # four-vector, for spin 1, and one chirality on all of C^4 for each
        # spin-1/2 map.  The image entries are 0, +/-1, +/-1/2 and +/-i/2, so
        # every product and sum is exact.
        for rep in (SPIN1, PLUS, MINUS):
            assert casimir_residual(rep.kind) == 0.0


class TestFlows:
    def test_zero_angle_is_identity(self):
        np.testing.assert_allclose(exponential_flow(d_basis(0, 1), 0.0), np.eye(4))

    def test_boost_entries(self):
        # Entries are at most cosh(2) < 4, so 2.5e-13 scale-relative bounds
        # every difference from the closed form and from the signed
        # cosh/-sinh pattern by 1e-12.
        phis = (0.5, 1.0, 2.0)
        flows = exponential_flow(d_basis(0, 1), np.array(phis)[:, None, None])
        assert boost_closed_form_residual(phis, flows) <= 2.5e-13

    def test_bound_expm_takes_no_lock(self, monkeypatch):
        # The loader's lock serialises the first call only.
        exponential_flow(d_basis(0, 1), 0.5)

        class Refused:
            def __enter__(self):
                raise AssertionError("the expm lock was taken after expm was bound")

            def __exit__(self, *exc):
                return False

        monkeypatch.setattr(representations, "_EXPM_LOCK", Refused())
        np.testing.assert_allclose(exponential_flow(d_basis(0, 1), 0.0), np.eye(4))

    def test_spin1_rotation_quarter_turn(self):
        g = exponential_flow(d_basis(1, 2), np.pi / 2)
        np.testing.assert_allclose(g @ basis(1), basis(2), atol=1e-15)

    # The flows' entries are below 2 at these rapidities, so 5e-14
    # scale-relative bounds every entry's difference by 1e-13.
    def test_rotation_closed_form(self):
        assert closed_flows_residual((0.3, 2.0)) <= 5e-14

    def test_half_flow_closed_forms(self):
        assert closed_flows_residual((0.4, 1.7)) <= 5e-14

    @pytest.mark.parametrize("pair", ORDERED_PAIRS, ids=lambda p: f"M{p[0]}{p[1]}")
    def test_spin1_closed_flow_of_every_ordered_label(self, pair):
        # The label alone picks the coefficients: hyperbolic on a boost
        # plane, so (j, 0) is the boost along j at -phi, trigonometric on a
        # rotation plane.
        alpha, beta = pair
        for phi in (-1.7, 0.3, 2.5):
            g = rotation_flow_closed(alpha, beta, phi)
            oracle = exponential_flow(d_basis(alpha, beta), phi)
            assert np.abs(g - oracle).max() / max(1.0, np.abs(oracle).max()) <= 5e-14
            assert is_quasi_orthogonal(g)
            if 0 in pair:
                boost = boost_flow_closed(alpha + beta, phi if alpha == 0 else -phi)
                np.testing.assert_array_equal(g.view(np.uint64), boost.view(np.uint64))

    def test_spin1_flow_preserves_real_subspace(self):
        vr = np.random.default_rng(12).standard_normal((len(QO_BASIS_PAIRS), 4))
        assert real_subspace_residual(0.9, vr) < 1e-13


class TestNullTetrad:
    def test_tetrad_vectors(self):
        t = np_matrix()
        np.testing.assert_allclose(t.matrix[:, 0], (basis(0) + basis(3)) / np.sqrt(2))
        np.testing.assert_allclose(t.matrix[:, 1], (basis(1) + 1j * basis(2)) / np.sqrt(2))
        np.testing.assert_allclose(t.matrix[:, 2], (basis(0) - basis(3)) / np.sqrt(2))
        np.testing.assert_allclose(t.matrix[:, 3], (basis(1) - 1j * basis(2)) / np.sqrt(2))

    def test_null_products(self):
        t = np_matrix()
        l, n = t.matrix[:, 0], t.matrix[:, 2]
        assert scalar_product(l, n) == pytest.approx(1.0)
        assert scalar_product(l, l) == pytest.approx(0.0)

    def test_round_trip(self):
        assert np_round_trip_residual(np_matrix(), np.array([1 + 2j, -0.5, 3j, 0.25])) <= 1e-15

    def test_boost_3_block_values(self):
        # frozen from the explicit basis change: diag(-1/2, 1/2, 1/2, -1/2)
        a = to_np_basis(PLUS.angular_matrix(0, 3))
        np.testing.assert_allclose(a, np.diag([-0.5, 0.5, 0.5, -0.5]), atol=1e-14)

    @pytest.mark.parametrize("boost", [True, False], ids=["boost", "rotation"])
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_plus_blocks(self, j, boost):
        blocks = {(axis, b): res for _, axis, b, _, res in np_block_residuals("spin_half_plus")[1]}
        off, first, second = blocks[(j, boost)]
        assert off < 1e-12
        assert first < 1e-12
        assert second < 1e-12

    def test_first_block_is_conjugate_pauli(self):
        for j in (1, 2, 3):
            e1, _ = np_block_pattern(j, True, "spin_half_plus")
            np.testing.assert_allclose(e1, -0.5 * np.conj(PAULI[j - 1]))

    def test_second_block_axis_sign(self):
        # axes 1 and 2 match -sigma/2 exactly; axis 3 carries the documented
        # opposite sign (forced by the boost commutator bracket)
        for j in (1, 2):
            _, e2 = np_block_pattern(j, True, "spin_half_plus")
            np.testing.assert_allclose(e2, -0.5 * PAULI[j - 1])
        _, e2 = np_block_pattern(3, True, "spin_half_plus")
        np.testing.assert_allclose(e2, +0.5 * PAULI[2])

    def test_minus_blocks_are_conjugates(self):
        # each in the tetrad its representation is block diagonal in
        _, plus = np_block_residuals("spin_half_plus")
        _, minus = np_block_residuals("spin_half_minus")
        for (pair, _, _, a_plus, _), (pair_minus, _, _, a_minus, _) in zip(plus, minus):
            assert pair_minus == pair
            np.testing.assert_allclose(a_minus, np.conj(a_plus), atol=1e-14)

    @pytest.mark.parametrize("kind, tetrad", [("spin_half_plus", np_matrix),
                                              ("spin_half_minus", np_matrix_conjugate)])
    def test_block_residuals_pick_the_tetrad(self, kind, tetrad):
        got, entries = np_block_residuals(kind)
        want = tetrad()
        assert got.labels == want.labels
        assert got.matrix.tobytes() == want.matrix.tobytes()
        assert got.inverse.tobytes() == want.inverse.tobytes()
        assert [entry[:3] for entry in entries] == (
            [((0, j), j, True) for j in (1, 2, 3)] + [(DUAL_PAIRS[j], j, False) for j in (1, 2, 3)])
        for pair, _, _, matrix, _ in entries:
            want_matrix = to_np_basis(Representation(kind).angular_matrix(*pair), want)
            assert matrix.tobytes() == want_matrix.tobytes()


class TestNonFiniteFlows:
    def test_half_flow_checks_its_input_and_result(self):
        # the input checks are rows of tests/test_contract.py::INPUT_ERRORS
        # X^2 = I/4 and finite coefficients, but the entry 1e300 overflows
        x = np.diag([0.5, -0.5, 0.5, -0.5]) + np.diag([1e300, 0.0, 0.0], k=1)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=r"^non-finite result at phi=50:"):
            half_flow_closed(x, 50.0)


# Closed flows written as before the (D, D^2) tables: a fresh identity, D from
# d_basis and D @ D at every call.  Each returns the flow or the message of
# the ValueError it raised: a NaN or infinite phi is an input error, a
# finite one an overflow.
def _reference_result(g, phi):
    if np.isfinite(g).all():
        return g
    if not np.isfinite(phi):
        return f"phi must be finite, got {phi:.17g}"
    return (f"non-finite result at phi={phi:.17g}: the flow overflows double "
            "precision; reduce phi")


def reference_spin1_flow(alpha, beta, phi):
    # cosh/sinh on a boost plane (exactly one index 0), cos/sin otherwise
    odd, even = ((np.sinh(phi), np.cosh(phi) - 1.0) if (alpha == 0) != (beta == 0)
                 else (np.sin(phi), 1.0 - np.cos(phi)))
    d = d_basis(alpha, beta)
    return _reference_result(np.eye(4, dtype=np.complex128) + odd * d + even * (d @ d), phi)


def reference_half_flow(x, phi):
    s = (x @ x)[0, 0] / 0.25
    even, odd = ((np.cosh(phi / 2), 2 * np.sinh(phi / 2)) if abs(s - 1.0) < 1e-12
                 else (np.cos(phi / 2), 2 * np.sin(phi / 2)))
    return _reference_result(even * np.eye(4, dtype=np.complex128) + odd * x, phi)


INDEX_PAIRS = [(a, b) for a in range(4) for b in range(4)]
# 0, tiny, ordinary and large rapidities, both sides of the spin-1 boost's
# overflow (cosh and sinh) and of the spin-1/2 boost's (2 sinh(phi/2), then
# cosh(phi/2)), and the non-finite ones.  With their negatives, 2.0 and 4.0
# put phi/2 in each quadrant: at -4.0 both cos(phi/2) and sin(phi/2) are
# negative, where the formula leaves -0.0 real parts in a spin-1/2 rotation
# that a dot product never gives.
FLOW_PHIS = [0.0, 1e-300, 0.7, 2.0, 4.0, 30.0, 710.4758600739439, 710.475860073944,
             1419.565425786768, 1419.5654257867682, 1420.0, 1422.0, np.inf]
FLOW_PHIS = FLOW_PHIS + [-phi for phi in FLOW_PHIS] + [np.nan]


class TestClosedFlowContract:
    @pytest.mark.parametrize("phi", FLOW_PHIS)
    def test_bits_match_the_per_call_formula(self, phi):
        # every pair of all three kinds, as uint64 views; where the formula
        # is not finite, the same ValueError
        calls = [(boost_flow_closed, (j,), lambda j, phi: reference_spin1_flow(0, j, phi))
                 for j in range(4)]
        calls += [(rotation_flow_closed, pair, reference_spin1_flow) for pair in INDEX_PAIRS]
        # the table images, whose square is checked at import, and writable
        # copies of them, checked on every call
        calls += [(half_flow_closed, (image,), reference_half_flow)
                  for rep in (PLUS, MINUS) for pair in ORDERED_PAIRS
                  for image in (rep.angular_matrix(*pair), rep.angular_matrix(*pair).copy())]
        with np.errstate(all="ignore"):
            for flow, args, reference in calls:
                want = reference(*args, phi)
                if isinstance(want, str):
                    with pytest.raises(ValueError) as exc:
                        flow(*args, phi)
                    assert str(exc.value) == want
                else:
                    np.testing.assert_array_equal(flow(*args, phi).view(np.uint64),
                                                  want.view(np.uint64))

    def test_table_images_skip_the_square_check(self, monkeypatch):
        # The sign of X^2 of each table image is read from the table built at
        # import; any other array, a copy of an image too, is checked per call.
        def refuse(x):
            raise AssertionError("square check reached")

        monkeypatch.setattr(representations, "_square_sign", refuse)
        for rep in (PLUS, MINUS):
            for pair in ORDERED_PAIRS:
                x = rep.angular_matrix(*pair)
                for phi in (-3.1, 0.0, 0.4, 25.0):
                    np.testing.assert_array_equal(half_flow_closed(x, phi).view(np.uint64),
                                                  reference_half_flow(x, phi).view(np.uint64))
                with pytest.raises(AssertionError, match="square check reached"):
                    half_flow_closed(x.copy(), 0.4)

    @pytest.mark.parametrize("flow, args, reference, phi", [
        (boost_flow_closed, (1,), lambda j, phi: reference_spin1_flow(0, j, phi), 1e3),
        (rotation_flow_closed, (2, 0), reference_spin1_flow, -1e3),
        (half_flow_closed, (PLUS.angular_matrix(0, 3),), reference_half_flow, 3e3),
        (half_flow_closed, (MINUS.angular_matrix(2, 0).copy(),), reference_half_flow, -3e3),
    ], ids=["boost", "spin1-label", "half-table-image", "half-copy"])
    def test_an_overflow_warns_then_raises(self, flow, args, reference, phi):
        # numpy's RuntimeWarnings of the elementwise formula, overflow first,
        # then the library's error
        def warned(call, *args):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    result = call(*args)
                except ValueError as exc:
                    result = str(exc)
            return result, [(w.category, str(w.message)) for w in caught]

        got, got_warnings = warned(flow, *args, phi)
        want, want_warnings = warned(reference, *args, phi)
        assert got == want == (f"non-finite result at phi={phi:.17g}: the flow overflows "
                               "double precision; reduce phi")
        assert got_warnings == want_warnings
        assert want_warnings[0][0] is RuntimeWarning
        assert want_warnings[0][1].startswith("overflow encountered")

    def test_a_finite_flow_of_a_table_image_warns_nothing(self):
        # every label and table image at every phi whose flow is finite, the
        # formula's quadrant included
        calls = [(rotation_flow_closed, pair, reference_spin1_flow) for pair in INDEX_PAIRS]
        calls += [(half_flow_closed, (rep.angular_matrix(*pair),), reference_half_flow)
                  for rep in (PLUS, MINUS) for pair in ORDERED_PAIRS]
        for phi in FLOW_PHIS:
            for flow, args, reference in calls:
                with np.errstate(all="ignore"):
                    finite = not isinstance(reference(*args, phi), str)
                if finite:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        flow(*args, phi)

    def test_equal_indices_give_the_identity(self):
        # D = 0, so the flow is exact at every finite phi, beyond the
        # boosts' overflow too
        for phi in (0.7, 1e3, -1e300):
            np.testing.assert_array_equal(boost_flow_closed(0, phi), np.eye(4))
            for k in range(4):
                np.testing.assert_array_equal(rotation_flow_closed(k, k, phi), np.eye(4))
