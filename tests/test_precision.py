"""The closed-form flows and the closed-form evolution judged in units of
EPS against the 50-digit ``decimal`` reference of ``decimal_reference``, and
the reference judged against itself and against ``math``."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

import decimal_reference as ref
from relphase import (EMField, Representation, d_basis, evolve_closed_form, exp_faraday,
                      half_flow_closed, invariant_z, rotation_flow_closed)

ARGS = [0.5, -0.5, 1e-8, 0.75, 1.0, 3.0, -7.25, 10.0, 20.0, -20.0, math.pi, 700.0]
RAPIDITIES = np.random.default_rng(2029).uniform(-20.0, 20.0, 32)
HALF_IMAGES = [Representation(kind).angular_matrix(a, b)
               for kind in ("spin_half_plus", "spin_half_minus")
               for a in range(4) for b in range(4) if a != b]

# Worst errors over RAPIDITIES, measured with numpy 2.4.6 on an x86-64 host
# with AVX-512, before the table-image path of half_flow_closed: 0.449
# (half_flow_closed) and 0.738 (rotation_flow_closed) with every numpy
# kernel, 0.782 and 0.738 with numpy's AVX-512 kernels disabled and with its
# X86_V3 kernels disabled too (NPY_DISABLE_CPU_FEATURES).  Over 600 other
# rapidities the worst was 0.93 and 0.97 at the baseline level.
HALF_BUDGET = 1.0
ROTATION_BUDGET = 1.0


def field_cases():
    """(e, b, tau, p0) for 24 uniform fields, 21 near-null fields, pure-E
    fields (with B = -0.0), pure-B fields, an exact null and a zero field.

    A near-null field is a unit E and a B of nearly the same length and
    nearly perpendicular, turned by a random rotation, with |w tau| from
    1e-7 to 1e-1 on a geometric grid and at 1.5e-2 and 2.9e-2: both branches
    of the sinh(x)/x kernel, whose Taylor series takes over below |x| =
    1e-4, and the range above that where a later switch would lose
    precision (its three terms are off by x^6 / 5040, about 530 EPS at
    x = 2.9e-2).
    """
    rng = np.random.default_rng(2030)
    cases = [(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3), rng.uniform(0, 10))
             for _ in range(24)]
    for x in [*np.geomspace(1e-7, 1e-1, 19), 1.5e-2, 2.9e-2]:
        tau = rng.uniform(0.5, 10)
        z = (2 * x / tau) ** 2 * np.exp(1j * rng.uniform(0, 2 * np.pi))
        turn = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        b = [z.imag / 2, np.sqrt(1 - z.imag ** 2 / 4 - z.real), 0]
        cases.append((turn @ [1.0, 0, 0], turn @ b, tau))
    for _ in range(4):
        cases.append((np.array([rng.uniform(-1, 1), 0, 0]), np.array([-0.0, 0, -0.0]),
                      rng.uniform(0, 10)))
        cases.append((np.zeros(3), rng.uniform(-1, 1, 3), rng.uniform(0, 10)))
    cases += [(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), 3.0), (np.zeros(3), np.zeros(3), 3.0)]
    p0s = rng.uniform(-1, 1, (len(cases), 4))
    return [(e, b, float(tau), p0) for (e, b, tau), p0 in zip(cases, p0s)]


FIELD_CASES = field_cases()
# The boost images X_1, X_2, X_3 of spin_half_plus (labels M01, M02, M03).
BOOSTS = HALF_IMAGES[:3]
# Worst errors over FIELD_CASES, measured with numpy 2.4.6 on an x86-64 host
# with AVX-512, before the single-field path of em (which keeps every bit):
# 3.70 (exp_faraday) and 15.4 (evolve_closed_form) with every numpy kernel
# and with numpy's AVX-512 kernels disabled, 3.52 and 15.4 with its X86_V3
# kernels disabled too, and the same under glibc's baseline libm.  With the
# Taylor switch at |x| = 3e-2 instead of 1e-4 they read 420 and 691.
FARADAY_BUDGET = 5.0
EVOLUTION_BUDGET = 20.0


class TestReference:
    def test_exact_at_zero(self):
        assert (ref.sinh(0.0), ref.cosh(0.0), ref.sin(0.0), ref.cos(0.0)) == (0, 1, 0, 1)
        for x in HALF_IMAGES[:2]:
            assert ref.eps_error(np.eye(4), ref.half_flow(x, 0.0)) == 0.0
        for k, l in ((0, 1), (1, 2), (3, 3)):
            assert ref.eps_error(np.eye(4), ref.rotation_flow(d_basis(k, l), 0.0)) == 0.0
        e, b, _, _ = FIELD_CASES[0]
        p0 = [1.0, -0.5, 0.25, 0.0]
        assert ref.eps_error(np.eye(4), ref.faraday_flow(e, b, 0.0, BOOSTS)) == 0.0
        assert ref.eps_error(p0, ref.evolution(e, b, p0, 0.0, BOOSTS)) == 0.0

    @pytest.mark.parametrize("tau", [0.25, 3.0, -6.5])
    def test_field_flow_series_against_exp(self, tau):
        # E = 0.75 e_x gives exp(tau Fc) = exp(0.75 tau X_1), B = 0.75 e_x
        # exp(0.75 tau (i X_1)): the kernel's power series against the
        # half flows' Decimal.exp and the sin and cos series, to 45 digits.
        x = BOOSTS[0]
        for e, b, gen in (([0.75, 0, 0], [0, 0, 0], x), ([0, 0, 0], [0.75, 0, 0], 1j * x)):
            got, want = ref.faraday_flow(e, b, tau, BOOSTS), ref.half_flow(gen, 0.75 * tau)
            for g_row, w_row in zip(got, want):
                for g, w in zip(g_row, w_row):
                    assert abs(g[0] - w[0]) + abs(g[1] - w[1]) <= Decimal("1e-45") * max(
                        1, abs(w[0]) + abs(w[1]))

    @pytest.mark.parametrize("x", ARGS)
    def test_identities_to_45_digits(self, x):
        s, c = ref.sinh(x), ref.cosh(x)
        sn, cs = ref.sin(x), ref.cos(x)
        with localcontext() as ctx:
            ctx.prec = 120
            assert abs(c * c - s * s - 1) <= Decimal("1e-45") * c * c
            assert abs(sn * sn + cs * cs - 1) <= Decimal("1e-45")

    @pytest.mark.parametrize("x", ARGS)
    def test_within_two_ulp_of_math(self, x):
        for mine, theirs in ((ref.sinh, math.sinh), (ref.cosh, math.cosh),
                             (ref.sin, math.sin), (ref.cos, math.cos)):
            want = theirs(x)
            assert abs(float(mine(x)) - want) <= 2 * math.ulp(want), mine.__name__

    def test_pi(self):
        assert float(ref.PI) == math.pi
        assert str(ref.PI).startswith("3.14159265358979323846264338327950288419716939937510")


def test_half_flow_closed_within_eps_budget():
    worst = max(ref.eps_error(half_flow_closed(x, phi), ref.half_flow(x, phi))
                for x in HALF_IMAGES for phi in RAPIDITIES)
    assert worst <= HALF_BUDGET


def test_rotation_flow_closed_within_eps_budget():
    worst = max(ref.eps_error(rotation_flow_closed(k, l, phi), ref.rotation_flow(d_basis(k, l), phi))
                for k in range(4) for l in range(4) for phi in RAPIDITIES)
    assert worst <= ROTATION_BUDGET


def test_field_cases_take_both_kernel_branches():
    x = [abs(invariant_z(EMField(e, b)).w * tau) for e, b, tau, _ in FIELD_CASES]
    assert sum(v < 1e-4 for v in x) >= 8 and sum(1e-4 <= v < 3e-2 for v in x) >= 6


def test_exp_faraday_within_eps_budget():
    worst = max(ref.eps_error(exp_faraday(EMField(e, b), tau), ref.faraday_flow(e, b, tau, BOOSTS))
                for e, b, tau, _ in FIELD_CASES)
    assert worst <= FARADAY_BUDGET


def test_evolve_closed_form_within_eps_budget():
    # relative to max(1, |p|), the scale evolve_closed_form judges its
    # imaginary residual on
    worst = max(ref.eps_error(evolve_closed_form(EMField(e, b), p0, tau),
                              ref.evolution(e, b, p0, tau, BOOSTS), whole=True)
                for e, b, tau, p0 in FIELD_CASES)
    assert worst <= EVOLUTION_BUDGET
