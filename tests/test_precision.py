"""The closed-form flows judged in units of EPS against the 50-digit
``decimal`` reference of ``decimal_reference``, and the reference judged
against itself and against ``math``."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

import decimal_reference as ref
from relphase import Representation, d_basis, half_flow_closed, rotation_flow_closed

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


class TestReference:
    def test_exact_at_zero(self):
        assert (ref.sinh(0.0), ref.cosh(0.0), ref.sin(0.0), ref.cos(0.0)) == (0, 1, 0, 1)
        for x in HALF_IMAGES[:2]:
            assert ref.eps_error(np.eye(4), ref.half_flow(x, 0.0)) == 0.0
        for k, l in ((0, 1), (1, 2), (3, 3)):
            assert ref.eps_error(np.eye(4), ref.rotation_flow(d_basis(k, l), 0.0)) == 0.0

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
