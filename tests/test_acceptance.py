"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  Residuals are scale-relative (difference divided by
max(1, operand size)) so that exponentially grown momenta and flows are
judged against their own magnitude; for order-1 quantities this coincides
with the absolute residual.
"""

import time

import numpy as np

from relphase import EMField, Representation, d_basis, d_pm, exponential_flow
from relphase.representations import DUAL_PAIRS, np_block_residuals
from relphase.verify import (_jordan_check, _poincare_checks,
                             boost_closed_form_residual, car_residual,
                             closed_form_rk4_residual, commuting_factor_residual,
                             explicit_commutator_residual, half_angle_period_residual,
                             shell_and_reality_residuals, tripotency_residual)

SPIN1 = Representation("spin1")
PLUS = Representation("spin_half_plus")
MINUS = Representation("spin_half_minus")


def report(number, name, worst, tolerance, note=""):
    ok = worst <= tolerance
    suffix = f"  [{note}]" if note else ""
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'} "
          f"(max residual {worst:.3e}, tolerance {tolerance:g}){suffix}")
    assert ok, f"criterion {number} ({name}): residual {worst:.3e} > {tolerance:g}"


def acceptance_fields(count=100, nulls=5, seed=2024):
    """Seeded field stack with |E|, |B| <= 1 and a guaranteed null subset."""
    rng = np.random.default_rng(seed)
    fields = []
    for _ in range(nulls):
        e1 = rng.standard_normal(3)
        e1 /= np.linalg.norm(e1)
        v = rng.standard_normal(3)
        e2 = v - (v @ e1) * e1
        e2 /= np.linalg.norm(e2)
        amp = rng.uniform(0.2, 1.0)
        fields.append((amp * e1, amp * e2))
    while len(fields) < count:
        e = rng.uniform(-1, 1, 3)
        b = rng.uniform(-1, 1, 3)
        if np.linalg.norm(e) > 1 or np.linalg.norm(b) > 1:
            continue
        fields.append((e, b))
    e, b = np.array(fields).transpose(1, 0, 2)
    return EMField(e, b)


def test_criterion_1_spin1_poincare_relations():
    t0 = time.perf_counter()
    worst = max(c.residual for c in _poincare_checks(SPIN1, SPIN1.kind))
    elapsed = time.perf_counter() - t0
    report(1, "spin-1 generator commutation relations", worst, 1e-13,
           note=f"runtime {elapsed:.2f}s")
    assert elapsed < 1.0


def test_criterion_2_spin_half_relations_and_explicit_cases():
    worst = max(c.residual for rep in (PLUS, MINUS) for c in _poincare_checks(rep, rep.kind))
    report(2, "spin-1/2 commutation relations (both signs)", worst, 1e-13)

    report(2, "four explicit rotation/boost commutators", explicit_commutator_residual(PLUS), 1e-14,
           note="two signs corrected for consistency with the bracket table")


def test_criterion_3_jordan_identity():
    worst = _jordan_check(np.random.default_rng(500)).residual
    report(3, "triple-product derivation identity, 500 seeded quadruples",
           worst, 1e-10)


def test_criterion_4_car_and_tripotency():
    worst = max(car_residual([d_pm(j, s) for j in (1, 2, 3)]) for s in (+1, -1))
    report(4, "canonical anticommutation relations", worst, 1e-14)

    # Every entry is 0 or of size 1, so the scale of the residual is exactly 1.
    worst = tripotency_residual([d_basis(0, j) for j in (1, 2, 3)]
                                + [1j * d_basis(*pair) for pair in DUAL_PAIRS.values()])
    report(4, "tripotency of boost and rotation generators", worst, 1e-14)


def test_criterion_5_boost_reproduction():
    phis = (0.5, 1.0, 2.0)
    flows = [exponential_flow(d_basis(0, 1), phi) for phi in phis]
    report(5, "boost matrix reproduction (entries cosh/sinh)",
           boost_closed_form_residual(phis, flows), 1e-12,
           note="off-diagonal sign is -sinh; displayed form is rapidity -phi")


def test_criterion_6_null_tetrad_pauli_blocks():
    worst = max(max(res) for *_, res in np_block_residuals("spin_half_plus")[1])
    report(6, "six angular generators block-diagonal with Pauli blocks",
           worst, 1e-12,
           note="second block carries a documented sign flip on axis 3")


def test_criterion_7_evolution_solver():
    t0 = time.perf_counter()
    fields = acceptance_fields()
    assert np.count_nonzero(np.abs(np.sum(fields.faraday_vector ** 2, axis=-1)) < 1e-12) >= 5
    p0s = np.random.default_rng(77).uniform(-1, 1, (len(fields.e), 4))
    worst_dev = closed_form_rk4_residual(fields, p0s, 10.0, 10_000)
    worst_shell, worst_imag = shell_and_reality_residuals(fields, p0s, np.linspace(0.0, 10.0, 9))
    elapsed = time.perf_counter() - t0
    report(7, "closed form vs Runge-Kutta, 100 fields", worst_dev, 1e-8,
           note=f"runtime {elapsed:.1f}s")
    report(7, "mass-shell conservation along the flow", worst_shell, 1e-10)
    report(7, "reality of the evolved momentum", worst_imag, 1e-11)
    assert elapsed < 30.0


def test_criterion_8_commuting_factor_identity():
    worst = commuting_factor_residual(acceptance_fields(), (0.5, 2.0, 10.0))
    report(8, "joint exponential equals commuting factor product", worst, 1e-11)


def test_criterion_9_half_angle_periods():
    worst = half_angle_period_residual(PLUS.angular_matrix(1, 2), d_basis(1, 2))
    report(9, "4-pi periodicity of the spin-1/2 rotation flow", worst, 1e-11,
           note="full turn gives -I for spin 1/2, +I for spin 1")
