"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  Residuals are scale-relative (difference divided by
max(1, operand size)) so that exponentially grown momenta and flows are
judged against their own magnitude; for order-1 quantities this coincides
with the absolute residual.
"""

import time

import numpy as np
import pytest

from relphase import (ETA, EMField, Representation, boost_flow_closed,
                      commutator, d_basis, d_operator, d_pm,
                      evolution_generator, evolve_closed_form, evolve_numeric,
                      exp_faraday, exponential_flow, faraday_conjugate,
                      faraday_tensor, np_block_pattern, np_blocks,
                      to_np_basis)
from relphase.representations import DUAL_PAIRS
from relphase.verify import _poincare_checks

SPIN1 = Representation("spin1")
PLUS = Representation("spin_half_plus")
MINUS = Representation("spin_half_minus")


def rel(x, y):
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    scale = max(1.0, np.abs(x).max(initial=0), np.abs(y).max(initial=0))
    return float(np.abs(x - y).max(initial=0)) / scale


def report(number, name, worst, tolerance, note=""):
    ok = worst <= tolerance
    suffix = f"  [{note}]" if note else ""
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'} "
          f"(max residual {worst:.3e}, tolerance {tolerance:g}){suffix}")
    assert ok, f"criterion {number} ({name}): residual {worst:.3e} > {tolerance:g}"


def acceptance_fields(count=100, nulls=5, seed=2024):
    """Seeded field set with |E|, |B| <= 1 and a guaranteed null subset."""
    rng = np.random.default_rng(seed)
    fields = []
    for _ in range(nulls):
        e1 = rng.standard_normal(3)
        e1 /= np.linalg.norm(e1)
        v = rng.standard_normal(3)
        e2 = v - (v @ e1) * e1
        e2 /= np.linalg.norm(e2)
        amp = rng.uniform(0.2, 1.0)
        fields.append(EMField(amp * e1, amp * e2))
    while len(fields) < count:
        e = rng.uniform(-1, 1, 3)
        b = rng.uniform(-1, 1, 3)
        if np.linalg.norm(e) > 1 or np.linalg.norm(b) > 1:
            continue
        fields.append(EMField(e, b))
    return fields


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

    worst = 0.0
    lhs = commutator(PLUS.angular_matrix(2, 3), PLUS.angular_matrix(1, 2))
    worst = max(worst, rel(lhs, -PLUS.angular_matrix(3, 1)))
    lhs = commutator(PLUS.angular_matrix(0, 1), PLUS.angular_matrix(3, 1))
    worst = max(worst, rel(lhs, PLUS.angular_matrix(0, 3)))
    lhs = commutator(PLUS.angular_matrix(0, 1), PLUS.angular_matrix(0, 3))
    worst = max(worst, rel(lhs, PLUS.angular_matrix(3, 1)))
    lhs = commutator(PLUS.angular_matrix(0, 1), PLUS.angular_matrix(2, 3))
    worst = max(worst, float(np.abs(lhs).max()))
    report(2, "four explicit rotation/boost commutators", worst, 1e-14,
           note="two signs corrected for consistency with the bracket table")


def test_criterion_3_jordan_identity():
    rng = np.random.default_rng(500)
    worst = 0.0
    for _ in range(500):
        x, y, a, b = (rng.standard_normal(4) + 1j * rng.standard_normal(4)
                      for _ in range(4))
        lhs = commutator(d_operator(x, y), d_operator(a, b))
        rhs = d_operator(d_operator(x, y) @ a, b) - d_operator(a, d_operator(y, x) @ b)
        worst = max(worst, rel(lhs, rhs))
    report(3, "triple-product derivation identity, 500 seeded quadruples",
           worst, 1e-10)


def test_criterion_4_car_and_tripotency():
    worst = 0.0
    eye = np.eye(4)
    for s in (+1, -1):
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                anti = 0.5 * (d_pm(j, s) @ d_pm(k, s) + d_pm(k, s) @ d_pm(j, s))
                worst = max(worst, float(np.abs(anti - (eye if j == k else 0)).max()))
    report(4, "canonical anticommutation relations", worst, 1e-14)

    worst = 0.0
    for j in (1, 2, 3):
        d = d_basis(0, j)
        worst = max(worst, float(np.abs(d @ d @ d - d).max()))
    for pair in ((2, 3), (3, 1), (1, 2)):
        t = 1j * d_basis(*pair)
        worst = max(worst, float(np.abs(t @ t @ t - t).max()))
    report(4, "tripotency of boost and rotation generators", worst, 1e-14)


def test_criterion_5_boost_reproduction():
    worst = 0.0
    for phi in (0.5, 1.0, 2.0):
        flow = exponential_flow(d_basis(0, 1), phi)
        worst = max(worst, rel(boost_flow_closed(1, phi), flow))
        # textbook boost display, with the library's rapidity orientation
        pattern = np.eye(4)
        pattern[0, 0] = pattern[1, 1] = np.cosh(phi)
        pattern[0, 1] = pattern[1, 0] = -np.sinh(phi)
        worst = max(worst, rel(flow, pattern))
        worst = max(worst, rel(np.abs(flow), np.abs(pattern)))
    report(5, "boost matrix reproduction (entries cosh/sinh)", worst, 1e-12,
           note="off-diagonal sign is -sinh; displayed form is rapidity -phi")


def test_criterion_6_null_tetrad_pauli_blocks():
    worst = 0.0
    for j in (1, 2, 3):
        for boost in (True, False):
            pair = (0, j) if boost else DUAL_PAIRS[j]
            a = to_np_basis(PLUS.angular_matrix(*pair))
            b1, b2, off = np_blocks(a)
            e1, e2 = np_block_pattern(j, boost, "spin_half_plus")
            worst = max(worst, off, float(np.abs(b1 - e1).max()),
                        float(np.abs(b2 - e2).max()))
    report(6, "six angular generators block-diagonal with Pauli blocks",
           worst, 1e-12,
           note="second block carries a documented sign flip on axis 3")


def test_criterion_7_evolution_solver():
    t0 = time.perf_counter()
    fields = acceptance_fields()
    assert sum(1 for f in fields if abs(complex(np.sum(f.faraday_vector ** 2))) < 1e-12) >= 5
    rng = np.random.default_rng(77)
    worst_dev = worst_shell = worst_imag = 0.0
    taus = np.linspace(0.0, 10.0, 9)
    for f in fields:
        p0 = rng.uniform(-1, 1, 4)
        pc = evolve_closed_form(f, p0, 10.0)
        pn = evolve_numeric(f, p0, 10.0, 10_000)
        worst_dev = max(worst_dev, rel(pc, pn))
        shell0 = p0 @ ETA @ p0
        for tau in taus:
            x = exp_faraday(f, float(tau))
            p = np.conj(x) @ (x @ p0.astype(complex))
            scale = max(1.0, float(np.abs(p).max()))
            worst_imag = max(worst_imag, float(np.abs(p.imag).max()) / scale)
            worst_shell = max(worst_shell,
                              abs(p.real @ ETA @ p.real - shell0) / scale ** 2)
    elapsed = time.perf_counter() - t0
    report(7, "closed form vs Runge-Kutta, 100 fields", worst_dev, 1e-8,
           note=f"runtime {elapsed:.1f}s")
    report(7, "mass-shell conservation along the flow", worst_shell, 1e-10)
    report(7, "reality of the evolved momentum", worst_imag, 1e-11)
    assert elapsed < 30.0


def test_criterion_8_commuting_factor_identity():
    fields = acceptance_fields()
    worst = 0.0
    for f in fields:
        for tau in (0.5, 2.0, 10.0):
            joint = exponential_flow(evolution_generator(f), tau)
            split = (exponential_flow(faraday_conjugate(f), tau)
                     @ exponential_flow(faraday_tensor(f), tau))
            worst = max(worst, rel(joint, split))
    report(8, "joint exponential equals commuting factor product", worst, 1e-11)


def test_criterion_9_half_angle_periods():
    worst = 0.0
    x = PLUS.angular_matrix(1, 2)
    worst = max(worst, float(np.abs(exponential_flow(x, 2 * np.pi) + np.eye(4)).max()))
    worst = max(worst, float(np.abs(exponential_flow(x, 4 * np.pi) - np.eye(4)).max()))
    spin1_turn = exponential_flow(d_basis(1, 2), 2 * np.pi)
    worst = max(worst, float(np.abs(spin1_turn - np.eye(4)).max()))
    report(9, "4-pi periodicity of the spin-1/2 rotation flow", worst, 1e-11,
           note="full turn gives -I for spin 1/2, +I for spin 1")
