"""Numerical verification suites for every library invariant.

Each suite function returns a list of checks with a residual and the
tolerance the check is specified at.  Residuals are scale-relative: a
difference is divided by max(1, size of the operands), so checks behave like
absolute comparisons for order-1 quantities and like relative comparisons for
the exponentially large flows that appear at large rapidity or proper time.

All randomness flows through a single seeded generator.  The draw order is
the execution order of the suites as listed in :data:`SUITES`; a fixed seed
therefore reproduces every residual bit for bit.

Tolerance scaling: a check passes when residual <= tolerance * (scale /
DEFAULT_TOLERANCE).  With the default scale each check is judged at its
specified tolerance; tightening the scale tightens every check
proportionally.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import (ETA, basis, conjugate, decompose, scalar_product,
                   scalar_square, symplectic_bracket)
from .em import (EMField, _sinhc, evolution_generator, evolve_closed_form,
                 evolve_numeric, exp_faraday, faraday_components,
                 faraday_conjugate, faraday_tensor, field_tensor, invariant_z)
from .liealgebra import (QO_BASIS_PAIRS, GradedElement, QoElement, commutator,
                         graded_bracket, is_in_qo, qo_basis, qo_from_operator,
                         qo_realize)
from .representations import (DUAL_PAIRS, PoincareGenerator, Representation,
                              boost_flow_closed, d_pm, exponential_flow,
                              half_flow_closed, half_graded_bracket,
                              np_block_pattern, np_blocks, np_matrix,
                              np_matrix_conjugate, rotation_flow_closed,
                              to_np_basis)
from .triproduct import (d_basis, d_hat, d_operator, tri_product,
                         tri_product_coords)

DEFAULT_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Check:
    """One verified identity: an id, the measured residual, its tolerance."""

    id: str
    residual: float
    tolerance: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "residual", float(self.residual))
        object.__setattr__(self, "tolerance", float(self.tolerance))

    def passed(self, scale: float = DEFAULT_TOLERANCE) -> bool:
        return bool(self.residual <= self.tolerance * (scale / DEFAULT_TOLERANCE))


def _rel(a, b) -> float:
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    scale = max(1.0, float(np.abs(a).max(initial=0.0)), float(np.abs(b).max(initial=0.0)))
    return float(np.abs(a - b).max(initial=0.0)) / scale


def _worst(a, b) -> float:
    """Largest :func:`_rel` residual over draws along the leading axis.

    Each draw is reduced over its trailing axes, then the max is taken over
    draws; the result has the bits of the max of per-draw ``_rel`` calls.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    axes = tuple(range(1, a.ndim))
    scale = np.maximum(1.0, np.maximum(np.abs(a).max(axis=axes), np.abs(b).max(axis=axes)))
    return float((np.abs(a - b).max(axis=axes) / scale).max(initial=0.0))


def _rvec(rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal(4) + 1j * rng.standard_normal(4)


def _draw(rng: np.random.Generator, draws: int, *widths: int) -> list[np.ndarray]:
    """Complex inputs of ``draws`` independent draws from one block of normals.

    Per draw, width w takes 2w normals: w real parts, then w imaginary parts,
    the order in which :func:`_rvec` (w = 4) or a scalar factor drawn as
    ``rng.standard_normal() + 1j * rng.standard_normal()`` (w = 1) take
    them.  Returns one ``(draws, w)`` array per width.  The generator fills
    the block in the order a per-draw loop of those calls would read it, so
    the inputs and the generator state left behind are the same.
    """
    x = rng.standard_normal((draws, 2 * sum(widths)))
    out, k = [], 0
    for w in widths:
        out.append(x[:, k:k + w] + 1j * x[:, k + w:k + 2 * w])
        k += 2 * w
    return out


def _rfield(rng: np.random.Generator) -> EMField:
    return EMField(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))


_ANGULAR = list(QO_BASIS_PAIRS)


# ---------------------------------------------------------------------------
# core
# ---------------------------------------------------------------------------

def suite_core(rng: np.random.Generator, draws: int = 500) -> list[Check]:
    checks = []

    lam, a, b, c = _draw(rng, draws, 1, 4, 4, 4)
    mixed = lam * a + c
    lam = lam[:, 0]
    worst = max(_worst(scalar_product(mixed, b), lam * scalar_product(a, b) + scalar_product(c, b)),
                _worst(scalar_product(b, mixed), lam * scalar_product(b, a) + scalar_product(b, c)))
    checks.append(Check("core.bilinearity", worst, 1e-12))

    a, b = _draw(rng, draws, 4, 4)
    worst = float(np.abs(scalar_product(a, b) - scalar_product(b, a)).max())
    checks.append(Check("core.symmetry", worst, 1e-15))

    (a,) = _draw(rng, draws, 4)
    p, x = decompose(a)
    s = scalar_product(conjugate(a), a)
    sq = scalar_square(a)
    worst = max(_worst(scalar_square(p), 0.5 * (s + sq).real),
                _worst(scalar_square(x), 0.5 * (s - sq).real))
    checks.append(Check("core.decomposition_identities", worst, 1e-12))

    # p and q carry two real vectors each: momenta in the real parts,
    # positions in the imaginary parts.
    a, b, p, q = _draw(rng, 100, 4, 4, 4, 4)
    worst = float(max(np.abs(symplectic_bracket(a, b) + symplectic_bracket(b, a)).max(),
                      np.abs(symplectic_bracket(p.real, q.real)).max(),
                      np.abs(symplectic_bracket(1j * p.imag, 1j * q.imag)).max()))
    checks.append(Check("core.symplectic_skew", worst, 1e-14))

    return checks


# ---------------------------------------------------------------------------
# triproduct
# ---------------------------------------------------------------------------

def _jordan_check(rng: np.random.Generator, draws: int) -> Check:
    """Derivation identity [D(x,y), D(a,b)] = D(D(x,y)a, b) - D(a, D(y,x)b)."""
    x, y, a, b = _draw(rng, draws, 4, 4, 4, 4)
    dxy = d_operator(x, y)
    lhs = commutator(dxy, d_operator(a, b))
    rhs = d_operator(np.matvec(dxy, a), b) - d_operator(a, np.matvec(d_operator(y, x), b))
    return Check("tri.jordan_identity", _worst(lhs, rhs), 1e-10)


def suite_triproduct(rng: np.random.Generator, draws: int = 500) -> list[Check]:
    checks = []

    a, b, c = _draw(rng, draws, 4, 4, 4)
    checks.append(Check("tri.outer_symmetry",
                        _worst(tri_product(a, b, c), tri_product(c, b, a)), 1e-12))

    lam, a, a2, b, c = _draw(rng, 100, 1, 4, 4, 4, 4)
    mixed = lam * a + a2
    worst = max(_worst(tri_product(mixed, b, c),
                       lam * tri_product(a, b, c) + tri_product(a2, b, c)),
                _worst(tri_product(b, mixed, c),
                       lam * tri_product(b, a, c) + tri_product(b, a2, c)),
                _worst(tri_product(b, c, mixed),
                       lam * tri_product(b, c, a) + tri_product(b, c, a2)))
    checks.append(Check("tri.trilinearity", worst, 1e-12))

    checks.append(_jordan_check(rng, draws))

    a, b, c = _draw(rng, draws, 4, 4, 4)
    checks.append(Check("tri.coordinate_form",
                        _worst(tri_product(a, b, c), tri_product_coords(a, b, c)), 1e-13))

    pairs = np.array([(alpha, beta) for alpha in range(4) for beta in range(4)])
    units = np.stack([basis(mu) for mu in range(4)])
    closed = np.stack([d_basis(alpha, beta) for alpha, beta in pairs])
    worst = float(np.abs(closed - d_hat(units[pairs[:, 0]], units[pairs[:, 1]])).max())
    checks.append(Check("tri.basis_operator_agreement", worst, 1e-15))

    return checks


# ---------------------------------------------------------------------------
# liealgebra
# ---------------------------------------------------------------------------

def _random_qo(rng: np.random.Generator, real_coeffs: bool = False) -> QoElement:
    coeffs = rng.standard_normal((4, 4)).astype(np.complex128)
    if not real_coeffs:
        coeffs = coeffs + 1j * rng.standard_normal((4, 4))
    return qo_realize(coeffs - coeffs.T)


def _random_graded(rng: np.random.Generator, real_ops: bool = False) -> GradedElement:
    return GradedElement(_random_qo(rng, real_coeffs=real_ops), _rvec(rng),
                         complex(rng.standard_normal() + 1j * rng.standard_normal()))


def suite_liealgebra(rng: np.random.Generator) -> list[Check]:
    checks = []
    dmat = qo_basis()

    worst = 0.0
    for (m, n) in _ANGULAR:
        for (a, b) in _ANGULAR:
            lhs = commutator(dmat[(m, n)], dmat[(a, b)])
            rhs = (ETA[n, a] * d_basis(m, b) - ETA[m, a] * d_basis(n, b)
                   + ETA[n, b] * d_basis(a, m) - ETA[m, b] * d_basis(a, n))
            worst = max(worst, _rel(lhs, rhs))
    checks.append(Check("qo.bracket_table", worst, 1e-13))

    # Dimension: the six generators are independent and exhaust the solution
    # space of X^T eta + eta X = 0.
    flat = np.stack([dmat[p].reshape(16) for p in _ANGULAR])
    rank = np.linalg.matrix_rank(flat, tol=1e-10)
    constraint = np.zeros((16, 16))
    eye = np.eye(4)
    for i in range(4):
        for j in range(4):
            e = np.outer(eye[i], eye[j])
            constraint[:, 4 * i + j] = (e.T @ ETA + ETA @ e).reshape(16)
    null_dim = 16 - np.linalg.matrix_rank(constraint, tol=1e-10)
    _, _, vh = np.linalg.svd(constraint)
    null_basis = vh[np.linalg.matrix_rank(constraint, tol=1e-10):]
    # residual of projecting each null vector onto the generator span
    proj = null_basis @ np.linalg.pinv(flat) @ flat
    span_resid = float(np.abs(proj - null_basis).max())
    dim_resid = float(abs(rank - 6) + abs(null_dim - 6)) + span_resid
    checks.append(Check("qo.dimension_six", dim_resid, 1e-12))

    worst = 0.0
    for _ in range(100):
        x, y = _random_graded(rng), _random_graded(rng)
        s = graded_bracket(x, y) + graded_bracket(y, x)
        worst = max(worst, s.norm() / max(1.0, x.norm() * y.norm()))
    checks.append(Check("graded.antisymmetry", worst, 1e-10))

    # Jacobi on the real form: grade-0 parts with real coefficients.  With
    # fully complex grade-0 parts the mixed identity provably fails (the
    # grade-2 pairing is real-valued); see the graded_bracket docstring.
    worst = 0.0
    for _ in range(100):
        x = _random_graded(rng, real_ops=True)
        y = _random_graded(rng, real_ops=True)
        z = _random_graded(rng, real_ops=True)
        s = (graded_bracket(graded_bracket(x, y), z)
             + graded_bracket(graded_bracket(y, z), x)
             + graded_bracket(graded_bracket(z, x), y))
        scale = max(1.0, x.norm() * y.norm() * z.norm())
        worst = max(worst, s.norm() / scale)
    checks.append(Check("graded.jacobi_real_form", worst, 1e-10))

    worst = 0.0
    for _ in range(20):
        q = _random_qo(rng)
        for t in (0.1, 1.0, 2.5):
            g = exponential_flow(q.matrix, t)
            resid = np.abs(g.T @ ETA @ g - ETA).max()
            worst = max(worst, float(resid) / max(1.0, float(np.abs(g).max()) ** 2))
    checks.append(Check("qo.exponential_in_group", worst, 1e-12))

    return checks


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

def _poincare_checks(rep: Representation, tag: str) -> list[Check]:
    checks = []

    worst = 0.0
    for mu in range(4):
        for nu in range(4):
            br = rep.bracket(rep(PoincareGenerator.translation(mu)),
                             rep(PoincareGenerator.translation(nu)))
            worst = max(worst, br.norm())
    checks.append(Check(f"{tag}.translation_brackets_vanish", worst, 1e-13))

    worst = 0.0
    for (alpha, beta) in _ANGULAR:
        x = rep(PoincareGenerator.angular(alpha, beta))
        for mu in range(4):
            br = rep.bracket(x, rep(PoincareGenerator.translation(mu)))
            expected = (ETA[mu, beta] * basis(alpha) - ETA[mu, alpha] * basis(beta))
            worst = max(worst, _rel(br.l1, expected))
            worst = max(worst, float(np.abs(br.l0.matrix).max()), abs(br.l2))
    checks.append(Check(f"{tag}.angular_translation_brackets", worst, 1e-13))

    worst = 0.0
    for (m, n) in _ANGULAR:
        for (a, b) in _ANGULAR:
            br = rep.bracket(rep(PoincareGenerator.angular(m, n)),
                             rep(PoincareGenerator.angular(a, b)))
            expected = (ETA[m, b] * _ang_mat(rep, n, a) + ETA[n, a] * _ang_mat(rep, m, b)
                        - ETA[m, a] * _ang_mat(rep, n, b) - ETA[n, b] * _ang_mat(rep, m, a))
            worst = max(worst, _rel(br.l0.matrix, expected))
    checks.append(Check(f"{tag}.angular_angular_brackets", worst, 1e-13))

    return checks


def _ang_mat(rep: Representation, alpha: int, beta: int) -> np.ndarray:
    if alpha == beta:
        return np.zeros((4, 4), dtype=np.complex128)
    return rep.angular_matrix(alpha, beta)


def suite_representations(rng: np.random.Generator) -> list[Check]:
    checks = []
    spin1 = Representation("spin1")
    plus = Representation("spin_half_plus")
    minus = Representation("spin_half_minus")

    for rep, tag in ((spin1, "rep.spin1"), (plus, "rep.plus"), (minus, "rep.minus")):
        checks.extend(_poincare_checks(rep, tag))

    # The four explicitly verifiable spin-1/2 commutators.  The signs of the
    # second and third are pinned by the angular bracket table (the same
    # relation the suite above checks exhaustively).
    worst = 0.0
    cases = [
        ((2, 3), (1, 2), (3, 1), -1.0),
        ((0, 1), (3, 1), (0, 3), +1.0),
        ((0, 1), (0, 3), (3, 1), +1.0),
    ]
    for (p1, p2, pr, sgn) in cases:
        lhs = commutator(plus.angular_matrix(*p1), plus.angular_matrix(*p2))
        worst = max(worst, _rel(lhs, sgn * plus.angular_matrix(*pr)))
    lhs = commutator(plus.angular_matrix(0, 1), plus.angular_matrix(2, 3))
    worst = max(worst, float(np.abs(lhs).max()))
    checks.append(Check("rep.plus.explicit_commutators", worst, 1e-14))

    worst = 0.0
    eye = np.eye(4)
    for j in (1, 2, 3):
        d = d_basis(0, j)
        worst = max(worst, _rel(d @ d @ d, d))
        for s in (+1, -1):
            t = d_pm(j, s)
            worst = max(worst, _rel(t @ t @ t, t))
    for (k, l) in ((2, 3), (3, 1), (1, 2)):
        t = 1j * d_basis(k, l)
        worst = max(worst, _rel(t @ t @ t, t))
    checks.append(Check("rep.tripotency", worst, 1e-14))

    worst = 0.0
    for s in (+1, -1):
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                anti = 0.5 * (d_pm(j, s) @ d_pm(k, s) + d_pm(k, s) @ d_pm(j, s))
                worst = max(worst, float(np.abs(anti - (eye if j == k else 0)).max()))
    checks.append(Check("rep.car", worst, 1e-14))

    worst = 0.0
    for j in (1, 2, 3):
        bq = plus.angular_matrix(0, j)
        worst = max(worst, float(np.abs(bq @ bq - 0.25 * eye).max()))
        rq = plus.angular_matrix(*DUAL_PAIRS[j])
        worst = max(worst, float(np.abs(rq @ rq + 0.25 * eye).max()))
    checks.append(Check("rep.plus.generator_squares", worst, 1e-14))

    # Jacobi for the spin-1/2 bracket on its own image, where the conjugate
    # pairs commute and grade-0-plus-conjugate parts are real.
    worst = 0.0
    boosts = [plus.angular_matrix(0, j) for j in (1, 2, 3)]
    for _ in range(60):
        def img_elem() -> GradedElement:
            c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            op = qo_from_operator(c[0] * boosts[0] + c[1] * boosts[1] + c[2] * boosts[2])
            return GradedElement(op, _rvec(rng),
                                 complex(rng.standard_normal() + 1j * rng.standard_normal()))

        x, y, z = img_elem(), img_elem(), img_elem()
        s = (half_graded_bracket(half_graded_bracket(x, y), z)
             + half_graded_bracket(half_graded_bracket(y, z), x)
             + half_graded_bracket(half_graded_bracket(z, x), y))
        worst = max(worst, s.norm() / max(1.0, x.norm() * y.norm() * z.norm()))
    checks.append(Check("rep.half_bracket_jacobi_on_image", worst, 1e-10))

    worst = 0.0
    for rep in (spin1, plus, minus):
        for pair in _ANGULAR:
            x = rep.angular_matrix(*pair)
            for phi in (0.3, 1.0, 5.0):
                gp = exponential_flow(x, phi)
                gm = exponential_flow(x, -phi)
                scale = max(1.0, float(np.abs(gp).max()) * float(np.abs(gm).max()))
                worst = max(worst, float(np.abs(gp @ gm - eye).max()) / scale)
    checks.append(Check("rep.flow_inverse", worst, 1e-12))

    worst = 0.0
    for pair in _ANGULAR:
        g = exponential_flow(spin1.angular_matrix(*pair), 0.8)
        vr = rng.standard_normal(4)
        worst = max(worst, float(np.abs((g @ vr).imag).max()))
        worst = max(worst, float(np.abs((g @ (1j * vr)).real).max()))
    checks.append(Check("rep.spin1.flow_preserves_real_subspaces", worst, 1e-13))

    worst = 0.0
    for pair in _ANGULAR:
        worst = max(worst, float(np.abs(minus.angular_matrix(*pair)
                                        - np.conj(plus.angular_matrix(*pair))).max()))
    checks.append(Check("rep.minus_is_conjugate", worst, 1e-15))

    tetrad = np_matrix()
    worst = float(np.abs(tetrad.matrix @ tetrad.inverse - eye).max())
    worst = max(worst, float(np.abs(tetrad.inverse @ tetrad.matrix - eye).max()))
    v = _rvec(rng)
    worst = max(worst, _rel(tetrad.from_np_coords(tetrad.to_np_coords(v)), v))
    checks.append(Check("rep.np_round_trip", worst, 1e-15))

    worst = 0.0
    for rep, kind, tet in ((plus, "spin_half_plus", np_matrix()),
                           (minus, "spin_half_minus", np_matrix_conjugate())):
        for j in (1, 2, 3):
            for boost in (True, False):
                pair = (0, j) if boost else DUAL_PAIRS[j]
                a = to_np_basis(rep.angular_matrix(*pair), tet)
                b1, b2, off = np_blocks(a)
                e1, e2 = np_block_pattern(j, boost, kind)
                worst = max(worst, off, float(np.abs(b1 - e1).max()), float(np.abs(b2 - e2).max()))
    checks.append(Check("rep.np_pauli_blocks", worst, 1e-12))

    x = plus.angular_matrix(1, 2)
    worst = float(np.abs(exponential_flow(x, 2 * np.pi) + eye).max())
    worst = max(worst, float(np.abs(exponential_flow(x, 4 * np.pi) - eye).max()))
    worst = max(worst, float(np.abs(exponential_flow(d_basis(1, 2), 2 * np.pi) - eye).max()))
    checks.append(Check("rep.half_angle_periods", worst, 1e-11))

    worst = 0.0
    for phi in (0.5, 1.0, 2.0):
        worst = max(worst, _rel(boost_flow_closed(1, phi),
                                exponential_flow(d_basis(0, 1), phi)))
        expected_abs = np.eye(4)
        expected_abs[0, 0] = expected_abs[1, 1] = np.cosh(phi)
        expected_abs[0, 1] = expected_abs[1, 0] = np.sinh(phi)
        worst = max(worst, _rel(np.abs(exponential_flow(d_basis(0, 1), phi)), expected_abs))
    checks.append(Check("rep.boost_closed_form", worst, 1e-12))

    worst = 0.0
    for j in (1, 2, 3):
        for phi in (0.3, 1.0, 2.2):
            xb = plus.angular_matrix(0, j)
            worst = max(worst, _rel(half_flow_closed(xb, phi), exponential_flow(xb, phi)))
            xr = plus.angular_matrix(*DUAL_PAIRS[j])
            worst = max(worst, _rel(half_flow_closed(xr, phi), exponential_flow(xr, phi)))
            worst = max(worst, _rel(rotation_flow_closed(*DUAL_PAIRS[j], phi),
                                    exponential_flow(d_basis(*DUAL_PAIRS[j]), phi)))
    checks.append(Check("rep.half_flow_closed_forms", worst, 1e-12))

    return checks


# ---------------------------------------------------------------------------
# em
# ---------------------------------------------------------------------------

def suite_em(rng: np.random.Generator, draws: int = 500) -> list[Check]:
    checks = []
    eye = np.eye(4)

    fields = [_rfield(rng) for _ in range(draws)]

    worst = 0.0
    for f in fields:
        fc = faraday_tensor(f)
        worst = max(worst, _rel(fc @ fc, (invariant_z(f).z / 4.0) * eye))
    checks.append(Check("em.faraday_square_invariant", worst, 1e-12))

    worst = 0.0
    for f in fields:
        worst = max(worst, float(np.abs(commutator(faraday_tensor(f),
                                                   faraday_conjugate(f))).max()))
    checks.append(Check("em.conjugate_commutes", worst, 1e-12))

    worst = 0.0
    for f in fields[:60]:
        for tau in (0.5, 2.0, 10.0):
            lhs = exponential_flow(evolution_generator(f), tau)
            rhs = exponential_flow(faraday_conjugate(f), tau) @ exponential_flow(faraday_tensor(f), tau)
            worst = max(worst, _rel(lhs, rhs))
    checks.append(Check("em.commuting_factorization", worst, 1e-11))

    worst_shell = 0.0
    worst_real = 0.0
    taus = np.linspace(0.0, 10.0, 9)
    for f in fields[:40]:
        p0 = rng.uniform(-1, 1, 4)
        for tau in taus:
            x = exp_faraday(f, float(tau))
            p = np.conj(x) @ (x @ p0.astype(np.complex128))
            scale = max(1.0, float(np.abs(p).max()))
            worst_real = max(worst_real, float(np.abs(p.imag).max()) / scale)
            shell = abs((p.real @ ETA @ p.real) - (p0 @ ETA @ p0)) / scale ** 2
            worst_shell = max(worst_shell, shell)
    checks.append(Check("em.mass_shell_conserved", worst_shell, 1e-11))
    checks.append(Check("em.evolution_reality", worst_real, 1e-11))

    worst = 0.0
    plus = Representation("spin_half_plus")
    for f in fields[:40]:
        z = invariant_z(f).z
        j = int(rng.integers(1, 4))
        phi = float(rng.uniform(-1.5, 1.5))
        x = plus.angular_matrix(0, j)
        transformed = (exponential_flow(x, phi) @ faraday_tensor(f)
                       @ exponential_flow(x, -phi))
        comps = faraday_components(transformed)
        worst = max(worst, abs(complex(np.sum(comps * comps)) - z) / max(1.0, abs(z)))
    checks.append(Check("em.invariant_under_flows", worst, 1e-11))

    worst = 0.0
    for f in fields[:40]:
        inv = invariant_z(f)
        fc = faraday_tensor(f)
        for tau in (0.7, 3.0):
            wp = np.cosh(inv.w * tau) * eye + (tau * _sinhc(inv.w * tau)) * fc
            wm = np.cosh(-inv.w * tau) * eye + (tau * _sinhc(-inv.w * tau)) * fc
            worst = max(worst, float(np.abs(wp - wm).max()) / max(1.0, float(np.abs(wp).max())))
    checks.append(Check("em.branch_independence", worst, 1e-15))

    worst = 0.0
    for f in fields[:60]:
        q = field_tensor(f)
        ok = is_in_qo(q.matrix)
        worst = max(worst, 0.0 if ok else 1.0, float(np.abs(q.matrix.imag).max()))
    checks.append(Check("em.field_tensor_in_algebra", worst, 1e-12))

    worst = 0.0
    null = EMField([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    for tau in (0.5, 2.0, 7.0):
        fc = faraday_tensor(null)
        worst = max(worst, _rel(exp_faraday(null, tau), np.eye(4) + tau * fc))
    checks.append(Check("em.null_field_flow_linear", worst, 1e-12))

    worst = 0.0
    for f in fields[:3]:
        p0 = rng.uniform(-1, 1, 4)
        pc = evolve_closed_form(f, p0, 1.0)
        pn = evolve_numeric(f, p0, 1.0, 2000)
        worst = max(worst, _rel(pc, pn))
    checks.append(Check("em.closed_form_vs_rk4", worst, 1e-8))

    return checks


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

SUITES = (
    ("core", suite_core),
    ("triproduct", suite_triproduct),
    ("liealgebra", suite_liealgebra),
    ("representations", suite_representations),
    ("em", suite_em),
)


def run_all(seed: int = 42) -> Iterator[tuple[str, list[Check]]]:
    """Run every suite with one seeded generator; deterministic per seed.

    Yields (suite name, checks) in the order of :data:`SUITES`, each suite
    run only when the next pair is requested, so a caller can time them.
    """
    rng = np.random.default_rng(seed)
    for name, fn in SUITES:
        yield name, fn(rng)
