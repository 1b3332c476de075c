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

Each invariant is computed once.  An invariant that is also checked outside
this module has a residual function here that takes its inputs as arguments
(fields, momenta, proper times, rapidities, real vectors, element triples, a
representation, a tetrad) and returns the residual; the Pauli-block residuals are computed by
:func:`relphase.representations.np_block_residuals`.  The suites only draw
the inputs and wrap each result in a :class:`Check`; the acceptance
criteria, the unit tests and ``relphase np-dump`` call the same functions
with their own inputs and bounds.  The structure constants of the algebra
are written once, in :func:`_structure_residual`: the bracket table of the
basis operators and the angular brackets of all three generator maps are
judged by it.

The checks of the liealgebra and representations suites that draw nothing
from the generator are computed once per process, the first time their
suite runs: each of the two suites keeps them in one cached private function
(``_fixed_liealgebra``, ``_fixed_representations``) and puts the stored
:class:`Check` back at its place in the report on every later call.  A
stored residual has the bits of the cold one, and the checks that draw run
as before, so the generator is consumed identically; only the wall time of a
later suite call in the same process (the stderr timing of ``relphase
verify``) reads lower.  The triproduct and em suites each have one such
check, which costs less to recompute than the suite's run-to-run spread, so
they compute it on every call.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import (ETA, basis, conjugate, decompose, scalar_product,
                   scalar_square, symplectic_bracket)
from .em import (_BOOST_PLUS, EMField, _closed_flow, _faraday, _half_root,
                 _minkowski_square, evolution_generator, evolve_closed_form, evolve_numeric,
                 exp_faraday, faraday_components, faraday_conjugate, faraday_tensor,
                 field_tensor, invariant_z)
from .liealgebra import (QO_BASIS_PAIRS, GradedElement, QoElement, _group_residual,
                         commutator, graded_bracket, is_in_qo, qo_basis,
                         qo_from_operator, qo_realize)
from .representations import (DUAL_PAIRS, NPBasis, PoincareGenerator, Representation,
                              boost_flow_closed, d_pm, exponential_flow,
                              half_flow_closed, half_graded_bracket,
                              np_block_residuals, np_matrix, rotation_flow_closed)
from .triproduct import (d_basis, d_hat, d_operator, tri_product,
                         tri_product_coords)

DEFAULT_TOLERANCE = 1e-12
# Inputs drawn by a check of core, triproduct or em that sets no count of its own.
_DRAWS = 500


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


def _worst(a, b) -> float:
    """Largest scale-relative difference of a and b over draws along the
    leading axis.

    Each draw is reduced over its trailing axes: max |a - b| divided by
    max(1, max |a|, max |b|).  The result is the max over draws, 0 for none.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    axes = tuple(range(1, a.ndim))
    scale = np.maximum(1.0, np.maximum(np.abs(a).max(axis=axes), np.abs(b).max(axis=axes)))
    return float((np.abs(a - b).max(axis=axes) / scale).max(initial=0.0))


def _split(x: np.ndarray, *widths: int) -> list[np.ndarray]:
    """Complex arrays from the columns of the real block ``x``: width w takes
    w columns of real parts, then w of imaginary parts."""
    out, k = [], 0
    for w in widths:
        out.append(x[:, k:k + w] + 1j * x[:, k + w:k + 2 * w])
        k += 2 * w
    return out


def _draw(rng: np.random.Generator, draws: int, *widths: int) -> list[np.ndarray]:
    """Complex inputs of ``draws`` independent draws from one block of normals.

    Per draw, width w takes 2w normals: w real parts, then w imaginary parts,
    the order in which ``rng.standard_normal(w) + 1j * rng.standard_normal(w)``
    takes them (for w = 1, a scalar factor drawn as ``rng.standard_normal() +
    1j * rng.standard_normal()``).  Returns one ``(draws, w)`` array per
    width.  The generator fills the block in the order a per-draw loop of
    those calls would read it, so the inputs and the generator state left
    behind are the same.
    """
    return _split(rng.standard_normal((draws, 2 * sum(widths))), *widths)


def _graded_draws(rng: np.random.Generator, draws: int, count: int,
                  real_ops: bool = False) -> list[GradedElement]:
    """``count`` stacked graded elements of ``draws`` draws each, from one
    block of normals.

    Per draw, element after element, each takes as :func:`_draw` the widths
    16 (a coefficient tensor c, row major), 4 (the vector part) and 1 (the
    scalar part): 42 normals.  With ``real_ops`` the tensor takes only its 16
    real parts: 26 normals.  The grade-0 part realises c - c^T.
    """
    width = 26 if real_ops else 42
    elements = []
    for x in np.split(rng.standard_normal((draws, count * width)), count, axis=1):
        if real_ops:
            coeffs, (vec, scal) = x[:, :16].astype(np.complex128), _split(x[:, 16:], 4, 1)
        else:
            coeffs, vec, scal = _split(x, 16, 4, 1)
        coeffs = coeffs.reshape(draws, 4, 4)
        elements.append(GradedElement(qo_realize(coeffs - coeffs.mT), vec, scal[:, 0]))
    return elements


# ---------------------------------------------------------------------------
# core
# ---------------------------------------------------------------------------

def suite_core(rng: np.random.Generator) -> list[Check]:
    checks = []

    lam, a, b, c = _draw(rng, _DRAWS, 1, 4, 4, 4)
    mixed = lam * a + c
    lam = lam[:, 0]
    worst = max(_worst(scalar_product(mixed, b), lam * scalar_product(a, b) + scalar_product(c, b)),
                _worst(scalar_product(b, mixed), lam * scalar_product(b, a) + scalar_product(b, c)))
    checks.append(Check("core.bilinearity", worst, 1e-12))

    a, b = _draw(rng, _DRAWS, 4, 4)
    worst = float(np.abs(scalar_product(a, b) - scalar_product(b, a)).max())
    checks.append(Check("core.symmetry", worst, 1e-15))

    (a,) = _draw(rng, _DRAWS, 4)
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

def _jordan_check(rng: np.random.Generator) -> Check:
    """Derivation identity [D(x,y), D(a,b)] = D(D(x,y)a, b) - D(a, D(y,x)b)."""
    x, y, a, b = _draw(rng, _DRAWS, 4, 4, 4, 4)
    dxy = d_operator(x, y)
    lhs = commutator(dxy, d_operator(a, b))
    rhs = d_operator(np.matvec(dxy, a), b) - d_operator(a, np.matvec(d_operator(y, x), b))
    return Check("tri.jordan_identity", _worst(lhs, rhs), 1e-10)


def suite_triproduct(rng: np.random.Generator) -> list[Check]:
    checks = []

    a, b, c = _draw(rng, _DRAWS, 4, 4, 4)
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

    checks.append(_jordan_check(rng))

    a, b, c = _draw(rng, _DRAWS, 4, 4, 4)
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

# The 6 x 6 tables over the basis generators: pair (m, n) indexes the rows,
# pair (a, b) the columns.
_A, _B = np.array(QO_BASIS_PAIRS).T
_M, _N = _A[:, None], _B[:, None]


def _structure_residual(brackets: np.ndarray, image) -> float:
    """Largest deviation of the (6, 6, 4, 4) table ``brackets`` of
    [M_mn, M_ab], (m, n) and (a, b) running over QO_BASIS_PAIRS, from the
    structure constants of the algebra

        [M_mn, M_ab] = eta_mb M_na + eta_na M_mb - eta_ma M_nb - eta_nb M_ma,

    with M_ij = ``image(i, j)`` for i != j and M_ii = 0."""
    zero = np.zeros((4, 4), dtype=np.complex128)
    t = np.stack([[image(i, j) if i != j else zero for j in range(4)] for i in range(4)])
    m, n, a, b, eta = _M, _N, _A, _B, ETA[..., None, None]
    rhs = eta[m, b] * t[n, a] + eta[n, a] * t[m, b] - eta[m, a] * t[n, b] - eta[n, b] * t[m, a]
    return _worst(brackets.reshape(36, 4, 4), rhs.reshape(36, 4, 4))


def bracket_table_residual(dmat: dict[tuple[int, int], np.ndarray]) -> float:
    """Largest deviation of [D_mn, D_ab] over the six basis operators ``dmat``
    from the structure constants of the algebra, written with ``d_basis``."""
    ops = np.stack([dmat[pair] for pair in QO_BASIS_PAIRS])
    return _structure_residual(commutator(ops[:, None], ops), d_basis)


def qo_dimension(generators: list[np.ndarray]) -> tuple[int, int, float]:
    """Rank of the generators, dimension of the algebra, and span residual.

    The algebra is the solution space of X^T eta + eta X = 0; the span
    residual is the largest change of a solution basis vector under
    projection onto the span of the generators.
    """
    flat = np.stack([g.reshape(16) for g in generators])
    # Column 4i + j is the constraint on the unit matrix E_ij.
    units = np.eye(16).reshape(16, 4, 4)
    constraint = (units.mT @ ETA + ETA @ units).reshape(16, 16).T
    constraint_rank = np.linalg.matrix_rank(constraint, tol=1e-10)
    _, _, vh = np.linalg.svd(constraint)
    null_basis = vh[constraint_rank:]
    proj = null_basis @ np.linalg.pinv(flat) @ flat
    return (int(np.linalg.matrix_rank(flat, tol=1e-10)), 16 - int(constraint_rank),
            float(np.abs(proj - null_basis).max()))


def jacobi_residual(bracket, x: GradedElement, y: GradedElement, z: GradedElement) -> float:
    """Largest cyclic sum of ``bracket`` over stacked graded elements x, y, z,
    each relative to max(1, |x| |y| |z|)."""
    s = bracket(bracket(x, y), z) + bracket(bracket(y, z), x) + bracket(bracket(z, x), y)
    return float(np.max(s.norm() / np.maximum(1.0, x.norm() * y.norm() * z.norm()), initial=0.0))


@functools.cache
def _fixed_liealgebra() -> tuple[Check, ...]:
    """The checks of :func:`suite_liealgebra` that draw nothing."""
    dmat = qo_basis()
    # Dimension: the six generators are independent and exhaust the solution
    # space of X^T eta + eta X = 0.
    rank, dim, span = qo_dimension([dmat[p] for p in QO_BASIS_PAIRS])
    return (Check("qo.bracket_table", bracket_table_residual(dmat), 1e-13),
            Check("qo.dimension_six", float(abs(rank - 6) + abs(dim - 6)) + span, 1e-12))


def suite_liealgebra(rng: np.random.Generator) -> list[Check]:
    checks = list(_fixed_liealgebra())

    x, y = _graded_draws(rng, 100, 2)
    s = graded_bracket(x, y) + graded_bracket(y, x)
    worst = float((s.norm() / np.maximum(1.0, x.norm() * y.norm())).max())
    checks.append(Check("graded.antisymmetry", worst, 1e-10))

    # Jacobi on the real form: grade-0 parts with real coefficients.  With
    # fully complex grade-0 parts the mixed identity provably fails (the
    # grade-2 pairing is real-valued); see the graded_bracket docstring.
    checks.append(Check("graded.jacobi_real_form",
                        jacobi_residual(graded_bracket,
                                        *_graded_draws(rng, 100, 3, real_ops=True)), 1e-10))

    (coeffs,) = _draw(rng, 20, 16)
    coeffs = coeffs.reshape(20, 4, 4)
    q = qo_realize(coeffs - coeffs.mT)
    g = exponential_flow(q.matrix[:, None], np.array([0.1, 1.0, 2.5])[:, None, None])
    checks.append(Check("qo.exponential_in_group", float(_group_residual(g).max()), 1e-12))

    return checks


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

_GENERATORS = ([PoincareGenerator.translation(mu) for mu in range(4)]
               + [PoincareGenerator.angular(*pair) for pair in QO_BASIS_PAIRS])


def _poincare_checks(rep: Representation, tag: str) -> list[Check]:
    """The Poincare bracket table of ``rep``: one bracket of the stacked
    images of P0..P3 and the six angular generators with themselves."""
    checks = []
    images = [rep(g) for g in _GENERATORS]
    ops = np.stack([e.l0.matrix for e in images])
    vecs = np.stack([e.l1 for e in images])
    scals = np.array([e.l2 for e in images])
    br = rep.bracket(GradedElement(QoElement(ops[:, None]), vecs[:, None], scals[:, None]),
                     GradedElement(QoElement(ops), vecs, scals))

    checks.append(Check(f"{tag}.translation_brackets_vanish",
                        float(br.norm()[:4, :4].max()), 1e-13))

    eye = np.eye(4, dtype=np.complex128)
    mu = np.arange(4)
    expected = ETA[mu, _N][..., None] * eye[_M] - ETA[mu, _M][..., None] * eye[_N]
    worst = max(_worst(br.l1[4:, :4].reshape(24, 4), expected.reshape(24, 4)),
                float(np.abs(br.l0.matrix[4:, :4]).max()),
                float(np.hypot(br.l2[4:, :4].real, br.l2[4:, :4].imag).max()))
    checks.append(Check(f"{tag}.angular_translation_brackets", worst, 1e-13))

    checks.append(Check(f"{tag}.angular_angular_brackets",
                        _structure_residual(br.l0.matrix[4:, 4:], rep.angular_matrix), 1e-13))

    return checks


def _angular_stack(rep: Representation) -> np.ndarray:
    """The six angular images of ``rep`` in the order of QO_BASIS_PAIRS."""
    return np.stack([rep.angular_matrix(*pair) for pair in QO_BASIS_PAIRS])


def explicit_commutator_residual(rep: Representation) -> float:
    """The four explicitly verifiable commutators of the angular images.

    [M23, M12] = -M31, [M01, M31] = M03, [M01, M03] = M31, [M01, M23] = 0.
    The signs of the second and third are pinned by the angular bracket
    table (the relation :func:`_poincare_checks` checks exhaustively).
    """
    m = rep.angular_matrix
    worst = _worst(commutator(np.stack([m(2, 3), m(0, 1), m(0, 1)]),
                              np.stack([m(1, 2), m(3, 1), m(0, 3)])),
                   np.stack([-m(3, 1), m(0, 3), m(3, 1)]))
    return max(worst, float(np.abs(commutator(m(0, 1), m(2, 3))).max()))


def tripotency_residual(mats: list[np.ndarray]) -> float:
    """Largest deviation of T^3 from T over the operators ``mats``."""
    t = np.stack(mats)
    return _worst(t @ t @ t, t)


def car_residual(mats: list[np.ndarray]) -> float:
    """Largest deviation of (T_j T_k + T_k T_j) / 2 from delta_jk I."""
    eye = np.eye(4)
    return max(float(np.abs(0.5 * (a @ b + b @ a) - (eye if j == k else 0)).max())
               for j, a in enumerate(mats) for k, b in enumerate(mats))


def generator_squares_residual(rep: Representation) -> float:
    """Largest deviation of the squared boost images from I/4 and of the
    squared rotation images from -I/4."""
    boosts, rotations = np.split(_angular_stack(rep), 2)
    quarter = 0.25 * np.eye(4)
    return float(max(np.abs(boosts @ boosts - quarter).max(),
                     np.abs(rotations @ rotations + quarter).max()))


# J.J - K.K and J.K of each generator map, as multiples of I.
_CASIMIRS = {"spin1": (-3.0, 0.0), "spin_half_plus": (-1.5, -0.75j),
             "spin_half_minus": (-1.5, 0.75j)}


def casimir_residual(kind: str) -> float:
    """Largest entry of the Lorentz Casimirs J.J - K.K and J.K of the map
    ``kind``, each minus its stated multiple of I.

    K_j is the image of M_0j and J_j that of its dual rotation M_23, M_31 or
    M_12.  Spin 1 carries (1/2, 1/2), J.J - K.K = -3 I and J.K = 0; each
    spin-1/2 map carries one chirality, J.J - K.K = -3/2 I and J.K = -3i/4 I
    (plus) or +3i/4 I (minus).  The image entries are 0, +/-1, +/-1/2 and
    +/-i/2, so every product and sum is exact and the true images give 0.
    """
    k, j = np.split(_angular_stack(Representation(kind)), 2)
    square, product = _CASIMIRS[kind]
    eye = np.eye(4)
    return float(max(np.abs((j @ j).sum(axis=0) - (k @ k).sum(axis=0) - square * eye).max(),
                     np.abs((j @ k).sum(axis=0) - product * eye).max()))


def half_angle_period_residual(half: np.ndarray, whole: np.ndarray) -> float:
    """A full turn of the spin-1/2 rotation ``half`` gives -I and a double
    turn +I; a full turn of the spin-1 rotation ``whole`` gives +I."""
    eye = np.eye(4)
    return max(float(np.abs(exponential_flow(half, 2 * np.pi) + eye).max()),
               float(np.abs(exponential_flow(half, 4 * np.pi) - eye).max()),
               float(np.abs(exponential_flow(whole, 2 * np.pi) - eye).max()))


def boost_closed_form_residual(phis, flows) -> float:
    """``flows`` against the closed-form boost along axis 1 at each rapidity
    of ``phis``, and against the pattern of cosh(phi) and -sinh(phi) entries
    (the library's orientation; see :mod:`relphase.representations`)."""
    closed = np.array([boost_flow_closed(1, phi) for phi in phis])
    patterns = np.tile(np.eye(4), (len(phis), 1, 1))
    patterns[:, [0, 1], [0, 1]] = np.cosh(phis)[:, None]
    patterns[:, [0, 1], [1, 0]] = -np.sinh(phis)[:, None]
    flows = np.asarray(flows)
    return max(_worst(closed, flows), _worst(flows, patterns))


def closed_flows_residual(phis) -> float:
    """The closed-form flows against ``expm`` at every rapidity of ``phis``:
    per axis j, the spin-1/2 boost and rotation images (``half_flow_closed``)
    and the spin-1 rotation (``rotation_flow_closed``)."""
    half = Representation("spin_half_plus").angular_matrix
    x = np.array([[half(0, j), half(*pair), d_basis(*pair)] for j, pair in DUAL_PAIRS.items()])
    flows = exponential_flow(x[:, None], np.array(phis)[:, None, None, None])
    closed = np.array([[[half_flow_closed(xb, phi), half_flow_closed(xr, phi),
                         rotation_flow_closed(*pair, phi)] for phi in phis]
                       for (xb, xr, _), pair in zip(x, DUAL_PAIRS.values())])
    return _worst(closed.reshape(-1, 4, 4), flows.reshape(-1, 4, 4))


def real_subspace_residual(phi: float, vr) -> float:
    """Largest imaginary part of exp(phi D) v, D the six spin-1 angular
    images and v the real vector ``vr[k]`` of the k-th (in the order of
    QO_BASIS_PAIRS).

    This also bounds the real part of exp(phi D) iv, the image of a pure
    position: Re(G iv) = -Im(G v) for any matrix G.
    """
    g = exponential_flow(_angular_stack(Representation("spin1")), phi)
    return float(np.abs(np.matvec(g, vr).imag).max())


def np_round_trip_residual(tetrad: NPBasis, v) -> float:
    """Unitarity of the tetrad (max-abs) and the scale-relative change of the
    vector ``v`` under the round trip through tetrad coordinates."""
    m, inv = tetrad.matrix, tetrad.inverse
    return max(float(np.abs(np.stack([m @ inv, inv @ m]) - np.eye(4)).max()),
               _worst(tetrad.from_np_coords(tetrad.to_np_coords(v))[None], np.asarray(v)[None]))


@functools.cache
def _fixed_representations() -> tuple[Check, ...]:
    """The checks of :func:`suite_representations` that draw nothing."""
    checks = []
    spin1 = Representation("spin1")
    plus = Representation("spin_half_plus")
    minus = Representation("spin_half_minus")

    for rep, tag in ((spin1, "rep.spin1"), (plus, "rep.plus"), (minus, "rep.minus")):
        checks.extend(_poincare_checks(rep, tag))

    checks.append(Check("rep.plus.explicit_commutators", explicit_commutator_residual(plus), 1e-14))

    tripotents = ([d_basis(0, j) for j in (1, 2, 3)]
                  + [d_pm(j, s) for j in (1, 2, 3) for s in (+1, -1)]
                  + [1j * d_basis(*pair) for pair in DUAL_PAIRS.values()])
    checks.append(Check("rep.tripotency", tripotency_residual(tripotents), 1e-14))
    worst = max(car_residual([d_pm(j, s) for j in (1, 2, 3)]) for s in (+1, -1))
    checks.append(Check("rep.car", worst, 1e-14))
    checks.append(Check("rep.plus.generator_squares", generator_squares_residual(plus), 1e-14))

    # Every angular image of the three maps at +phi and -phi: (18, 2, 3, 4, 4).
    eye = np.eye(4)
    x = np.concatenate([_angular_stack(rep) for rep in (spin1, plus, minus)])
    phis = np.array([0.3, 1.0, 5.0])
    g = exponential_flow(x[:, None, None], np.stack([phis, -phis])[..., None, None])
    gp, gm = g[:, 0], g[:, 1]
    scale = np.maximum(1.0, np.abs(gp).max(axis=(-2, -1)) * np.abs(gm).max(axis=(-2, -1)))
    worst = float((np.abs(gp @ gm - eye).max(axis=(-2, -1)) / scale).max())
    checks.append(Check("rep.flow_inverse", worst, 1e-12))

    worst = float(np.abs(_angular_stack(minus) - np.conj(_angular_stack(plus))).max())
    checks.append(Check("rep.minus_is_conjugate", worst, 1e-15))

    worst = max(max(res) for kind in ("spin_half_plus", "spin_half_minus")
                for *_, res in np_block_residuals(kind)[1])
    checks.append(Check("rep.np_pauli_blocks", worst, 1e-12))

    worst = half_angle_period_residual(plus.angular_matrix(1, 2), d_basis(1, 2))
    checks.append(Check("rep.half_angle_periods", worst, 1e-11))

    phis = (0.5, 1.0, 2.0)
    flows = exponential_flow(d_basis(0, 1), np.array(phis)[:, None, None])
    checks.append(Check("rep.boost_closed_form", boost_closed_form_residual(phis, flows), 1e-12))

    worst = closed_flows_residual((0.3, 1.0, 2.2))
    checks.append(Check("rep.half_flow_closed_forms", worst, 1e-12))

    return tuple(checks)


def suite_representations(rng: np.random.Generator) -> list[Check]:
    *head, inverse, conjugate_gap, blocks, periods, boost, closed = _fixed_representations()

    # Jacobi for the spin-1/2 bracket on its own image, where the conjugate
    # pairs commute and grade-0-plus-conjugate parts are real.  Each draw
    # takes three elements: boost coefficients (their Faraday operator), a
    # vector and a scalar.
    parts = _draw(rng, 60, *(3, 4, 1) * 3)
    triple = [GradedElement(qo_from_operator(_faraday(c)), vec, scal[:, 0])
              for c, vec, scal in zip(parts[0::3], parts[1::3], parts[2::3])]
    jacobi = Check("rep.half_bracket_jacobi_on_image",
                   jacobi_residual(half_graded_bracket, *triple), 1e-10)

    vr = rng.standard_normal((len(QO_BASIS_PAIRS), 4))
    real = Check("rep.spin1.flow_preserves_real_subspaces", real_subspace_residual(0.8, vr), 1e-13)

    (v,) = _draw(rng, 1, 4)
    round_trip = Check("rep.np_round_trip", np_round_trip_residual(np_matrix(), v[0]), 1e-15)

    return [*head, jacobi, inverse, real, conjugate_gap, round_trip, blocks, periods, boost, closed]


# ---------------------------------------------------------------------------
# em
# ---------------------------------------------------------------------------
#
# The residual functions take ``fields``, an EMField stack with one leading
# axis, and make one batched call per invariant; ``p0s`` has one row per
# field.

def faraday_square_residual(fields: EMField) -> float:
    """Largest deviation of the squared Faraday operator from z/4 times I."""
    fc = faraday_tensor(fields)
    return _worst(fc @ fc, (invariant_z(fields).z / 4.0)[:, None, None] * np.eye(4))


def conjugate_commutator_residual(fields: EMField) -> float:
    """Largest entry of the commutator of the Faraday operator and its conjugate."""
    return float(np.abs(commutator(faraday_tensor(fields), faraday_conjugate(fields))).max())


def commuting_factor_residual(fields: EMField, taus) -> float:
    """exp(tau A) against exp(tau conj(Fc)) exp(tau Fc), A the evolution
    generator, for every field at every tau.  tau is real, so the first
    factor is the entrywise conjugate of the second."""
    taus = np.asarray(taus, dtype=np.float64)[:, None, None]
    lhs = exponential_flow(evolution_generator(fields)[:, None], taus)
    flow = exponential_flow(faraday_tensor(fields)[:, None], taus)
    return _worst(lhs.reshape(-1, 4, 4), (np.conj(flow) @ flow).reshape(-1, 4, 4))


def shell_and_reality_residuals(fields: EMField, p0s, taus) -> tuple[float, float]:
    """Mass-shell drift and imaginary part of conj(X) X p0, X = exp_faraday(f, tau).

    Field k starts from the real momentum p0s[k]; residuals are maximised
    over fields and taus.  The products in conj(X) X p0 have the size
    T = |X|^2 |p0| (max entries) and may cancel down to |p|, leaving
    rounding of size T: with S = max(1, |p|), the imaginary part is
    relative to max(S, T) and the drift to S max(S, T).
    """
    p0s = np.asarray(p0s)
    x = exp_faraday(fields[:, None], np.asarray(taus, dtype=np.float64))
    p = (np.conj(x) @ (x @ p0s.astype(np.complex128)[:, None, :, None]))[..., 0]
    s = np.maximum(1.0, np.abs(p).max(axis=-1))
    t = np.square(np.abs(x).max(axis=(-2, -1))) * np.abs(p0s).max(axis=-1)[:, None]
    scale = np.maximum(s, t)
    real = float((np.abs(p.imag).max(axis=-1) / scale).max())
    shell = np.abs(_minkowski_square(p.real) - _minkowski_square(p0s)[:, None]) / (s * scale)
    return float(shell.max()), real


def flow_invariance_residual(fields: EMField, axes, phis) -> float:
    """Change of the invariant z when field k is conjugated by the spin-1/2
    boost flow along axes[k] (1, 2 or 3) at rapidity phis[k], relative to
    max(1, |z|).  Raises ValueError ``boost axes must be 1, 2 or 3, got
    <axes>`` unless ``axes`` has an integer dtype, never bool or float, and
    only the values 1, 2 and 3: the rule of ``core._index``, for an array.
    The entries are checked before the conversion, so ``(2, True)`` is
    rejected too."""
    given, axes = axes, np.asarray(axes)
    if axes.dtype.kind in "iu":
        # np.asarray reads a bool among ints as 0 or 1
        entries = np.asarray(given, dtype=object)
        if not {bool, np.bool_}.isdisjoint(map(type, entries.flat)):
            raise ValueError(f"boost axes must be 1, 2 or 3, got {entries}")
    if axes.dtype.kind not in "iu" or not np.isin(axes, (1, 2, 3)).all():
        raise ValueError(f"boost axes must be 1, 2 or 3, got {axes}")
    x = _BOOST_PLUS[axes - 1]
    phis = np.asarray(phis, dtype=np.float64)[:, None, None]
    transformed = exponential_flow(x, phis) @ faraday_tensor(fields) @ exponential_flow(x, -phis)
    comps = faraday_components(transformed)
    z = invariant_z(fields).z
    # hypot(re, im) is the modulus abs() gives a Python complex; numpy's
    # complex abs can differ from it in the last bit.
    change = _half_root(comps)[0] - z
    return float((np.hypot(change.real, change.imag)
                  / np.maximum(1.0, np.hypot(z.real, z.imag))).max())


def null_flow_residual(field: EMField, taus) -> float:
    """exp_faraday of a null field against its truncated series I + tau Fc
    at every proper time of ``taus``."""
    taus = np.asarray(taus, dtype=np.float64)
    return _worst(exp_faraday(field, taus), np.eye(4) + taus[:, None, None] * faraday_tensor(field))


def closed_form_rk4_residual(fields: EMField, p0s, tau: float, steps: int) -> float:
    """Closed-form evolution against RK4 with ``steps`` steps at proper time tau."""
    return _worst(evolve_closed_form(fields, p0s, tau), evolve_numeric(fields, p0s, tau, steps))


def suite_em(rng: np.random.Generator) -> list[Check]:
    checks = []

    # Field k takes row k: E from the first three entries, B from the last.
    u = rng.uniform(-1, 1, (_DRAWS, 6))
    fields = EMField(u[:, :3], u[:, 3:])
    checks.append(Check("em.faraday_square_invariant", faraday_square_residual(fields), 1e-12))
    checks.append(Check("em.conjugate_commutes", conjugate_commutator_residual(fields), 1e-12))
    checks.append(Check("em.commuting_factorization",
                        commuting_factor_residual(fields[:60], (0.5, 2.0, 10.0)), 1e-11))

    shell, real = shell_and_reality_residuals(fields[:40], rng.uniform(-1, 1, (40, 4)),
                                              np.linspace(0.0, 10.0, 9))
    checks.append(Check("em.mass_shell_conserved", shell, 1e-11))
    checks.append(Check("em.evolution_reality", real, 1e-11))

    axes, phis = zip(*[(int(rng.integers(1, 4)), float(rng.uniform(-1.5, 1.5))) for _ in range(40)])
    checks.append(Check("em.invariant_under_flows",
                        flow_invariance_residual(fields[:40], axes, phis), 1e-11))

    # The closed-form kernel of exp_faraday with either root of w^2 = z/4.
    w = invariant_z(fields[:40]).w[:, None]
    fc = faraday_tensor(fields[:40])[:, None]
    taus = np.array([0.7, 3.0])
    wp, wm = _closed_flow(w, taus, fc), _closed_flow(-w, taus, fc)
    worst = (np.abs(wp - wm).max(axis=(-2, -1))
             / np.maximum(1.0, np.abs(wp).max(axis=(-2, -1)))).max()
    checks.append(Check("em.branch_independence", worst, 1e-15))

    q = field_tensor(fields[:60])
    worst = max(0.0 if is_in_qo(q.matrix) else 1.0, float(np.abs(q.matrix.imag).max()))
    checks.append(Check("em.field_tensor_in_algebra", worst, 1e-12))

    worst = null_flow_residual(EMField([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]), (0.5, 2.0, 7.0))
    checks.append(Check("em.null_field_flow_linear", worst, 1e-12))

    worst = closed_form_rk4_residual(fields[:3], rng.uniform(-1, 1, (3, 4)), 1.0, 2000)
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
