"""Quasi-orthogonal Lie algebra and the graded algebra built on the phase space.

An invertible map g is quasi-orthogonal when it preserves the bilinear scalar
product, <ga|gb> = <a|b>, i.e. g^T eta g = eta.  Its Lie algebra consists of
the operators X with <Xa|b> + <a|Xb> = 0; equivalently the lowered matrix
X_{alpha beta} = eta_{gamma beta} X^gamma_alpha is antisymmetric.  The six
operators d_basis(0,1), d_basis(0,2), d_basis(0,3), d_basis(2,3),
d_basis(3,1), d_basis(1,2) span it over the complex numbers.

A ``QoElement`` stores one field, the realised operator.  For an
antisymmetric coefficient tensor x^{alpha beta} that operator is

    sum over ALL ordered pairs (alpha, beta) of x^{alpha beta} D_{alpha beta}
        = 2 x eta,

so a coefficient pair (x^{alpha beta}, x^{beta alpha} = -x^{alpha beta})
contributes 2 x^{alpha beta} D_{alpha beta}.  This double-counting convention
is fixed here once: ``qo_realize`` applies it and the derived ``coeffs``
property inverts it (x = matrix eta / 2).

The graded algebra is L0 + L1 + L2 with L0 the quasi-orthogonal algebra,
L1 the phase space and L2 the complex scalars.  Brackets: operator commutator
on L0; [A, v] = A v between L0 and L1; the symplectic skew product between
two vectors, landing in L2; every bracket involving L2 vanishes.

Batch axes: elements may be stacks.  A ``QoElement`` holds operators of
shape ``(..., 4, 4)``; a ``GradedElement`` holds ``l0.matrix`` of shape
``(..., 4, 4)``, ``l1`` of shape ``(..., 4)`` and ``l2`` of shape ``(...)``,
one element per leading index, broadcast against each other.
``graded_bracket``, ``GradedElement.norm``, the arithmetic, ``qo_realize``
and ``qo_from_operator`` work on stacks; the norm is taken per element.  A
single element keeps its types: ``l2`` is a Python ``complex`` and
``norm()`` a ``float``.  The products are stacked matrix products, so each
entry of a stacked result has the bits of the single-element call.  The
arrays an element holds are read-only copies (see :mod:`relphase.core`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from .core import _ETA_C, ETA, ArrayC, ArrayR, _frozen, symplectic_bracket
from .triproduct import d_basis

#: Index pairs of the six independent algebra generators, in the order
#: (electric-type 01, 02, 03, then magnetic-type 23, 31, 12).
QO_BASIS_PAIRS: tuple[tuple[int, int], ...] = ((0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2))


def qo_basis() -> dict[tuple[int, int], ArrayC]:
    """The six basis operators keyed by their index pair."""
    return {pair: d_basis(*pair) for pair in QO_BASIS_PAIRS}


@dataclass(frozen=True)
class QoElement:
    """Element of the quasi-orthogonal algebra, held as its realised operator.

    matrix: the operator, summed over all ordered index pairs; a stack of
    operators has shape (..., 4, 4).
    coeffs: the antisymmetric 4x4 coefficient tensor x^{alpha beta}, derived
    from ``matrix`` on each access.
    """

    matrix: ArrayC

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _frozen(self.matrix))

    @property
    def coeffs(self) -> ArrayC:
        return _frozen(self.matrix @ ETA / 2)

    def __add__(self, other: "QoElement") -> "QoElement":
        return QoElement(self.matrix + other.matrix)

    def __sub__(self, other: "QoElement") -> "QoElement":
        return QoElement(self.matrix - other.matrix)

    def __neg__(self) -> "QoElement":
        return QoElement(-self.matrix)

    def __mul__(self, scale: complex) -> "QoElement":
        return QoElement(self.matrix * scale)

    __rmul__ = __mul__

    @staticmethod
    def zero() -> "QoElement":
        return QoElement(np.zeros((4, 4), dtype=np.complex128))


def qo_realize(coeffs: ArrayLike, tol: float = 1e-12) -> QoElement:
    """Realise an antisymmetric coefficient tensor, or a (..., 4, 4) stack of
    them, as an algebra element.

    Raises ValueError when an input tensor is not antisymmetric within tol;
    a tensor with a NaN entry never is.
    """
    x = np.asarray(coeffs, dtype=np.complex128)
    if x.shape[-2:] != (4, 4):
        raise ValueError(f"coefficient tensor must be 4x4, got shape {x.shape}")
    asym = np.abs(x + x.mT).max(initial=0.0)
    if not asym <= tol:  # NaN fails too
        raise ValueError(f"coefficient tensor is not antisymmetric (residual {asym:.3e})")
    x = 0.5 * (x - x.mT)  # exact antisymmetry
    return QoElement(2 * x @ ETA)


def qo_from_operator(matrix: ArrayLike, tol: float = 1e-10) -> QoElement:
    """Wrap an operator, or a (..., 4, 4) stack of operators, known to lie in
    the algebra as an element.

    Raises ValueError when an operator is outside the algebra within tol,
    judged by :func:`is_in_qo`.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    if m.shape[-2:] != (4, 4) or not is_in_qo(m, tol):
        raise ValueError("operator is not in the quasi-orthogonal algebra")
    return QoElement(m)


def _group_residual(g: ArrayLike) -> ArrayR:
    """Largest entry of g^T eta g - eta relative to max(1, |g|^2), per
    operator of a ``(..., 4, 4)`` stack."""
    g = np.asarray(g, dtype=np.complex128)
    # The complex metric saves the casts numpy would make of the real one.
    resid = np.abs(g.mT @ _ETA_C @ g - _ETA_C).max(axis=(-2, -1))
    # max(1, |g|)^2 is max(1, |g|^2).
    return resid / np.square(np.abs(g).max(axis=(-2, -1), initial=1.0))


def is_quasi_orthogonal(g: ArrayLike, tol: float = 1e-12) -> bool:
    """True when g preserves the scalar product: g^T eta g = eta.

    Checked on all 16 basis pairs at once; the residual is normalised by the
    squared size of g so large flows are judged relative to their own scale.
    ``g`` may be a stack ``(..., 4, 4)``: then True when every map passes.
    """
    return bool((_group_residual(g) <= tol).all())


def is_in_qo(x: ArrayLike, tol: float = 1e-12) -> bool:
    """True when <Xa|b> + <a|Xb> = 0 on basis pairs, i.e. X^T eta + eta X = 0.

    ``x`` may be a stack ``(..., 4, 4)``: then True when every operator is in
    the algebra, each judged relative to its own size.
    """
    x = np.asarray(x, dtype=np.complex128)
    resid = np.abs(x.mT @ ETA + ETA @ x).max(axis=(-2, -1))
    scale = np.maximum(1.0, np.abs(x).max(axis=(-2, -1)))
    return bool((resid <= tol * scale).all())


def commutator(a: ArrayLike, b: ArrayLike) -> ArrayC:
    """Operator bracket AB - BA."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    return a @ b - b @ a


@dataclass(frozen=True)
class GradedElement:
    """Element of the graded algebra L0 + L1 + L2, or a stack of elements.

    l0: quasi-orthogonal operator part, (..., 4, 4); l1: phase-space vector
    part, (..., 4); l2: complex scalar part, (...), a Python ``complex`` for
    a single element.  Addition is componentwise.
    """

    l0: QoElement
    l1: ArrayC
    l2: complex | ArrayC

    def __post_init__(self) -> None:
        object.__setattr__(self, "l1", _frozen(self.l1))
        scal = _frozen(self.l2)
        object.__setattr__(self, "l2", complex(scal) if scal.ndim == 0 else scal)

    @staticmethod
    def zero() -> "GradedElement":
        return GradedElement(QoElement.zero(), np.zeros(4, dtype=np.complex128), 0.0)

    @staticmethod
    def from_operator(q: QoElement) -> "GradedElement":
        return GradedElement(q, np.zeros(4, dtype=np.complex128), 0.0)

    @staticmethod
    def from_vector(v: ArrayLike) -> "GradedElement":
        return GradedElement(QoElement.zero(), np.asarray(v, dtype=np.complex128), 0.0)

    @staticmethod
    def from_scalar(s: complex) -> "GradedElement":
        return GradedElement(QoElement.zero(), np.zeros(4, dtype=np.complex128), s)

    def __add__(self, other: "GradedElement") -> "GradedElement":
        return GradedElement(self.l0 + other.l0, self.l1 + other.l1, self.l2 + other.l2)

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        return GradedElement(self.l0 - other.l0, self.l1 - other.l1, self.l2 - other.l2)

    def __neg__(self) -> "GradedElement":
        return GradedElement(-self.l0, -self.l1, -self.l2)

    def norm(self) -> float | ArrayR:
        """Max-entry size across the three grades, per element; used for
        residual scaling.  A float for a single element."""
        l2 = np.asarray(self.l2)
        # hypot(re, im) is the modulus abs() gives a Python complex; numpy's
        # complex abs can differ from it in the last bit.
        size = np.maximum(np.maximum(np.abs(self.l0.matrix).max(axis=(-2, -1)),
                                     np.abs(self.l1).max(axis=-1)),
                          np.hypot(l2.real, l2.imag))
        return float(size) if size.ndim == 0 else size


def _graded_bracket(x: GradedElement, y: GradedElement, a: ArrayLike,
                    b: ArrayLike) -> GradedElement:
    """The graded bracket of x and y with ``a`` acting on the vector part of
    y and ``b`` on that of x: [x.l0, y.l0] + (a y.l1 - b x.l1) + the
    symplectic pairing of x.l1 and y.l1.  The one body of
    :func:`graded_bracket` (a, b = x.l0, y.l0) and of the spin-1/2 bracket
    (a, b = x.l0 + conj(x.l0), y.l0 + conj(y.l0))."""
    # The commutator of two algebra elements stays in the algebra.
    op = QoElement(commutator(x.l0.matrix, y.l0.matrix))
    vec = np.matvec(a, y.l1) - np.matvec(b, x.l1)
    return GradedElement(op, vec, symplectic_bracket(x.l1, y.l1))


def graded_bracket(x: GradedElement, y: GradedElement) -> GradedElement:
    """Bracket of the graded algebra, antisymmetric by construction.

    [L0, L0] is the operator commutator; [A, v] = A v and [v, A] = -A v
    between grades 0 and 1; [v, w] is the symplectic skew product landing in
    L2; brackets with L2 vanish.  The real symplectic pairing makes this
    bracket real-bilinear (not complex-bilinear) in the vector slots.

    The Jacobi identity holds on the real form of the algebra: elements
    whose grade-0 part has real coefficients (which covers all generator
    images of the spin-1 map).  It provably fails for imaginary grade-0
    parts: with A = i d_basis(0,1), v = u_0, w = u_1 the cyclic sum is
    [[A,v],w] + [[w,A],v] = -2, an unavoidable consequence of pairing a
    complex grade 0 with a real-valued grade-2 form.  The spin-1/2 maps use
    the modified bracket in :mod:`relphase.representations`, which restores
    Jacobi on their image.
    """
    return _graded_bracket(x, y, x.l0.matrix, y.l0.matrix)
