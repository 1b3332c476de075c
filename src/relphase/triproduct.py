"""Geometric tri-product on the phase space and the operator maps it induces.

The tri-product is {a,b,c} = <a|b>c - <c|a>b + <b|c>a, built on the bilinear
Minkowski scalar product.  It is complex trilinear and symmetric in the outer
pair: {a,b,c} = {c,b,a}.

``d_operator(a, b)`` is the map c -> {a,b,c}; its antisymmetrisation
``d_hat`` generates the quasi-orthogonal Lie algebra.  ``d_basis(alpha, beta)``
is the same operator on basis vectors, built directly from the closed-form
action

    u_gamma -> -eta_{gamma alpha} u_beta + eta_{beta gamma} u_alpha,

kept as an independent construction so the two code paths can be tested
against each other.

Batch axes: ``tri_product``, ``tri_product_coords``, ``d_operator`` and
``d_hat`` accept phase vectors of shape ``(..., 4)``, broadcast against each
other; the tri-products return ``(..., 4)`` and the operator maps
``(..., 4, 4)``.  Single vectors give ``(4,)`` and ``(4, 4)``.
The contractions are stacked matrix products (never ``einsum`` or
``sum``), so each entry of a batched result has the bits of the
single-vector call.  A stack of operators acts on a stack of vectors with
``np.matvec(m, c)``; ``m @ c`` would be a matrix product.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike

from .core import _ETA_C, _UNIT, ETA, ArrayC, _bilinear, _index


def tri_product(a: ArrayLike, b: ArrayLike, c: ArrayLike) -> ArrayC:
    """{a,b,c} = <a|b>c - <c|a>b + <b|c>a.

    Follows numpy on overflow: inf or NaN entries with a RuntimeWarning.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    c = np.asarray(c, dtype=np.complex128)
    return _bilinear(a, b) * c - _bilinear(c, a) * b + _bilinear(b, c) * a


def tri_product_coords(a: ArrayLike, b: ArrayLike, c: ArrayLike) -> ArrayC:
    """Coordinate form of the tri-product, written as explicit contractions.

    Independent of :func:`tri_product`; used to cross-check it.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    c = np.asarray(c, dtype=np.complex128)
    # lowered indices eta_{mu nu} v^nu, held as one-row matrices
    al = np.matvec(ETA, a)[..., None, :]
    bl = np.matvec(ETA, b)[..., None, :]
    cl = np.matvec(ETA, c)[..., None, :]
    return np.matvec(al, b) * c - np.matvec(cl, a) * b + np.matvec(bl, c) * a


def d_operator(a: ArrayLike, b: ArrayLike) -> ArrayC:
    """Matrix of c -> {a,b,c}.

    Follows numpy on overflow: inf or NaN entries with a RuntimeWarning.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    # {a,b,c} = <a|b> c - <c|a> b + <b|c> a, column gamma = image of u_gamma
    al = (a @ _ETA_C)[..., None, :]
    bl = (b @ _ETA_C)[..., None, :]
    return np.matvec(al, b)[..., None] * _UNIT - b[..., :, None] * al + a[..., :, None] * bl


def d_hat(a: ArrayLike, b: ArrayLike) -> ArrayC:
    """Antisymmetrised operator (d_operator(a,b) - d_operator(b,a)) / 2."""
    return 0.5 * (d_operator(a, b) - d_operator(b, a))


def d_basis(alpha: int, beta: int) -> ArrayC:
    """Closed-form matrix of d_hat(u_alpha, u_beta).

    Action: u_gamma -> -eta_{gamma alpha} u_beta + eta_{beta gamma} u_alpha.
    Antisymmetric in (alpha, beta); zero when alpha == beta.  Raises
    ValueError ``basis indices must be in 0..3, got (alpha, beta)`` unless
    both are integers in 0..3 (see ``core._index``).
    """
    _index("basis indices", "in 0..3", range(4), alpha, beta)
    m = np.zeros((4, 4), dtype=np.complex128)
    m[beta, alpha] -= ETA[alpha, alpha]
    m[alpha, beta] += ETA[beta, beta]
    return m
