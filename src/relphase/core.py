"""Complex relativistic phase space: vectors, metric, and scalar products.

The phase space is C^4 with the fixed Minkowski metric eta = diag(1,-1,-1,-1).
A phase vector a^mu simultaneously carries a four-momentum (its real part)
and a space-time position (its imaginary part): a^mu = p^mu + i x^mu.

Conventions, fixed once for the whole library:

* Coordinates are contravariant components a^mu in the standard basis
  u_0..u_3.  Index lowering is always an explicit contraction with ``ETA``,
  never implicit.
* The scalar product <a|b> = eta_{mu nu} a^mu b^nu is complex BILINEAR in
  both arguments and symmetric.  There is no conjugation; consequently
  <ia|ia> = -<a|a>.  The Lorentz product and the symplectic bracket are
  recovered as the real and imaginary parts of <conj(a)|b>.
* Natural units throughout: c = 1, unit charge and mass.

Batch axes: the products, ``conjugate`` and ``decompose`` accept phase
vectors with leading batch axes, shape ``(..., 4)``, broadcast against each
other.  A product of ``(..., 4)`` inputs has shape ``(...)``; two single
vectors give a Python ``complex`` (``scalar_product``, ``scalar_square``) or
``float`` (``lorentz_product``, ``symplectic_bracket``).  The
contractions are stacked matrix products, so every entry of a batched result
has the same bits as the single-vector call on that entry.

Overflow, one rule for the library: a function of an unbounded parameter
(a rapidity phi, a proper time tau, a step count) raises ValueError
starting ``non-finite result at`` and naming the first parameter whose
result is not finite; it never returns inf or NaN.  When that parameter is
itself NaN or infinite, the ValueError reads ``<name> must be finite, got
<value>`` instead (``phi must be finite, got inf``).  ``_require_finite``
writes both messages for every module.  The ``em`` functions
(``exp_faraday``, ``evolve_closed_form``, ``evolve_numeric``) raise without
a numpy warning.  The closed flows ``boost_flow_closed``,
``rotation_flow_closed`` and ``half_flow_closed`` let numpy's RuntimeWarnings
on an overflow through first, because silencing them would put an
``np.errstate`` block in every call.
Polynomial kernels (``invariant_z``, ``tri_product``, ``d_operator``,
``lorentz_force``) follow numpy: an overflow gives inf or NaN with a
RuntimeWarning.

Arguments, one rule for the library: an index, a sign or a count is an
``int`` or a numpy integer, never a bool or a float, and one of its allowed
values; anything else raises ValueError ``<name> must be <rule>, got
<value>`` (``basis index must be in 0..3, got True``).  ``_index`` checks
it for every module.

Read-only arrays, one rule for the library: every array that a value holds
or a table shares (the metric, the generator images, the element and field
arrays) is a C-contiguous copy in an immutable ``bytes`` buffer, made by
``_frozen``.  Neither such an array nor its ``.base`` can be made writable
again, so no caller can change a value that other calls return.

All operations are pure functions over immutable values and are safe to use
from multiple threads.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike, NDArray

ArrayC = NDArray[np.complex128]
ArrayR = NDArray[np.float64]


def _frozen(a: ArrayLike, dtype: type = np.complex128) -> NDArray:
    """``a`` as a read-only C-contiguous ``dtype`` array over a copy of its
    bytes; the bits, signed zeros included, are unchanged."""
    a = np.asarray(a, dtype)
    return np.frombuffer(a.tobytes(), dtype).reshape(a.shape)


#: Minkowski metric with signature (+,-,-,-).
ETA: ArrayR = _frozen(np.diag([1.0, -1.0, -1.0, -1.0]), np.float64)

# The metric cast once for complex contractions; the cast is exact.
_ETA_C = _frozen(ETA)

_UNIT = _frozen(np.eye(4))


def _index(name: str, rule: str, allowed: range | tuple | dict, *values: object) -> None:
    """Check index, sign and count arguments: each of ``values`` is an ``int``
    or a numpy integer, never a bool or a float, and is in ``allowed``.

    Otherwise raises ValueError ``<name> must be <rule>, got <value>``, with
    two or more values shown as ``(a, b)``.
    """
    for v in values:
        # bool is a subclass of int, not its type.  A numpy integer is tested
        # as the int it holds: range tests any other type entry by entry.
        if not (type(v) is int or isinstance(v, np.integer)) or int(v) not in allowed:
            got = values[0] if len(values) == 1 else f"({', '.join(map(str, values))})"
            raise ValueError(f"{name} must be {rule}, got {got}")


def basis(mu: int) -> ArrayC:
    """Return the standard basis vector u_mu.

    Raises ValueError ``basis index must be in 0..3, got <mu>`` unless mu is
    an integer in 0..3 (see ``_index``).
    """
    _index("basis index", "in 0..3", range(4), mu)
    return _UNIT[mu].copy()


def phase_vector(coords: ArrayLike) -> ArrayC:
    """Build a phase vector from four complex coordinates.

    Rejects anything that is not a finite length-4 coordinate array.
    """
    a = np.asarray(coords, dtype=np.complex128)
    if a.shape != (4,):
        raise ValueError(f"phase vector needs 4 coordinates, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(np.float64))):
        raise ValueError("phase vector coordinates must be finite")
    return a


def phase_operator(matrix: ArrayLike) -> ArrayC:
    """Build a linear operator on the phase space from a 4x4 complex matrix.

    Entry [gamma][mu] is the u_gamma coefficient of the image of u_mu.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    if m.shape != (4, 4):
        raise ValueError(f"phase operator must be 4x4, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise ValueError("phase operator entries must be finite")
    return m


def _require_finite(values: ArrayLike, param: ArrayLike, name: str, what: str, hint: str,
                    trailing: int = 0) -> ArrayLike:
    """Return ``values``, or raise the library's overflow ValueError: ``non-finite
    result at <name>=<bad>: the <what> overflows double precision; reduce
    <hint>``, with ``bad`` the entry of ``param`` at the first non-finite
    entry of ``values`` in C order.  When ``bad`` is itself NaN or infinite
    the input, not the arithmetic, is at fault, and the message is ``<name>
    must be finite, got <bad>``.

    ``values`` has the axes of ``param`` (broadcast) followed by ``trailing``
    axes of one result: flows at rapidities ``phis[..., None, None]`` take
    ``trailing=0``, 4x4 flows at proper times of shape ``(T,)`` take 2.
    """
    finite = np.isfinite(values)
    # Cheaper than finite.all() on the small arrays of the scalar calls.
    if np.count_nonzero(finite) == finite.size:
        return values
    params = np.reshape(param, np.shape(param) + (1,) * trailing)
    bad = float(np.broadcast_to(params, finite.shape)[~finite][0])
    if not np.isfinite(bad):
        raise ValueError(f"{name} must be finite, got {bad:.17g}")
    raise ValueError(f"non-finite result at {name}={bad:.17g}: the {what} overflows "
                     f"double precision; reduce {hint}")


def scalar_product(a: ArrayLike, b: ArrayLike) -> complex | ArrayC:
    """Bilinear Minkowski scalar product <a|b> = eta_{mu nu} a^mu b^nu.

    Complex linear in both slots (no conjugation) and symmetric.  Inputs of
    shape (..., 4) give an array of shape (...); single vectors a complex.
    """
    s = _bilinear(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))
    return complex(s[0]) if s.ndim == 1 else s[..., 0]


def _bilinear(a: ArrayC, b: ArrayC) -> ArrayC:
    """<a|b> of complex (..., 4) arrays, kept with a trailing unit axis: (..., 1).

    The lowered a is a one-row matrix applied to b.
    """
    return np.matvec((a @ _ETA_C)[..., None, :], b)


def scalar_square(a: ArrayLike) -> complex | ArrayC:
    """Scalar square <a|a>; an arbitrary complex number in general."""
    return scalar_product(a, a)


def conjugate(a: ArrayLike) -> ArrayC:
    """Coordinate-wise complex conjugate in the standard basis."""
    return np.conj(np.asarray(a, dtype=np.complex128))


def lorentz_product(a: ArrayLike, b: ArrayLike) -> float | ArrayR:
    """Re <conj(a)|b>: the Lorentzian product extended to the full space.

    Restricts to the usual Lorentz product on the real (momentum) subspace
    and on the imaginary (position) subspace.
    """
    return scalar_product(conjugate(a), b).real


def symplectic_bracket(a: ArrayLike, b: ArrayLike) -> float | ArrayR:
    """Im <conj(a)|b>: the symplectic skew product; antisymmetric.

    Vanishes when both arguments are real or both pure imaginary; it pairs
    the momentum subspace with the position subspace.
    """
    return scalar_product(conjugate(a), b).imag


def decompose(a: ArrayLike) -> tuple[ArrayR, ArrayR]:
    """Split a = p + i*x into the real four-momentum p and position x.

    Cross-check identities, with s = <conj(a)|a>:
        p^2 = Re(s + <a|a>) / 2,   x^2 = Re(s - <a|a>) / 2.
    """
    a = np.asarray(a, dtype=np.complex128)
    return a.real.copy(), a.imag.copy()
