"""Uniform electromagnetic fields as algebra elements and the closed-form
evolution of a charged particle's four-momentum.

A field (E, B) enters the library in two related operator forms:

* ``field_tensor``: the real algebra element sum_j E^j D_{0j} + B^j Dperp_j,
  electric components along the boost generators, magnetic along the
  rotations.
* ``faraday_tensor``: the complex combination sum_j (E^j + i B^j) * X_j with
  X_j the plus-representation boost images.  Its square is z/4 times the
  identity, where z = (E + iB).(E + iB) is the complex Lorentz invariant of
  the field.

The momentum evolution dp/dtau = F p is solved in closed form with F DEFINED
as the Faraday tensor plus its conjugate.  Expanding that sum gives
sum_j E^j D_{0j} - B^j Dperp_j: the magnetic sign is OPPOSITE to
``field_tensor``.  Both operators are exposed; everything in the evolution
path (closed form, numeric integrator, invariants) consistently uses the
conjugate-pair definition, for which the commuting-factor solution

    p(tau) = exp(tau conj(Fc)) exp(tau Fc) p0

holds exactly.  Charge and mass are absorbed into the field units (q/m = 1);
proper time is the evolution parameter.

Field axis: an :class:`EMField` holds E and B of shape ``(..., 3)``, one
field per leading index.  ``field_tensor``, ``faraday_tensor``,
``faraday_conjugate``, ``evolution_generator``, ``invariant_z``,
``exp_faraday``, ``evolve_closed_form`` and ``evolve_numeric`` work on such
a stack in one call and broadcast the field axes against the proper times
``tau`` (and a momentum's leading axes) by numpy's rules; a field stack of
shape ``(N, 1)`` against ``tau`` of shape ``(T,)`` gives every field at
every proper time.  Operators come back with shape ``(..., 4, 4)`` and
momenta ``(..., 4)``.  Each entry of a batched result is bit for bit the
result of the single call on that entry, and single inputs keep their
types: a :class:`FieldInvariant` of ``complex``, ``(4, 4)`` operators,
``(4,)`` momenta.

A single field runs the same ufuncs in the same order as a stack, on numpy
scalars where a stack has arrays, so it pays for its arithmetic rather than
for array glue: w and the argument of sinh(x)/x are numpy complexes, tested
without array reductions, and both evolutions' momenta go through
``np.matvec``, as a stack's do.  A momentum of a real dtype is taken as
float64, without the complex cast and the imaginary-part check that a
complex one gets.  The contract table checks that the single calls keep the
bits of the stacks.

A result that overflows double precision is an error:
:func:`exp_faraday`, :func:`evolve_closed_form` and :func:`evolve_numeric`
raise ValueError naming the first proper time whose result is not finite,
never return inf or NaN; a NaN or infinite proper time is named as an
input error, ``tau must be finite, got inf``.  They silence numpy's
overflow and invalid-value warnings on the computation whose result they
check, so the ValueError is the only signal.  :func:`invariant_z` and
:func:`lorentz_force` are polynomial kernels: they follow numpy and return
inf or NaN with a RuntimeWarning.

The half-root w of z/4, which the closed forms use, is sqrt(z)/2 wherever
z is finite.  Where z overflows, the field's Faraday vector is divided by a
power of two, the root taken, and the result multiplied back.  Both steps
are exact, so w is finite for every finite field, and a field of 1e200 at
tau = 1e-200 gives the boost by rapidity 1, not an overflow error.

The initial momentum of both evolutions is checked by one helper before
any arithmetic: it has shape ``(..., 4)`` and finite components, or the
call raises ValueError (``momentum components must be finite``).

The independent oracle is :func:`evolve_numeric`, classical fixed-step RK4
built from the evolution generator A alone.  For this linear equation one
step is exactly p <- p + D p with the increment matrix
D = hA (I + hA/2 (I + hA/3 (I + hA/4))).  The stack of D, one per field and
proper time, is formed once and every entry is stepped together, so a batch
costs one pass of ``steps`` stacked products, not entries x steps.  The
momenta are stepped in place: a step is one ``np.matvec`` into a scratch
buffer and one ``np.add`` back into the momenta, and allocates nothing.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .core import _UNIT, ETA, ArrayC, ArrayR, _frozen, _require_finite
from .liealgebra import QoElement
from .representations import Representation

# Kernel sinh(x)/x switches to its Taylor expansion below this |x| to avoid
# cancellation near null fields.
_SINHC_THRESHOLD = 1e-4

@dataclass(frozen=True)
class EMField:
    """Uniform electric and magnetic field three-vectors, natural units.

    ``e`` and ``b`` have the same shape ``(..., 3)``: a single field or a
    stack of fields along the leading axes.  Indexing selects along those
    axes, ``fields[:40]`` or ``fields[:, None]``.
    """

    e: ArrayR
    b: ArrayR

    def __post_init__(self) -> None:
        for name in ("e", "b"):
            v = _frozen(getattr(self, name), np.float64)
            if v.shape[-1:] != (3,):
                raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
            # Cheaper than .all() on the three entries of one field.
            if np.count_nonzero(np.isfinite(v)) != v.size:
                raise ValueError(f"{name} components must be finite")
            object.__setattr__(self, name, v)
        if self.e.shape != self.b.shape:
            raise ValueError(f"e and b must have the same shape, got {self.e.shape} "
                             f"and {self.b.shape}")

    def __getitem__(self, index) -> "EMField":
        index = index if isinstance(index, tuple) else (index,)
        return EMField(self.e[index + (slice(None),)], self.b[index + (slice(None),)])

    @property
    def faraday_vector(self) -> ArrayC:
        """Complex field vector E + iB, shape ``(..., 3)``."""
        return self.e + 1j * self.b


@dataclass(frozen=True)
class FieldInvariant:
    """Complex Lorentz invariant z = (E+iB).(E+iB) and w with w^2 = z/4.

    Componentwise, z = (E.E - B.B) + 2i E.B.  ``w`` is the principal square
    root of z/4; the branch cannot influence any downstream quantity because
    the evolution kernel is even in w.  Both are ``complex`` for a single
    field and arrays of the field axes for a stack.
    """

    z: complex | ArrayC
    w: complex | ArrayC


_BOOST_PLUS = _frozen([Representation("spin_half_plus").angular_matrix(0, j) for j in (1, 2, 3)])
# Column j holds the entries of X_j^T, so a row of the 16 entries of F times
# this matrix gives tr(X_j F) = F^j (the boost images obey tr(X_j X_k) =
# delta_jk).  C-contiguous, so a single operator and a stack contract alike.
_BOOST_TRACE = np.ascontiguousarray(_BOOST_PLUS.mT.reshape(3, 16).T)
# Boost generators D_{0j} and their dual rotations Dperp_j, j = 1, 2, 3, as
# rows of 16 real entries: X_j = (D_{0j} + i Dperp_j) / 2, and doubling the
# entries 0 and +/-1/2 is exact.
_BOOST_ROWS = 2 * _BOOST_PLUS.real.reshape(3, 16)
_ROTATION_ROWS = 2 * _BOOST_PLUS.imag.reshape(3, 16)


def field_tensor(f: EMField) -> QoElement:
    """Real algebra element sum_j E^j D_{0j} + B^j Dperp_j.

    Electric components generate boosts, magnetic components rotations.  The
    result has real matrix entries and an antisymmetric lowered matrix; its
    ``matrix`` has shape ``(..., 4, 4)``.  Each entry of the sum has one
    nonzero term, so the products are exact, and zero entries are +0.
    """
    m = f.e @ _BOOST_ROWS + f.b @ _ROTATION_ROWS
    return QoElement(m.reshape(f.e.shape[:-1] + (4, 4)))


def faraday_tensor(f: EMField) -> ArrayC:
    """Complex Faraday operator sum_j (E^j + i B^j) X_j, shape ``(..., 4, 4)``.

    X_j are the plus-representation boost images; the canonical
    anticommutation relations make the square equal z/4 times the identity.
    """
    return _faraday(f.faraday_vector)


def _faraday(fc: ArrayC) -> ArrayC:
    """sum_j fc^j X_j, summed in the order j = 1, 2, 3."""
    t = fc[..., None, None] * _BOOST_PLUS
    return t[..., 0, :, :] + t[..., 1, :, :] + t[..., 2, :, :]


def faraday_conjugate(f: EMField) -> ArrayC:
    """Entrywise conjugate of the Faraday operator.

    Equals sum_j conj(E^j + i B^j) times the minus-representation boost
    images, and commutes with the Faraday operator itself.
    """
    return np.conj(faraday_tensor(f))


def evolution_generator(f: EMField) -> ArrayR:
    """The real operator driving dp/dtau: Faraday tensor plus its conjugate.

    Expands to sum_j E^j D_{0j} - B^j Dperp_j; note the magnetic sign is
    opposite to :func:`field_tensor` (see the module docstring).
    """
    fc = faraday_tensor(f)
    return (fc + np.conj(fc)).real


def faraday_components(x: ArrayLike, tol: float = 1e-10) -> ArrayC:
    """Recover the complex components F^j = tr(X_j F) from F = sum_j F^j X_j.

    ``x`` is one operator or a ``(..., 4, 4)`` stack; the result has shape
    ``(..., 3)``, each entry bit for bit the single call's.  Raises
    ValueError when an operator is not in the span of the three boost
    images within tol (relative to its size).
    """
    m = np.asarray(x, dtype=np.complex128)
    c = (m.reshape(m.shape[:-2] + (1, 16)) @ _BOOST_TRACE)[..., 0, :]
    gap = np.abs(_faraday(c) - m).max(axis=(-2, -1))
    if (gap > tol * np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))).any():
        raise ValueError("operator is not a combination of the boost images")
    return c


def lorentz_force(field_op: ArrayLike, p: ArrayLike) -> ArrayC:
    """Force on a four-momentum: the field operator applied to p.

    For any algebra element the result is scalar-product orthogonal to p.
    Follows numpy on overflow: inf or NaN entries with a RuntimeWarning.
    """
    return np.asarray(field_op, dtype=np.complex128) @ np.asarray(p, dtype=np.complex128)


def _half_root(fc: ArrayC) -> tuple[ArrayC, ArrayC]:
    """z and its half-root w of the Faraday vectors ``fc``, per field.

    z is the plain sum of squares and follows numpy on overflow.  w is
    sqrt(z)/2 wherever that is finite.  Where z overflows, w is taken from
    fc divided by 2^k, with k from ``frexp`` of the field's largest real or
    imaginary part less 500, so that the scaled squares stay below 2^1003,
    and the root is multiplied back by 2^k.  Both steps are exact, and the
    parts of w are at most sqrt(3)/2 times the largest part of fc, so w is
    finite for every finite fc.  Each field takes its own branch, so an
    entry of a stack has the bits of the single call.  A single field's w is
    a numpy complex, and ``cmath.isfinite`` tests it.
    """
    z = np.add.reduce(fc * fc, axis=-1)
    w = np.sqrt(z + 0j) / 2.0
    if fc.ndim == 1:
        return z, w if cmath.isfinite(w) else _scaled_half_root(fc)[()]
    finite = np.isfinite(w)
    if np.count_nonzero(finite) == finite.size:
        return z, w
    return z, np.where(finite, w, _scaled_half_root(fc))


def _scaled_half_root(fc: ArrayC) -> ArrayC:
    """sqrt(z)/2 of every field, from fc divided by 2^k and multiplied back."""
    # Real and imaginary parts side by side, shape (..., 6).
    parts = np.ascontiguousarray(fc).view(np.float64)
    k = np.maximum(np.frexp(np.abs(parts).max(axis=-1))[1] - 500, 0)
    scaled = np.ldexp(parts, -k[..., None]).view(np.complex128)
    root = np.sqrt(np.add.reduce(scaled * scaled, axis=-1) + 0j)[..., None]
    return np.ldexp(root.view(np.float64), k[..., None] - 1).view(np.complex128)[..., 0]


def invariant_z(f: EMField) -> FieldInvariant:
    """Complex invariant z = sum_j (E^j + i B^j)^2 and its half-root w.

    z follows numpy on overflow: inf or NaN, with a RuntimeWarning.  w is
    sqrt(z)/2 wherever z is finite; where z overflows it is taken from the
    field divided by a power of two, so it is finite for every finite field
    (w = 5e199 for E = (1e200, 0, 0)).
    """
    z, w = _half_root(f.faraday_vector)
    if np.ndim(z) == 0:
        return FieldInvariant(z=complex(z), w=complex(w))
    return FieldInvariant(z=z, w=w)


def _sinhc(x: ArrayLike) -> complex | ArrayC:
    """sinh(x)/x, entry by entry, with a three-term Taylor fallback near zero.

    A complex product of numpy scalars and one of arrays may round
    differently (the array loops may fuse a multiply and an add), so the
    Taylor terms are built from real and imaginary parts with one rounding
    per float operation: an entry has the same bits alone or in a stack.
    """
    # One entry is a numpy complex, whose bool is tested as it is; a stack
    # is an array.
    x = np.asarray(x, dtype=np.complex128)[()]
    small = np.absolute(x) < _SINHC_THRESHOLD
    if not (small if x.ndim == 0 else np.count_nonzero(small)):
        return np.sinh(x) / x
    xr, xi = x.real, x.imag
    x2r, x2i = xr * xr - xi * xi, xr * xi + xi * xr
    x4r, x4i = x2r * x2r - x2i * x2i, x2r * x2i + x2i * x2r
    taylor = ((1.0 + x2r / 6.0) + x4r / 120.0) + 1j * ((0.0 + x2i / 6.0) + x4i / 120.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(small, taylor, np.sinh(x) / x)[()]


def _closed_flow(w: ArrayLike, tau: ArrayLike, op: ArrayC) -> ArrayC:
    """cosh(w tau) I + tau sinhc(w tau) op: exp(tau op) for an operator with
    op^2 = w^2 I, whichever root w is given."""
    x = w * tau
    return np.cosh(x)[..., None, None] * _UNIT + (tau * _sinhc(x))[..., None, None] * op


def _exp_faraday(f: EMField, tau: ArrayLike) -> ArrayC:
    """exp(tau * Faraday tensor) without the finiteness check."""
    fc = f.faraday_vector
    return _closed_flow(_half_root(fc)[1], np.asarray(tau, dtype=np.float64)[()], _faraday(fc))


def exp_faraday(f: EMField, tau: ArrayLike) -> ArrayC:
    """Closed form of exp(tau * Faraday tensor), shape ``(..., 4, 4)``.

    Because the tensor squares to w^2 I, the series collapses to
    cosh(w tau) I + tau sinhc(w tau) * tensor; the null-field limit w -> 0
    degenerates to I + tau * tensor.  Even in w, so the branch of the square
    root is irrelevant.  Raises ValueError when an entry overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x = _exp_faraday(f, tau)
    return _require_finite(x, tau, "tau", "flow", "tau or the field", 2)


def exp_faraday_conjugate(f: EMField, tau: ArrayLike) -> ArrayC:
    """Closed form of exp(tau * conjugate Faraday tensor)."""
    return np.conj(exp_faraday(f, tau))


def _momentum(p0: ArrayLike, dtype: type) -> NDArray:
    """``p0`` as a ``dtype`` array of shape ``(..., 4)``; raises ValueError
    when the last axis is not 4 or a component is NaN or infinite."""
    p = np.asarray(p0, dtype=dtype)
    if p.shape[-1:] != (4,):
        raise ValueError(f"momentum must have 4 components, got shape {p.shape}")
    if np.count_nonzero(np.isfinite(p)) != p.size:
        raise ValueError("momentum components must be finite")
    return p


def evolve_closed_form(f: EMField, p0: ArrayLike, tau: ArrayLike,
                       imag_tol: float = 1e-9) -> ArrayR:
    """Evolve a real four-momentum through proper time tau in closed form.

    p(tau) = exp(tau conj(Fc)) exp(tau Fc) p0, using that the two factors
    commute.  The field axes, the axes of ``tau`` and the leading axes of
    ``p0`` (shape ``(..., 4)``) broadcast; the result has shape ``(..., 4)``.
    The input must be a real four-momentum; the output is real (the
    residual imaginary part is checked and discarded) and stays on the mass
    shell p^2 = p0^2.  Raises ValueError when an evolved momentum is not
    finite, or when its imaginary residual exceeds imag_tol * max(1, |p|).
    """
    p0 = np.asarray(p0)
    # A real momentum needs neither the complex cast nor its imaginary check.
    real = p0.dtype.kind in "biuf"
    p0 = _momentum(p0, np.float64 if real else np.complex128)
    if (0.0 if real else np.abs(p0.imag).max(initial=0.0)) > imag_tol:
        raise ValueError("evolve_closed_form expects a real four-momentum")
    with np.errstate(over="ignore", invalid="ignore"):
        x = _exp_faraday(f, tau)
        p = np.matvec(np.conj(x), np.matvec(x, p0.real))
    _require_finite(p, tau, "tau", "momentum", "tau or the field", 1)
    # |p| is only needed when a residual is above the absolute tolerance.
    if np.abs(p.imag).max(initial=0.0) > imag_tol:
        imag = np.abs(p.imag).max(axis=-1)
        bad = (imag > imag_tol) & (imag > imag_tol * np.abs(p).max(axis=-1))
        if bad.any():
            raise ValueError(f"imaginary residual {imag[bad].flat[0]:.3e} of the evolved "
                             f"momentum exceeds {imag_tol:g} relative to |p|")
    return p.real.copy()


def evolve_numeric(f: EMField, p0: ArrayLike, tau: ArrayLike, steps: int) -> ArrayR:
    """Classical fixed-step fourth-order Runge-Kutta for dp/dtau = F p.

    F is the conjugate-pair evolution generator, so this integrates exactly
    the same equation the closed form solves; global error is O(steps^-4).
    Serves as the independent oracle for :func:`evolve_closed_form`.

    ``tau`` is a scalar or a 1-D array of proper times; it broadcasts
    against the field axes and the leading axes of ``p0`` (shape
    ``(..., 4)``), and the result has one row of shape ``(4,)`` per entry.
    A single field gives ``(4,)`` for a scalar tau and ``(len(tau), 4)`` for
    a vector.  Each entry integrates from 0 with its own step
    h = tau_k / steps.  For this linear equation one RK4 step is exactly
    p <- p + D p with the increment matrix
    D = hA (I + hA/2 (I + hA/3 (I + hA/4))), A the evolution generator;
    the stack of D is formed once and all entries are stepped together.
    The steps run in place on a copy of ``p0`` broadcast to the result's
    shape, which is returned: ``D p`` goes into one scratch buffer and is
    added back, the same sums in the same order as ``p + D p``, with no
    array allocated per step.  ``p0`` is never written, and the result is a
    new writable array.  Raises ValueError naming the first tau (C order)
    whose integrated momentum is not finite.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    taus = np.asarray(tau, dtype=np.float64)
    if taus.ndim > 1:
        raise ValueError(f"tau must be a scalar or a 1-D array, got shape {taus.shape}")
    p = _momentum(p0, np.float64)
    eye = np.eye(4)
    with np.errstate(over="ignore", invalid="ignore"):
        x = (taus[..., None, None] / steps) * evolution_generator(f)
        d = x @ (eye + (x / 2.0) @ (eye + (x / 3.0) @ (eye + x / 4.0)))
        q = np.array(np.broadcast_to(p, np.broadcast_shapes(d.shape[:-1], p.shape)))
        dq = np.empty_like(q)
        # Positional outputs: each step writes two existing buffers and
        # allocates nothing (out= by keyword costs more per call).  The
        # ufuncs are bound once, outside the loop, for the same reason.
        matvec, add = np.matvec, np.add
        for _ in range(steps):
            matvec(d, q, dq)
            add(q, dq, q)
    return _require_finite(q, taus, "tau", "momentum", "tau or the field", 1)


def _minkowski_square(p: ArrayR) -> ArrayR:
    """p @ ETA @ p for each row of p, without conjugation."""
    return ((p @ ETA)[..., None, :] @ p[..., :, None])[..., 0, 0]


def shell_drift(p0: ArrayLike, p: ArrayLike) -> float:
    """Mass-shell drift |p^2 - p0^2| relative to max(1, |p|)^2.

    Both momenta are first divided by a power of two near the scale.  That
    division is exact, so the result has the bits of the unscaled formula
    wherever that formula does not overflow, and stays finite for every
    finite p.
    """
    p0 = np.asarray(p0, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    _, e = np.frexp(max(1.0, float(np.abs(p).max())))
    p0, p = np.ldexp(p0, -e), np.ldexp(p, -e)
    scale = max(float(np.ldexp(1.0, -e)), float(np.abs(p).max()))
    return abs(float(_minkowski_square(p)) - float(_minkowski_square(p0))) / (scale * scale)


def mass_shell_residual(f: EMField, p0: ArrayLike, tau: float) -> float:
    """Relative drift of p^2 along the closed-form flow at proper time tau.

    Raises ValueError, from :func:`evolve_closed_form`, when the evolved
    momentum overflows.
    """
    return shell_drift(p0, evolve_closed_form(f, p0, tau))
