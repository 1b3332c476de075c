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

The independent oracle is :func:`evolve_numeric`, classical fixed-step RK4
built from the evolution generator A alone.  For this linear equation one
step is exactly p <- p + D p with the increment matrix
D = hA (I + hA/2 (I + hA/3 (I + hA/4))).  ``tau`` may be a vector: the stack
of D, one per entry, is formed once and every entry is stepped together, so
a trajectory costs one batched pass of ``steps`` products, not
samples x steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from .core import ETA, ArrayC, ArrayR
from .liealgebra import QoElement, qo_realize
from .representations import DUAL_PAIRS, Representation

# Kernel sinh(x)/x switches to its Taylor expansion below this |x| to avoid
# cancellation near null fields.
_SINHC_THRESHOLD = 1e-4


@dataclass(frozen=True)
class EMField:
    """Uniform electric and magnetic field three-vectors, natural units."""

    e: ArrayR
    b: ArrayR

    def __post_init__(self) -> None:
        for name in ("e", "b"):
            v = np.array(getattr(self, name), dtype=np.float64, copy=True)
            if v.shape != (3,):
                raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} components must be finite")
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    @property
    def faraday_vector(self) -> ArrayC:
        """Complex field vector E + iB."""
        return self.e + 1j * self.b


@dataclass(frozen=True)
class FieldInvariant:
    """Complex Lorentz invariant z = (E+iB).(E+iB) and w with w^2 = z/4.

    Componentwise, z = (E.E - B.B) + 2i E.B.  ``w`` is the principal square
    root of z/4; the branch cannot influence any downstream quantity because
    the evolution kernel is even in w.
    """

    z: complex
    w: complex


_BOOST_PLUS = tuple(Representation("spin_half_plus").angular_matrix(0, j) for j in (1, 2, 3))
# Gram matrix of the three boost images, inverted once for component extraction.
_BOOST_STACK = np.stack(_BOOST_PLUS).reshape(3, 16)
_BOOST_PINV = np.linalg.pinv(_BOOST_STACK)


def field_tensor(f: EMField) -> QoElement:
    """Real algebra element sum_j E^j D_{0j} + B^j Dperp_j.

    Electric components generate boosts, magnetic components rotations.  The
    result has real matrix entries and an antisymmetric lowered matrix.
    """
    coeffs = np.zeros((4, 4), dtype=np.complex128)
    for j in (1, 2, 3):
        coeffs[0, j] += f.e[j - 1] / 2.0
        coeffs[j, 0] -= f.e[j - 1] / 2.0
        k, l = DUAL_PAIRS[j]
        coeffs[k, l] += f.b[j - 1] / 2.0
        coeffs[l, k] -= f.b[j - 1] / 2.0
    return qo_realize(coeffs)


def faraday_tensor(f: EMField) -> ArrayC:
    """Complex Faraday operator sum_j (E^j + i B^j) X_j.

    X_j are the plus-representation boost images; the canonical
    anticommutation relations make the square equal z/4 times the identity.
    """
    fc = f.faraday_vector
    return fc[0] * _BOOST_PLUS[0] + fc[1] * _BOOST_PLUS[1] + fc[2] * _BOOST_PLUS[2]


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
    return (faraday_tensor(f) + faraday_conjugate(f)).real


def faraday_components(x: ArrayLike, tol: float = 1e-10) -> ArrayC:
    """Recover the complex components F^j from sum_j F^j X_j.

    Raises ValueError when the operator is not in the span of the three
    boost images within tol (relative to its size).
    """
    m = np.asarray(x, dtype=np.complex128)
    c = _BOOST_PINV.T @ m.reshape(16)
    recon = (c @ _BOOST_STACK).reshape(4, 4)
    scale = max(1.0, float(np.abs(m).max()))
    if np.abs(recon - m).max() > tol * scale:
        raise ValueError("operator is not a combination of the boost images")
    return c


def lorentz_force(field_op: ArrayLike, p: ArrayLike) -> ArrayC:
    """Force on a four-momentum: the field operator applied to p.

    For any algebra element the result is scalar-product orthogonal to p.
    """
    return np.asarray(field_op, dtype=np.complex128) @ np.asarray(p, dtype=np.complex128)


def invariant_z(f: EMField) -> FieldInvariant:
    """Complex invariant z = sum_j (E^j + i B^j)^2 and its half-root w."""
    fc = f.faraday_vector
    z = complex(np.sum(fc * fc))
    w = complex(np.sqrt(z + 0j) / 2.0)
    return FieldInvariant(z=z, w=w)


def _sinhc(x: complex) -> complex:
    """sinh(x)/x with a three-term Taylor fallback near zero."""
    if abs(x) < _SINHC_THRESHOLD:
        x2 = x * x
        return 1.0 + x2 / 6.0 + x2 * x2 / 120.0
    return np.sinh(x) / x


def exp_faraday(f: EMField, tau: float) -> ArrayC:
    """Closed form of exp(tau * Faraday tensor).

    Because the tensor squares to w^2 I, the series collapses to
    cosh(w tau) I + tau sinhc(w tau) * tensor; the null-field limit w -> 0
    degenerates to I + tau * tensor.  Even in w, so the branch of the square
    root is irrelevant.
    """
    w = invariant_z(f).w
    fc = faraday_tensor(f)
    return np.cosh(w * tau) * np.eye(4, dtype=np.complex128) + tau * _sinhc(w * tau) * fc


def exp_faraday_conjugate(f: EMField, tau: float) -> ArrayC:
    """Closed form of exp(tau * conjugate Faraday tensor)."""
    return np.conj(exp_faraday(f, tau))


def evolve_closed_form(f: EMField, p0: ArrayLike, tau: float, imag_tol: float = 1e-9) -> ArrayR:
    """Evolve a real four-momentum through proper time tau in closed form.

    p(tau) = exp(tau conj(Fc)) exp(tau Fc) p0, using that the two factors
    commute.  The input must be a real four-momentum; the output is real (the
    residual imaginary part is checked and discarded) and stays on the mass
    shell p^2 = p0^2.  Raises ValueError when the imaginary residual exceeds
    imag_tol * max(1, |p|).  A result that overflows is returned non-finite.
    """
    p0 = np.asarray(p0, dtype=np.complex128)
    if p0.shape != (4,):
        raise ValueError(f"momentum must have 4 components, got shape {p0.shape}")
    if np.abs(p0.imag).max() > imag_tol:
        raise ValueError("evolve_closed_form expects a real four-momentum")
    x = exp_faraday(f, tau)
    p = np.conj(x) @ (x @ p0.real)
    imag = np.abs(p.imag).max()
    # |p| is only needed when the residual is above the absolute tolerance.
    if imag > imag_tol and imag > imag_tol * np.abs(p).max():
        raise ValueError(f"imaginary residual {imag:.3e} of the evolved momentum "
                         f"exceeds {imag_tol:g} relative to |p|")
    return p.real.copy()


def evolve_numeric(f: EMField, p0: ArrayLike, tau: ArrayLike, steps: int) -> ArrayR:
    """Classical fixed-step fourth-order Runge-Kutta for dp/dtau = F p.

    F is the conjugate-pair evolution generator, so this integrates exactly
    the same equation the closed form solves; global error is O(steps^-4).
    Serves as the independent oracle for :func:`evolve_closed_form`.

    ``tau`` is a scalar, giving shape (4,), or a 1-D array of proper times,
    giving one row per entry, shape (len(tau), 4).  Each entry integrates
    from 0 with its own step h = tau_k / steps.  For this linear equation
    one RK4 step is exactly p <- p + D p with the increment matrix
    D = hA (I + hA/2 (I + hA/3 (I + hA/4))), A the evolution generator;
    the stack of D is formed once and all entries are stepped together.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    taus = np.asarray(tau, dtype=np.float64)
    if taus.ndim > 1:
        raise ValueError(f"tau must be a scalar or a 1-D array, got shape {taus.shape}")
    p = np.asarray(p0, dtype=np.float64)
    if p.shape != (4,):
        raise ValueError(f"momentum must have 4 components, got shape {p.shape}")
    eye = np.eye(4)
    x = (taus.reshape(-1, 1, 1) / steps) * evolution_generator(f)
    d = x @ (eye + (x / 2.0) @ (eye + (x / 3.0) @ (eye + x / 4.0)))
    q = p.reshape(4, 1)
    for _ in range(steps):
        q = q + d @ q
    q = q[..., 0]
    return q[0] if taus.ndim == 0 else q


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
    scale = max(np.ldexp(1.0, -e), float(np.abs(p).max()))
    return abs(float(p @ ETA @ p) - float(p0 @ ETA @ p0)) / scale ** 2


def mass_shell_residual(f: EMField, p0: ArrayLike, tau: float) -> float:
    """Relative drift of p^2 along the closed-form flow at proper time tau.

    Raises ValueError when the evolved momentum is not finite.
    """
    p = evolve_closed_form(f, p0, tau)
    if not np.all(np.isfinite(p)):
        raise ValueError(f"evolved momentum is not finite at tau={tau:g}")
    return shell_drift(p0, p)
