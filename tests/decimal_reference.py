"""A 50-digit reference for the closed-form flows, in the standard library's
``decimal`` arithmetic.

``Decimal(float)`` is exact, so a double's rapidity enters unrounded.  sinh
and cosh come from ``Decimal.exp`` (a Taylor series for |x| < 1, where
(e^x - e^-x)/2 would cancel), sin and cos from Taylor series after reduction
modulo pi/2 against a 70-digit pi.  Each function works with ``GUARD`` digits
beyond ``DIGITS`` and returns a ``Decimal`` rounded to ``DIGITS``
significant digits.  cosh(x) - 1 and 1 - cos(x) are 2 sinh(x/2)^2 and
2 sin(x/2)^2, so they keep their digits near x = 0.

The flows are the exact closed forms of exp(phi X) for an operator with
entries that are exact in binary: ``half_flow`` for X^2 = +/- I/4 and
``rotation_flow`` for the spin-1 generator D = d_basis(k, l) and its square.
``faraday_flow`` is exp(tau Fc) for the Faraday operator of a field, and
``evolution`` the momentum conj(exp(tau Fc)) exp(tau Fc) p0; their sinh and
cosh are power series in (w tau)^2, so they need no complex root.
``eps_error`` judges a double-precision result against one of them.
"""

from __future__ import annotations

import functools
import math
from decimal import Context, Decimal, localcontext

import numpy as np

DIGITS = 50
GUARD = 20
#: The spacing of doubles at 1.
EPS = 2.0 ** -52

_ROUND = Context(prec=DIGITS)


def _working(ctx) -> None:
    ctx.prec = DIGITS + GUARD


def _pi() -> Decimal:
    """pi to DIGITS + GUARD digits, by the series of the ``pi`` recipe in
    the decimal module's documentation."""
    with localcontext() as ctx:
        ctx.prec = DIGITS + GUARD + 2
        lasts, t, s, n, na, d, da = 0, Decimal(3), Decimal(3), 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    return Context(prec=DIGITS + GUARD).plus(s)


PI = _pi()


def _series(x: Decimal, first: Decimal, start: int, sign: int) -> Decimal:
    """first + sign x^2 first / ((start+1)(start+2)) + ..., the Taylor tail of
    sinh or cosh (sign +1) or of sin or cos (sign -1) whose first term has
    power ``start``; stops when a term no longer changes the sum."""
    x2 = sign * x * x
    total = term = first
    n = start
    while True:
        term = term * x2 / ((n + 1) * (n + 2))
        n += 2
        if total + term == total:
            return total
        total += term


def sinh(x) -> Decimal:
    with localcontext() as ctx:
        _working(ctx)
        x = Decimal(x)
        if abs(x) < 1:
            value = _series(x, x, 1, 1)
        else:
            e = x.exp()
            value = (e - 1 / e) / 2
    return _ROUND.plus(value)


def cosh(x) -> Decimal:
    with localcontext() as ctx:
        _working(ctx)
        e = Decimal(x).exp()
        value = (e + 1 / e) / 2
    return _ROUND.plus(value)


def _sin_cos(x) -> tuple[Decimal, Decimal]:
    """(sin x, cos x) at working precision: x = r + k pi/2 with |r| <= pi/4."""
    x = Decimal(x)
    k = int((x / (PI / 2)).to_integral_value())
    r = x - k * (PI / 2)
    s, c = _series(r, r, 1, -1), _series(r, Decimal(1), 0, -1)
    return ((s, c), (c, -s), (-s, -c), (-c, s))[k % 4]


def sin(x) -> Decimal:
    with localcontext() as ctx:
        _working(ctx)
        value = _sin_cos(x)[0]
    return _ROUND.plus(value)


def cos(x) -> Decimal:
    with localcontext() as ctx:
        _working(ctx)
        value = _sin_cos(x)[1]
    return _ROUND.plus(value)


def _flow(even: Decimal, odd: Decimal, x, even2: Decimal = Decimal(0), x2=None) -> list:
    """Entries even I + odd X + even2 X2 as (re, im) pairs, 4 rows of 4."""
    x = np.asarray(x, dtype=np.complex128).tolist()
    x2 = np.zeros((4, 4)).tolist() if x2 is None else np.asarray(x2, np.complex128).tolist()
    with localcontext() as ctx:
        _working(ctx)
        return [[(_ROUND.plus(odd * Decimal(x[i][j].real) + even2 * Decimal(x2[i][j].real)
                              + (even if i == j else 0)),
                  _ROUND.plus(odd * Decimal(x[i][j].imag) + even2 * Decimal(x2[i][j].imag)))
                 for j in range(4)] for i in range(4)]


@functools.lru_cache(maxsize=256)
def _coefficients(phi: float, hyperbolic: bool, half: bool) -> tuple[Decimal, Decimal, Decimal]:
    """(even, odd, even2) of the flow at phi: cosh(phi/2), 2 sinh(phi/2), 0
    (hyperbolic half) or cos(phi/2), 2 sin(phi/2), 0 (trigonometric half);
    1, sinh phi, cosh phi - 1 or 1, sin phi, 1 - cos phi otherwise."""
    with localcontext() as ctx:
        _working(ctx)
        h = Decimal(phi) / 2
        s = sinh(h) if hyperbolic else sin(h)
        if half:
            return (cosh(h) if hyperbolic else cos(h)), 2 * s, Decimal(0)
        return Decimal(1), (sinh(phi) if hyperbolic else sin(phi)), 2 * s * s


def half_flow(x, phi: float) -> list:
    """exp(phi X) = cosh(phi/2) I + 2 sinh(phi/2) X when X^2 = I/4, and
    cos(phi/2) I + 2 sin(phi/2) X when X^2 = -I/4.  X has entries exact in
    binary, so its square (computed in doubles) is exact; any other square
    raises ValueError."""
    x = np.asarray(x, dtype=np.complex128)
    square = x @ x
    for sign in (1, -1):
        if np.array_equal(square, sign * 0.25 * np.eye(4)):
            even, odd, _ = _coefficients(float(phi), sign > 0, True)
            return _flow(even, odd, x)
    raise ValueError("operator does not square to +/- I/4 exactly")


def rotation_flow(d, phi: float) -> list:
    """exp(phi D) = I + odd D + even D^2 for a generator with D^3 = D (odd =
    sinh phi, even = cosh phi - 1) or D^3 = -D (odd = sin phi, even = 1 -
    cos phi), told apart by the exact cube; D = 0 gives the identity."""
    d = np.asarray(d, dtype=np.complex128)
    d2 = d @ d
    for sign in (1, -1):
        if np.array_equal(d2 @ d, sign * d) and (d.any() or sign < 0):
            one, odd, even = _coefficients(float(phi), sign > 0, False)
            return _flow(one, odd, d, even, d2)
    raise ValueError("generator cube is not +/- the generator")


def _cmul(a: tuple, b: tuple) -> tuple:
    """The product of two complex numbers held as (re, im) pairs."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _kernel(u: tuple) -> tuple[tuple, tuple]:
    """(cosh x, sinh(x)/x) for a complex x with x^2 = u, as (re, im) pairs:
    the series sum u^n / (2n)! and sum u^n / (2n+1)!.  Both are even in x,
    so no root is taken and the branch of x cannot matter."""
    even = odd = term = (Decimal(1), Decimal(0))
    n = 0
    while True:
        n += 1
        term = tuple(t / ((2 * n - 1) * (2 * n)) for t in _cmul(term, u))
        more = (even[0] + term[0], even[1] + term[1])
        more_odd = (odd[0] + term[0] / (2 * n + 1), odd[1] + term[1] / (2 * n + 1))
        if more == even and more_odd == odd:
            return even, odd
        even, odd = more, more_odd


def _faraday_flow(e, b, tau, boosts) -> list:
    """exp(tau Fc) at working precision, 4 rows of 4 (re, im) pairs."""
    x = np.asarray(boosts, dtype=np.complex128).tolist()
    fc = [(Decimal(float(ej)), Decimal(float(bj))) for ej, bj in zip(e, b)]
    z = [sum(parts) for parts in zip(*(_cmul(f, f) for f in fc))]
    t = Decimal(float(tau))
    even, odd = _kernel((z[0] * t * t / 4, z[1] * t * t / 4))
    flow = []
    for r in range(4):
        row = []
        for c in range(4):
            op = [sum(parts) for parts in zip(*(_cmul(f, (Decimal(xj[r][c].real),
                                                           Decimal(xj[r][c].imag)))
                                                 for f, xj in zip(fc, x)))]
            entry = _cmul(odd, (t * op[0], t * op[1]))
            row.append((entry[0] + (even[0] if r == c else 0), entry[1] + (even[1] if r == c else 0)))
        flow.append(row)
    return flow


def faraday_flow(e, b, tau, boosts) -> list:
    """exp(tau Fc) for the field (e, b), 4 rows of 4 (re, im) pairs.

    Fc = sum_j (e_j + i b_j) X_j with ``boosts`` the three X_j, whose
    entries are exact in binary; Fc^2 = z/4 I with z = sum_j (e_j + i b_j)^2,
    so exp(tau Fc) = cosh(w tau) I + tau sinhc(w tau) Fc for (w tau)^2 =
    z tau^2 / 4.  The field, tau and so z enter exactly."""
    with localcontext() as ctx:
        _working(ctx)
        flow = _faraday_flow(e, b, tau, boosts)
    return [[(_ROUND.plus(re), _ROUND.plus(im)) for re, im in row] for row in flow]


def evolution(e, b, p0, tau, boosts) -> list:
    """p(tau) = conj(exp(tau Fc)) exp(tau Fc) p0 for a real momentum p0, as
    4 (re, im) pairs; the exact result is real."""
    with localcontext() as ctx:
        _working(ctx)
        flow = _faraday_flow(e, b, tau, boosts)
        p = [Decimal(float(x)) for x in p0]
        half = [[sum(m[k] * p[c] for c, m in enumerate(flow[r])) for k in (0, 1)]
                for r in range(4)]
        out = [[sum(parts) for parts in zip(*(_cmul((m[0], -m[1]), half[c])
                                               for c, m in enumerate(flow[r])))]
               for r in range(4)]
    return [(_ROUND.plus(re), _ROUND.plus(im)) for re, im in out]


def eps_error(got, want: list, whole: bool = False) -> float:
    """Largest |got - want| over the entries, in units of EPS, relative to
    max(1, |want|) of the entry, or with ``whole`` to max(1, |want|) of the
    largest entry; |.| is the complex modulus.  ``want`` is a list of (re, im)
    pairs or of rows of them, in the shape of ``got``.  The differences are
    exact to the working precision; only the ratio is taken in doubles."""
    got = np.asarray(got, dtype=np.complex128).ravel().tolist()
    want = [pair for row in want for pair in row] if isinstance(want[0], list) else want
    size = [math.hypot(float(re), float(im)) for re, im in want]
    scale = [max(size)] * len(size) if whole else size
    worst = 0.0
    with localcontext() as ctx:
        _working(ctx)
        for g, (re, im), s in zip(got, want, scale):
            err = math.hypot(float(Decimal(g.real) - re), float(Decimal(g.imag) - im))
            worst = max(worst, err / max(1.0, s))
    return worst / EPS
