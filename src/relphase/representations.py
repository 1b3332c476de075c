"""Spin-1 and spin-1/2 images of the translation and angular-momentum
generators, their exponential flows, and the null-tetrad (Newman-Penrose)
block structure.

Generator labels: P_mu for the four translations, M_{alpha beta} (alpha !=
beta, M_{beta alpha} = -M_{alpha beta}) for boosts (one index 0) and
rotations (both indices spatial).

The spin-1 map sends P_mu to the basis vector u_mu (grade 1) and
M_{alpha beta} to the algebra generator d_basis(alpha, beta) (grade 0).
Each map keeps one table, built once at import: an immutable graded element
for each of the four translations and the twelve ordered angular labels.
Every call returns the same element, and ``angular_matrix`` its read-only
operator.

The spin-1/2 maps combine each boost generator with its dual rotation
generator.  With the dual pairing

    perp(0,1) = (2,3),   perp(0,2) = (3,1),   perp(0,3) = (1,2),

the combinations D(0,j) +/- i D_perp(0,j) square to the identity and satisfy
canonical anticommutation relations; halving them gives the boost images.
Rotation images follow from the complex dependence M_{kl} -> -i M_{0j}
(cyclic, plus sign) or its conjugate (minus sign).  Between grades 0 and 1 the
spin-1/2 maps use the modified bracket [A, v] = (A + conj(A)) v, which
reproduces the translation commutators exactly.

Each closed-form flow exp(phi M) is one ``np.dot`` of a coefficient row
against read-only rows built at import: (1, odd, even) against (I, D, D^2)
for a spin-1 label, (even, odd) against (I, X) for a spin-1/2 table image
X.  Every entry is a sum of exact products with at most two nonzero terms,
so the flow has the bits of the elementwise formula I + odd D + even D^2
(or even I + odd X) on every BLAS kernel.  The formula itself runs for any
other operator, for coefficients that are not finite, and for spin-1/2
rotations with cos(phi/2) < 0 and sin(phi/2) < 0, where it leaves -0.0 real
parts that no dot product gives.

Sign conventions that differ from common displays, fixed by internal
consistency and covered by tests:

* exp(phi * d_basis(0,1)) has -sinh(phi) off-diagonal entries (u_0 ->
  cosh(phi) u_0 - sinh(phi) u_1).  The textbook boost with +sinh corresponds
  to rapidity -phi.
* The closed-form spin-1/2 flows carry a factor 2 on the generator term:
  exp(phi X) = cos(phi/2) I + 2 sin(phi/2) X when X^2 = -I/4, and
  cosh/sinh likewise when X^2 = +I/4.
* In the null tetrad (l, m, n, mbar) the first diagonal block of the plus
  representation is -conj(sigma_j)/2 for every boost; the second block is
  -sigma_j/2 for j in {1, 2} but +sigma_3/2 for j = 3 (equivalently
  -sigma_1 conj(sigma_j) sigma_1 / 2 for all j).  No basis change can make
  the second block -sigma_j/2 for all three j at once: the commutator
  [M_{01}, M_{02}] = -M_{12} forces the relative sign.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from .core import _UNIT, ArrayC, _frozen, _index, _require_finite, basis
from .liealgebra import QO_BASIS_PAIRS, GradedElement, QoElement, _graded_bracket, graded_bracket
from .triproduct import d_basis

# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

#: Rotation index pair dual to each boost plane, keyed by the spatial axis.
DUAL_PAIRS: dict[int, tuple[int, int]] = dict(enumerate(QO_BASIS_PAIRS[3:], 1))


@dataclass(frozen=True)
class PoincareGenerator:
    """A translation P_mu or an angular generator M_{alpha beta}.

    Angular labels are canonicalised to alpha < beta; M with swapped indices
    is stored as the canonical generator with sign -1.
    """

    kind: str  # "translation" | "angular"
    indices: tuple[int, ...]
    sign: int = 1

    @staticmethod
    def translation(mu: int) -> "PoincareGenerator":
        """P_mu; raises ValueError ``translation index must be in 0..3, got
        <mu>`` unless mu is an integer in 0..3 (see ``core._index``)."""
        _index("translation index", "in 0..3", range(4), mu)
        return PoincareGenerator("translation", (mu,))

    @staticmethod
    def angular(alpha: int, beta: int) -> "PoincareGenerator":
        """M_{alpha beta}; raises ValueError ``angular indices must be distinct
        and in 0..3, got (alpha, beta)`` unless both are distinct integers in
        0..3 (see ``core._index``)."""
        # Equal indices allow no value, so they get the same message.
        _index("angular indices", "distinct and in 0..3", range(4) if alpha != beta else (),
               alpha, beta)
        if alpha < beta:
            return PoincareGenerator("angular", (alpha, beta), 1)
        return PoincareGenerator("angular", (beta, alpha), -1)

    @property
    def label(self) -> str:
        if self.kind == "translation":
            return f"P{self.indices[0]}"
        alpha, beta = self.indices
        return ("-" if self.sign < 0 else "") + f"M{alpha}{beta}"

    def is_boost(self) -> bool:
        return self.kind == "angular" and self.indices[0] == 0


def parse_generator(label: str) -> PoincareGenerator:
    """Parse labels like "P0", "M01", "M31".

    The indices are ASCII digits; any other label raises ValueError
    ``unknown generator label <label> (expected e.g. P0 or M01)``.
    """
    label = label.strip()
    if label.isascii() and len(label) == 2 and label[0] in "Pp" and label[1].isdigit():
        return PoincareGenerator.translation(int(label[1]))
    if label.isascii() and len(label) == 3 and label[0] in "Mm" and label[1:].isdigit():
        return PoincareGenerator.angular(int(label[1]), int(label[2]))
    raise ValueError(f"unknown generator label {label!r} (expected e.g. P0 or M01)")


# ---------------------------------------------------------------------------
# Dual rotation plane, tripotent combinations
# ---------------------------------------------------------------------------

def d_perp(j: int) -> ArrayC:
    """Rotation generator dual to the boost d_basis(0, j).

    Raises ValueError ``dual index must be 1, 2 or 3, got <j>`` unless j is
    an integer 1, 2 or 3 (see ``core._index``).
    """
    _index("dual index", "1, 2 or 3", DUAL_PAIRS, j)
    return d_basis(*DUAL_PAIRS[j])


def qo_dual(q: QoElement) -> QoElement:
    """Linear dual map on the algebra: boost planes to their rotation planes.

    On the basis: (0,j) -> dual pair of j, and the dual pair of j -> -(0,j);
    applying it twice gives minus the identity.  On the operator it is a
    signed permutation of the entries: with (k, l) the dual pair of j, entry
    (k, l) of the result is entry (0, j) of q and entry (l, k) its negative,
    and entries (0, j) and (j, 0) are minus entry (k, l) of q.  Every zero
    comes out as +0.0.  Works on (..., 4, 4) stacks.
    """
    m = q.matrix
    out = np.zeros_like(m)
    for j, (k, l) in DUAL_PAIRS.items():
        out[..., k, l], out[..., l, k] = m[..., 0, j], -m[..., 0, j]
        out[..., 0, j] = out[..., j, 0] = -m[..., k, l]
    # Adding 0.0 turns the -0.0 left by negation into +0.0.
    return QoElement(out + 0.0)


def d_pm(j: int, sign: int) -> ArrayC:
    """Tripotent combination d_basis(0,j) +/- i * d_perp(j).

    Squares to the identity; distinct axes with the same sign anticommute
    (canonical anticommutation relations); opposite-sign combinations
    commute.  Raises ValueError ``sign must be +1 or -1, got <sign>`` unless
    sign is the integer +1 or -1, and d_basis's or d_perp's error for a bad
    j (see ``core._index``).
    """
    _index("sign", "+1 or -1", (1, -1), sign)
    return d_basis(0, j) + sign * 1j * d_perp(j)


# ---------------------------------------------------------------------------
# Representations
# ---------------------------------------------------------------------------

def _half_plus_images() -> dict[tuple[int, int], ArrayC]:
    """Plus-representation images of the boosts and their dual rotations."""
    images = {}
    for j, (k, l) in DUAL_PAIRS.items():
        images[(0, j)] = 0.5 * d_pm(j, +1)
        images[(k, l)] = -1j * images[(0, j)]
    return images


def _graded_images(images: dict[tuple[int, int], ArrayC]) -> dict[tuple, GradedElement]:
    """Images of the four translations and the twelve ordered angular pairs,
    from six angular images, one per plane.

    A swapped pair maps to the negated image.  Adding 0.0 turns the -0.0
    entries left by negation and conjugation into +0.0.
    """
    table = {("translation", (mu,)): GradedElement.from_vector(basis(mu)) for mu in range(4)}
    for (alpha, beta), m in images.items():
        table["angular", (alpha, beta)] = GradedElement.from_operator(QoElement(m + 0.0))
        table["angular", (beta, alpha)] = GradedElement.from_operator(QoElement(-m + 0.0))
    return table


# One immutable element per kind and label, returned by every generator map.
_PLUS = _half_plus_images()
_GRADED_IMAGES = {
    "spin1": _graded_images({pair: d_basis(*pair) for pair in QO_BASIS_PAIRS}),
    "spin_half_plus": _graded_images(_PLUS),
    "spin_half_minus": _graded_images({pair: np.conj(m) for pair, m in _PLUS.items()}),
}

#: Names of the three generator maps.
REPRESENTATION_KINDS = tuple(_GRADED_IMAGES)


def _square_sign(x: ArrayC) -> bool:
    """True when the 4x4 operator X squares to +I/4, False for -I/4; raises
    ValueError when X^2 is neither within 1e-12."""
    sq = x @ x
    # A Python complex: the sign test costs less than on numpy scalars.
    s = complex(sq[0, 0]) / 0.25
    boost = abs(s - 1.0) < 1e-12
    if not (boost or abs(s + 1.0) < 1e-12) or abs(sq - 0.25 * s * _UNIT).max() > 1e-12:
        raise ValueError("operator does not square to +/- I/4")
    return boost


# id(matrix) -> (sign of its square, read-only rows (I, X) of shape (2, 16))
# for the 24 spin-1/2 angular images X, the sign checked once here.
# _GRADED_IMAGES holds each of these arrays for the life of the process, so
# no other live object can have its id; the images are immutable, so the
# entry never goes stale.
_HALF_ROWS = {id(x): (_square_sign(x), _frozen([_UNIT.ravel(), x.ravel()]))
              for kind in ("spin_half_plus", "spin_half_minus")
              for (label, _), image in _GRADED_IMAGES[kind].items() if label == "angular"
              for x in [image.l0.matrix]}


def _image(kind: str, label: str, indices: tuple[int, ...]) -> GradedElement:
    """The image of the generator ``label`` ("translation" or "angular") with
    the ordered ``indices``.

    Raises ValueError ``no <kind> image for <label> indices <indices>`` for
    an unknown kind, or unless the indices are integers (see
    ``core._index``) that label an image.
    """
    try:
        # A key has one or two indices, so the first and the last are all of
        # them, and plain ints skip the call: the table holds no other type,
        # but a bool or a float equal to a key would find its image.
        if type(indices[0]) is not int or type(indices[-1]) is not int:
            _index("indices", "in 0..3", range(4), *indices)
        return _GRADED_IMAGES[kind][label, indices]
    except (IndexError, KeyError, ValueError):
        raise ValueError(f"no {kind} image for {label} indices {indices}") from None


def pi_spin1(g: PoincareGenerator) -> GradedElement:
    """Spin-1 image: P_mu -> u_mu in grade 1, M_{alpha beta} -> D_{alpha beta}."""
    return _image("spin1", g.kind, g.indices[::g.sign])


def pi_half(g: PoincareGenerator, sign: int) -> GradedElement:
    """Spin-1/2 image for the plus (+1) or minus (-1) representation.

    Boosts: M_{0j} -> (d_basis(0,j) + sign * i * d_perp(j)) / 2.
    Rotations: M_{kl} -> -sign * i times the boost image of the dual axis
    ((k,l,j) cyclic in (1,2,3)), so e.g. the plus image of M_{23} equals
    (d_basis(2,3) - i d_basis(0,1)) / 2.
    Translations: u_mu, as in the spin-1 map.

    The minus-representation operators are the entrywise conjugates of the
    plus ones.  Raises ValueError ``sign must be +1 or -1, got <sign>``
    unless sign is the integer +1 or -1 (see ``core._index``).
    """
    _index("sign", "+1 or -1", (1, -1), sign)
    return _image("spin_half_plus" if sign > 0 else "spin_half_minus", g.kind, g.indices[::g.sign])


def half_graded_bracket(x: GradedElement, y: GradedElement) -> GradedElement:
    """Graded bracket with the spin-1/2 rule between grades 0 and 1.

    [A, v] = (A + conj(A)) v, so the complex-dependent rotation images act on
    translations exactly like their spin-1 counterparts.  Grade-0 and
    grade-1-pair brackets are unchanged.  Works on stacked elements like
    :func:`relphase.liealgebra.graded_bracket`.
    """
    return _graded_bracket(x, y, x.l0.matrix + np.conj(x.l0.matrix),
                           y.l0.matrix + np.conj(y.l0.matrix))


@dataclass(frozen=True)
class Representation:
    """One of the three generator maps, with its matching graded bracket."""

    kind: str  # one of REPRESENTATION_KINDS

    def __post_init__(self) -> None:
        if self.kind not in REPRESENTATION_KINDS:
            raise ValueError(f"unknown representation {self.kind!r}")

    def __call__(self, g: PoincareGenerator) -> GradedElement:
        return _image(self.kind, g.kind, g.indices[::g.sign])

    def angular_matrix(self, alpha: int, beta: int) -> ArrayC:
        """Operator part of the image of M_{alpha beta}, a read-only array."""
        return _image(self.kind, "angular", (alpha, beta)).l0.matrix

    def bracket(self, x: GradedElement, y: GradedElement) -> GradedElement:
        if self.kind == "spin1":
            return graded_bracket(x, y)
        return half_graded_bracket(x, y)


# ---------------------------------------------------------------------------
# Exponential flows
# ---------------------------------------------------------------------------

# Serialises the first load of ``expm``; never taken once it is bound.
_EXPM_LOCK = threading.Lock()


def __getattr__(name: str):
    """Bind scipy's ``expm`` as the module attribute ``expm`` on first use.

    Only the oracle :func:`exponential_flow` needs scipy, and importing it
    costs more than the rest of relphase together, so it is not loaded when
    this module is.  scipy's OpenBLAS reads ``OPENBLAS_NUM_THREADS`` when it
    loads, so the variable is 1 during the import and restored after it: a
    second thread only contends for the CPU on 4x4 products.  One lock holds
    the save, import and restore, so threads that race to the first call
    load scipy once and leave the variable as it was.
    """
    if name != "expm":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    with _EXPM_LOCK:
        # Another thread may have bound it while this one waited.
        if "expm" in globals():
            return globals()["expm"]
        saved = os.environ.get("OPENBLAS_NUM_THREADS")
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            from scipy.linalg import expm
        finally:
            del os.environ["OPENBLAS_NUM_THREADS"]
            if saved is not None:
                os.environ["OPENBLAS_NUM_THREADS"] = saved
        globals()["expm"] = expm
    return expm


def exponential_flow(x: ArrayLike, phi: ArrayLike) -> ArrayC:
    """Matrix exponential exp(phi * X) via scaling-and-squaring.

    ``x`` may be a stack (..., 4, 4) and ``phi`` an array that broadcasts
    against it entry by entry (a rapidity per operator is ``phis[..., None,
    None]``); scipy's ``expm`` exponentiates each operator of the stack.
    The first call imports scipy.  Raises ValueError naming the rapidity of
    the first operator (C order) whose exponential is not finite.
    """
    # The module attribute, read at each call, so that a rebinding is seen.
    expm = globals().get("expm") or __getattr__("expm")
    return _require_finite(expm(phi * np.asarray(x, dtype=np.complex128)), phi, "phi", "flow",
                           "phi")


# Read-only rows (I, D, D^2) of shape (3, 16) for all sixteen index pairs.  A
# pair with alpha == beta has D = 0 and gives the identity flow.
_SPIN1_ROWS = {(alpha, beta): _frozen([_UNIT.ravel(), d.ravel(), (d @ d).ravel()])
               for alpha in range(4) for beta in range(4) for d in [d_basis(alpha, beta)]}


def boost_flow_closed(j: int, phi: float) -> ArrayC:
    """Closed form of exp(phi * d_basis(0,j)); the same as
    ``rotation_flow_closed(0, j, phi)``.

    Carries -sinh entries relative to the textbook boost display; see the
    module docstring.  Returns a new writable array.  Raises ValueError
    ``basis indices must be in 0..3, got (0, j)`` unless j is an integer in
    0..3 (see ``core._index``), and when cosh(phi) or sinh(phi) is not finite; an
    overflow emits numpy's RuntimeWarnings first.  j = 0 gives the identity
    for every finite phi.
    """
    return rotation_flow_closed(0, j, phi)


def rotation_flow_closed(k: int, l: int, phi: float) -> ArrayC:
    """Closed form of exp(phi * d_basis(k,l)) for any ordered label:
    I + odd D + even D^2 with D = d_basis(k, l).

    The label fixes the coefficients.  On a boost plane (exactly one index
    0) D^3 = D, so odd = sinh(phi) and even = cosh(phi) - 1, and (j, 0)
    gives the boost along axis j at -phi.  On a rotation plane D^3 = -D, so
    odd = sin(phi) and even = 1 - cos(phi); k = l gives D = 0 and the
    identity.  The flow is one ``np.dot`` of the row (1, odd, even) against
    the label's rows (I, D, D^2), built at import, so a call makes no
    generator.  D has entries 0 and +/-1 and D^2 entries 0 and 1, so every
    entry is a sum of exact products with at most two nonzero terms: its
    bits are the elementwise formula's whatever BLAS kernel runs, every zero
    +0.0 included.  Returns a new writable array.

    Raises ValueError ``basis indices must be in 0..3, got (k, l)`` unless k
    and l are integers in 0..3 (d_basis's message; see ``core._index``),
    when phi is NaN or infinite, or when the flow overflows (|phi| beyond
    about 710.48 on a boost plane).  The result is finite exactly when both
    coefficients are, so only they are checked; when one is not, the
    elementwise formula runs instead, and its numpy RuntimeWarnings come
    before the error.
    """
    # _SPIN1_ROWS holds every pair in 0..3, so plain ints that key it skip the call.
    if type(k) is not int or type(l) is not int or (k, l) not in _SPIN1_ROWS:
        _index("basis indices", "in 0..3", range(4), k, l)
    rows = _SPIN1_ROWS[k, l]
    if (k == 0) != (l == 0):
        odd, even = np.sinh(phi), np.cosh(phi) - 1.0
    else:
        odd, even = np.sin(phi), 1.0 - np.cos(phi)
    if math.isfinite(odd) and math.isfinite(even):
        return np.dot((1.0, odd, even), rows).reshape(4, 4)
    _, d, d2 = rows.reshape(3, 4, 4)
    return _require_finite(_UNIT + odd * d + even * d2, phi, "phi", "flow", "phi")


def half_flow_closed(x: ArrayLike, phi: float) -> ArrayC:
    """Closed form of exp(phi X) for spin-1/2 generator images.

    Uses X^2 = s I/4 with s = +1 (boosts) or s = -1 (rotations):
        exp(phi X) = cosh(phi/2) I + 2 sinh(phi/2) X      (s = +1)
        exp(phi X) = cos(phi/2) I + 2 sin(phi/2) X        (s = -1)
    Returns a new writable array.  Raises ValueError when X is not 4x4 or
    X^2 is not +/- I/4 within 1e-12, and when the result is not finite (an
    overflow emits numpy's RuntimeWarnings first).

    The 24 spin-1/2 angular images of the library's tables are checked once,
    at import: a call on one of those arrays (``angular_matrix``, ``rep(g)``)
    finds it by its ``id``, which no other live object can share while the
    table holds the array, reads the stored sign of X^2 and checks only the
    two coefficients, since the entries 0, +/-1/2 and +/-i/2 on a zero
    diagonal give a finite result exactly when both are finite.  The flow is
    then one ``np.dot`` of the row (even, odd) against the image's rows (I,
    X), also built at import; each entry has at most one nonzero term, so
    its bits are the elementwise formula's whatever BLAS kernel runs.  On a
    rotation with cos(phi/2) < 0 and sin(phi/2) < 0 the formula leaves -0.0
    real parts, which no dot product gives, so the formula runs there.  Any
    other operator, a copy of an image included, takes the formula and is
    checked on every call, and so is every entry of its result: X may have
    large entries, so finite coefficients do not make a finite result.
    """
    x = np.asarray(x, dtype=np.complex128)
    boost, rows = _HALF_ROWS.get(id(x), (None, None))
    if rows is None:
        if x.shape != (4, 4):
            raise ValueError(f"operator must be 4x4, got shape {x.shape}")
        boost = _square_sign(x)
    even, odd = ((np.cosh(phi / 2), 2 * np.sinh(phi / 2)) if boost
                 else (np.cos(phi / 2), 2 * np.sin(phi / 2)))
    checked = rows is not None and math.isfinite(even) and math.isfinite(odd)
    if checked and (even > 0.0 or odd > 0.0):
        return np.dot((even, odd), rows).reshape(4, 4)
    g = even * _UNIT + odd * x
    return g if checked else _require_finite(g, phi, "phi", "flow", "phi")


# ---------------------------------------------------------------------------
# Null tetrad and Pauli block structure
# ---------------------------------------------------------------------------

PAULI: tuple[ArrayC, ArrayC, ArrayC] = (
    _frozen([[0, 1], [1, 0]]),
    _frozen([[0, -1j], [1j, 0]]),
    _frozen([[1, 0], [0, -1]]),
)


@dataclass(frozen=True)
class NPBasis:
    """Null tetrad basis (l, m, n, mbar) built from the standard basis.

    l = (u0 + u3)/sqrt(2), m = (u1 + i u2)/sqrt(2),
    n = (u0 - u3)/sqrt(2), mbar = (u1 - i u2)/sqrt(2).

    ``matrix`` holds the tetrad vectors as columns (null-tetrad coordinates
    to standard coordinates); ``inverse`` converts the other way.  The tetrad
    is unitary, so the inverse is exact and the round trip is lossless.
    """

    matrix: ArrayC
    inverse: ArrayC
    labels: tuple[str, str, str, str]

    def to_np_coords(self, v: ArrayLike) -> ArrayC:
        return self.inverse @ np.asarray(v, dtype=np.complex128)

    def from_np_coords(self, v: ArrayLike) -> ArrayC:
        return self.matrix @ np.asarray(v, dtype=np.complex128)


def np_matrix() -> NPBasis:
    """The null tetrad in the order (l, m, n, mbar)."""
    s = np.array(
        [[1, 0, 1, 0],
         [0, 1, 0, 1],
         [0, 1j, 0, -1j],
         [1, 0, -1, 0]],
        dtype=np.complex128,
    ) / np.sqrt(2.0)
    return NPBasis(s, np.conj(s.T), ("l", "m", "n", "mbar"))


def np_matrix_conjugate() -> NPBasis:
    """Tetrad with m and mbar swapped: (l, mbar, n, m).

    The minus representation is block diagonal with respect to this ordering,
    and its blocks are the entrywise conjugates of the plus-representation
    blocks in the standard ordering.
    """
    base = np_matrix()
    perm = np.eye(4, dtype=np.complex128)[:, [0, 3, 2, 1]]
    s = base.matrix @ perm
    return NPBasis(s, np.conj(s.T), ("l", "mbar", "n", "m"))


def to_np_basis(a: ArrayLike, tetrad: NPBasis | None = None) -> ArrayC:
    """Similarity transform of an operator into null-tetrad coordinates."""
    if tetrad is None:
        tetrad = np_matrix()
    a = np.asarray(a, dtype=np.complex128)
    return tetrad.inverse @ a @ tetrad.matrix


def np_block_pattern(j: int, boost: bool, rep_kind: str = "spin_half_plus") -> tuple[ArrayC, ArrayC]:
    """Reference diagonal blocks of the spin-1/2 angular images in the tetrad.

    For the plus representation in the (l, m, n, mbar) ordering:
        boosts    M_{0j}:  (-conj(sigma_j)/2,  -sigma_1 conj(sigma_j) sigma_1 / 2)
        rotations J_j:     ( i conj(sigma_j)/2, i sigma_1 conj(sigma_j) sigma_1 / 2)
    The second block equals -sigma_j/2 (resp. i sigma_j/2) for j in {1, 2}
    and carries the opposite sign for j = 3.  The minus-representation blocks
    (taken in the conjugated tetrad ordering) are the entrywise conjugates.
    Raises ValueError ``axis must be 1, 2 or 3, got <j>`` unless j is an
    integer 1, 2 or 3 (see ``core._index``).
    """
    _index("axis", "1, 2 or 3", DUAL_PAIRS, j)
    sig = PAULI[j - 1]
    first = -0.5 * np.conj(sig)
    second = -0.5 * (PAULI[0] @ np.conj(sig) @ PAULI[0])
    if not boost:
        first = -1j * first
        second = -1j * second
    if rep_kind == "spin_half_minus":
        first, second = np.conj(first), np.conj(second)
    elif rep_kind != "spin_half_plus":
        raise ValueError(f"no block pattern for representation {rep_kind!r}")
    return first, second


def np_blocks(a: ArrayLike) -> tuple[ArrayC, ArrayC, float]:
    """Split a 4x4 matrix into its two diagonal 2x2 blocks.

    Returns (first block, second block, largest off-block entry).
    """
    a = np.asarray(a, dtype=np.complex128)
    off = max(float(np.abs(a[:2, 2:]).max()), float(np.abs(a[2:, :2]).max()))
    return a[:2, :2].copy(), a[2:, 2:].copy(), off


def np_block_residuals(rep_kind: str) -> tuple[NPBasis, list[tuple]]:
    """Pauli-block residuals of the six spin-1/2 angular images in the tetrad
    their representation is block diagonal in.

    Returns ``(tetrad, entries)``.  The tetrad is :func:`np_matrix` for the
    plus representation and :func:`np_matrix_conjugate` for the minus one;
    any other kind raises ValueError.  One entry (pair, j, boost, matrix,
    (off, first, second)) per generator M_pair: the boosts (0, j) for j = 1,
    2, 3, then their dual rotations ``DUAL_PAIRS[j]``.  ``matrix`` is the
    image in the tetrad coordinates; ``off`` is its largest off-block entry,
    and ``first`` and ``second`` are the largest deviations of its diagonal
    blocks from :func:`np_block_pattern`.
    """
    # np_block_pattern raises the ValueError for any other kind.
    tetrad = np_matrix() if rep_kind == "spin_half_plus" else np_matrix_conjugate()
    entries = []
    for boost in (True, False):
        for j in (1, 2, 3):
            pair = (0, j) if boost else DUAL_PAIRS[j]
            matrix = to_np_basis(_image(rep_kind, "angular", pair).l0.matrix, tetrad)
            b1, b2, off = np_blocks(matrix)
            e1, e2 = np_block_pattern(j, boost, rep_kind)
            entries.append((pair, j, boost, matrix,
                            (off, float(np.abs(b1 - e1).max()), float(np.abs(b2 - e2).max()))))
    return tetrad, entries
