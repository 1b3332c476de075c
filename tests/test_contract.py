"""The contract of every public callable, as one table.

Each row calls one name of ``relphase.__all__`` and checks:

* types: a single input gives the documented type (``complex``, ``float``,
  a ``(4, 4)`` array, a ``FieldInvariant`` of ``complex``, ...);
* stacks: a stacked, broadcast or multi-axis call equals the stack of the
  single calls bit for bit, the sign of every zero included;
* read-only or fresh: constants, images, tables and element arrays are
  read-only, neither they nor their ``.base`` can be made writable again,
  and they share no memory with the inputs; the closed flows return fresh
  writable arrays;
* threads: the single-input call made from four threads at once gives the
  bits of the same call made from one.

One ``hypothesis`` property checks the overflow rule of every
parameter-driven callable, and one test that each names a NaN or infinite
parameter as an input error.  A last table gives each input check its
exact message.  A new public callable needs a row here, or an entry with
its reason in ``EXEMPT``.
"""

import ast
import dataclasses
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import relphase
from relphase import *  # noqa: F403  (the table covers every public name)
from relphase.em import _sinhc, shell_drift
from relphase.representations import _HALF_ROWS, _SPIN1_ROWS, np_block_residuals
from relphase.verify import flow_invariance_residual

EXEMPT = {
    "ArrayC": "a type alias", "ArrayR": "a type alias", "__version__": "a string",
    "QO_BASIS_PAIRS": "a tuple of index pairs", "DUAL_PAIRS": "a dict of index pairs",
}


def contract_fields():
    """2 000 random fields with null, pure-E, pure-B and zero fields mixed in.

    The null fields are exact (a unit E with a perpendicular unit B) or
    built from orthonormal pairs, so |w tau| < 1e-4 and the Taylor branch of
    the kernel runs in the same stack as the sinh branch.  Pure-E fields
    carry B = -0.0, and about one momentum entry in six is -0.0, to
    exercise signed zeros.
    """
    rng = np.random.default_rng(43)
    e, b = rng.uniform(-1, 1, (2, 2000, 3))
    e1 = rng.standard_normal((60, 3))
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    v = rng.standard_normal((60, 3))
    e2 = v - np.sum(v * e1, axis=1, keepdims=True) * e1
    e2 /= np.linalg.norm(e2, axis=1, keepdims=True)
    amp = rng.uniform(0.2, 1.0, (60, 1))
    unit = np.eye(3)
    special_e = np.concatenate([amp * e1, 0.7 * unit, -unit, 0 * unit, unit, np.zeros((1, 3))])
    special_b = np.concatenate([amp * e2, 0 * unit, -0.0 * unit, -0.9 * unit, np.roll(unit, 1, 0),
                                np.zeros((1, 3))])
    order = rng.permutation(2000 + len(special_e))
    p0s = rng.uniform(-1, 1, (2000 + len(special_e), 4))
    p0s[rng.random(p0s.shape) < 1 / 6] = -0.0
    return (EMField(np.concatenate([e, special_e])[order], np.concatenate([b, special_b])[order]),
            p0s)


def assert_same_bits(got, want):
    """Equal entries, the sign of every zero included."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    if got.dtype.kind == "c":
        got, want = np.stack([got.real, got.imag]), np.stack([want.real, want.imag])
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


TAUS = np.array([0.0, 0.7, 3.0, -1.3])
FIELDS, P0S = contract_fields()
REPS = [Representation(kind) for kind in ("spin1", "spin_half_plus", "spin_half_minus")]
PLUS = REPS[1]
ORDERED_PAIRS = [(a, b) for a in range(4) for b in range(4) if a != b]
GENERATORS = ([PoincareGenerator.translation(mu) for mu in range(4)]
              + [PoincareGenerator.angular(*pair) for pair in ORDERED_PAIRS])
IMAGES = [rep.angular_matrix(*pair) for rep in REPS for pair in ORDERED_PAIRS]
BOOSTS = np.stack([PLUS.angular_matrix(0, j) for j in (1, 2, 3)])


def test_stack_has_the_taylor_branch():
    x = np.abs(invariant_z(FIELDS).w[:, None] * TAUS[1:])
    assert np.count_nonzero(x < 1e-4) >= 60 * 3 and np.count_nonzero(x >= 1e-4) > 2000


def normal(rng, shape):
    """Complex entries with standard normal real and imaginary parts."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def elements(rng, shape, images=False):
    """Graded elements of stack ``shape`` with random vectors and scalars.

    The grade-0 parts are random complex algebra elements, or with
    ``images`` complex combinations of the plus boost images.
    """
    if images:
        op = qo_from_operator((normal(rng, shape + (3, 1, 1)) * BOOSTS).sum(axis=-3))
    else:
        x = normal(rng, shape + (4, 4))
        op = qo_realize(x - x.mT)
    return GradedElement(op, normal(rng, shape + (4,)), normal(rng, shape))


RNG = np.random.default_rng(12)
V = normal(RNG, (3, 50, 4))
OPS = normal(RNG, (2, 50, 4, 4))
QO = qo_realize(OPS[0] - OPS[0].mT)
X, Y, XI, YI = (elements(RNG, (300,), images=k > 1) for k in range(4))
# Each grade is the largest somewhere, so the norm takes each of them.
SCALED = GradedElement(QoElement(X.l0.matrix * RNG.uniform(0, 3, (300, 1, 1))),
                       X.l1 * RNG.uniform(0, 3, (300, 1)), X.l2 * RNG.uniform(0, 3, 300))
FARADAY = (exponential_flow(BOOSTS[1], 0.8) @ faraday_tensor(FIELDS)
           @ exponential_flow(BOOSTS[1], -0.8))

GE = ("GradedElement", ("QoElement", (4, 4)), (4,), complex)
QE = ("QoElement", (4, 4))
NPB = ("NPBasis", (4, 4), (4, 4), (str,) * 4)
PG = ("PoincareGenerator", str, (int, int), int)


class Row:
    """``call(*args)``; ``core`` counts the trailing axes of one entry of each
    array argument (one int for all), the rest are stack axes.  Without
    ``core`` the array arguments are single entries."""

    def __init__(self, call, *args, single, core=None, mode=None, name=None, tag=""):
        self.call, self.args, self.single, self.mode = call, args, single, mode
        self.core = core if isinstance(core, tuple) else (core,) * len(args)
        self.name = name or call.__name__
        self.id = f"{self.name}-{tag}" if tag else self.name


def axes(arg, core=0):
    """The stack axes of an argument."""
    if isinstance(arg, EMField):
        return arg.e.shape[:-1]
    if isinstance(arg, QoElement):
        return arg.matrix.shape[:-2]
    if isinstance(arg, GradedElement):
        return np.broadcast_shapes(axes(arg.l0), axes(arg.l1, 1), np.shape(arg.l2))
    return () if core is None else np.shape(arg)[:max(np.ndim(arg) - core, 0)]


def take(arg, batch, core=None):
    """The entries of an argument at each index of the stack axes ``batch``,
    in C order; its axes of length 1 broadcast."""
    shape = axes(arg, core)
    if isinstance(arg, EMField):
        own = [EMField(e, b) for e, b in zip(arg.e.reshape(-1, 3), arg.b.reshape(-1, 3))]
    elif isinstance(arg, QoElement):
        own = [QoElement(m) for m in arg.matrix.reshape(-1, 4, 4)]
    elif isinstance(arg, GradedElement):
        own = [GradedElement(*x) for x in zip(take(arg.l0, shape), take(arg.l1, shape, 1),
                                              take(arg.l2, shape, 0))]
    elif not shape:
        own = [arg]
    else:
        own = list(np.reshape(arg, (-1,) + np.shape(arg)[len(shape):]))
    return [own[k] for k in np.broadcast_to(np.arange(len(own)).reshape(shape), batch).ravel()]


def parts(x):
    """The values a result holds, flattened: arrays, scalars and strings."""
    if dataclasses.is_dataclass(x):
        return parts(tuple(getattr(x, f.name) for f in dataclasses.fields(x)))
    if isinstance(x, tuple):
        return [p for v in x for p in parts(v)]
    return [x]


def kind(x):
    """Shape of an array, class and field kinds of a dataclass, else the type."""
    if isinstance(x, np.ndarray):
        return x.shape
    if isinstance(x, tuple):
        return tuple(kind(v) for v in x)
    if dataclasses.is_dataclass(x):
        return (type(x).__name__, *(kind(getattr(x, f.name)) for f in dataclasses.fields(x)))
    return type(x)


ROWS = [
    Row(scalar_product, V[0], V[1], core=1, single=complex),
    Row(scalar_product, V[0], V[1][0], core=1, single=complex, tag="broadcast"),
    Row(scalar_product, *V[:2].reshape(2, 5, 10, 4), core=1, single=complex, tag="axes"),
    Row(scalar_square, V[0], core=1, single=complex),
    Row(lorentz_product, V[0], V[1], core=1, single=float),
    Row(symplectic_bracket, V[0], V[1], core=1, single=float),
    Row(symplectic_bracket, V[1][0], V[0], core=1, single=float, tag="broadcast"),
    Row(conjugate, V[0], core=1, single=(4,)),
    Row(decompose, V[0], core=1, single=((4,), (4,))),
    Row(basis, 2, single=(4,), mode="fresh"),
    Row(phase_vector, V[0][0], single=(4,)),
    Row(phase_operator, OPS[0][0], single=(4, 4)),
    Row(lambda: ETA, single=(4, 4), mode="ro", name="ETA"),
    Row(tri_product, *V, core=1, single=(4,)),
    Row(tri_product, V[0], V[1][0], V[2][0], core=1, single=(4,), tag="broadcast"),
    Row(tri_product_coords, *V, core=1, single=(4,)),
    Row(d_operator, V[0], V[1], core=1, single=(4, 4)),
    Row(d_operator, V[0][0], V[1], core=1, single=(4, 4), tag="broadcast"),
    Row(lambda a, b, c: np.matvec(d_operator(a, b), c), *V, core=1, single=(4,),
        name="d_operator", tag="matvec"),
    Row(d_hat, V[0], V[1], core=1, single=(4, 4)),
    Row(d_basis, 0, 1, single=(4, 4), mode="fresh"),
    Row(QoElement, OPS[0], core=2, single=QE, mode="ro"),
    Row(lambda q: q.coeffs, QO, single=(4, 4), mode="ro", name="QoElement", tag="coeffs"),
    Row(GradedElement, QO, V[0], V[0][:, 0], core=(0, 1, 0), single=GE, mode="ro"),
    Row(lambda x, y: (x + y, x - y, -x), X, Y, single=(GE,) * 3, mode="ro", name="GradedElement",
        tag="arithmetic"),
    Row(lambda x: x.norm(), SCALED, single=float, name="GradedElement", tag="norm"),
    Row(lambda: (GradedElement.zero(), GradedElement.from_scalar(2.0)), single=(GE, GE), mode="ro",
        name="GradedElement", tag="constructors"),
    Row(commutator, *OPS, core=2, single=(4, 4)),
    Row(graded_bracket, X, Y, single=GE, mode="ro"),
    Row(graded_bracket, XI, YI, single=GE, mode="ro", tag="images"),
    Row(graded_bracket, elements(RNG, (5, 1)), elements(RNG, (4,)), single=GE, mode="ro",
        tag="broadcast"),
    Row(half_graded_bracket, X, Y, single=GE, mode="ro"),
    Row(half_graded_bracket, XI, YI, single=GE, mode="ro", tag="images"),
    Row(is_in_qo, d_basis(0, 1), single=bool),
    Row(is_quasi_orthogonal, np.eye(4), single=bool),
    Row(lambda: tuple(qo_basis().values()), single=((4, 4),) * 6, name="qo_basis"),
    Row(qo_from_operator, QO.matrix, core=2, single=QE, mode="ro"),
    Row(qo_realize, OPS[0] - OPS[0].mT, core=2, single=QE, mode="ro"),
    Row(qo_dual, QO, single=QE, mode="ro"),
    Row(parse_generator, "M31", single=PG),
    Row(lambda: tuple(rep.angular_matrix(*pair) for rep in REPS for pair in ORDERED_PAIRS),
        single=((4, 4),) * 36, mode="ro", name="Representation", tag="angular_matrix"),
    Row(lambda: tuple(rep(g) for rep in REPS for g in GENERATORS), single=(GE,) * 48, mode="ro",
        name="Representation", tag="images"),
    Row(lambda: tuple(pi_spin1(g) for g in GENERATORS), single=(GE,) * 16, mode="ro",
        name="pi_spin1"),
    Row(lambda: tuple(pi_half(g, s) for g in GENERATORS for s in (1, -1)), single=(GE,) * 32,
        mode="ro", name="pi_half"),
    Row(d_perp, 1, single=(4, 4)),
    Row(d_pm, 2, -1, single=(4, 4)),
    Row(exponential_flow, np.stack(IMAGES)[:, None], TAUS[:, None, None], core=2,
        single=(4, 4)),
    Row(boost_flow_closed, 1, 0.3, single=(4, 4), mode="fresh"),
    Row(boost_flow_closed, 0, 0.0, single=(4, 4), mode="fresh", tag="identity"),
    Row(rotation_flow_closed, 2, 3, 0.3, single=(4, 4), mode="fresh"),
    Row(half_flow_closed, PLUS.angular_matrix(0, 2), 0.3, single=(4, 4), mode="fresh"),
    # the rows each closed flow contracts its coefficients against
    Row(lambda: tuple(_SPIN1_ROWS.values()), single=((3, 16),) * 16, mode="ro",
        name="rotation_flow_closed", tag="table"),
    Row(lambda: tuple(rows for _, rows in _HALF_ROWS.values()), single=((2, 16),) * 24,
        mode="ro", name="half_flow_closed", tag="table"),
    Row(lambda: PAULI, single=((2, 2),) * 3, mode="ro", name="PAULI"),
    Row(np_block_pattern, 3, True, single=((2, 2), (2, 2))),
    Row(np_blocks, OPS[0][0], single=((2, 2), (2, 2), float)),
    Row(np_matrix, single=NPB),
    Row(np_matrix_conjugate, single=NPB),
    Row(to_np_basis, OPS[0][0], single=(4, 4)),
    Row(EMField, FIELDS.e, FIELDS.b, core=1, single=("EMField", (3,), (3,)), mode="ro"),
    Row(lambda f: f.faraday_vector, FIELDS, single=(3,), name="EMField", tag="faraday_vector"),
    Row(field_tensor, FIELDS, single=QE, mode="ro"),
    Row(faraday_tensor, FIELDS, single=(4, 4)),
    Row(faraday_conjugate, FIELDS, single=(4, 4)),
    Row(evolution_generator, FIELDS, single=(4, 4)),
    Row(faraday_components, FARADAY, core=2, single=(3,)),
    Row(lorentz_force, OPS[0][0], V[0][0], single=(4,)),
    Row(invariant_z, FIELDS, single=("FieldInvariant", complex, complex)),
    Row(_sinhc, invariant_z(FIELDS).w[:, None] * TAUS, core=0, single=np.complex128),
    Row(_sinhc, 1e-6, single=np.complex128, tag="taylor"),
    Row(exp_faraday, FIELDS[:, None], TAUS, core=0, single=(4, 4)),
    Row(exp_faraday_conjugate, FIELDS[:200, None], TAUS, core=0, single=(4, 4)),
    Row(evolve_closed_form, FIELDS, P0S, 2.5, core=(0, 1, 0), single=(4,)),
    # a real momentum of complex dtype takes the checked complex path
    Row(evolve_closed_form, FIELDS[:, None], P0S[:, None].astype(np.complex128), TAUS,
        core=(0, 1, 0), single=(4,), tag="grid"),
    Row(evolve_numeric, FIELDS[:200, None], P0S[:200, None], TAUS, 9, core=(0, 1, 0, 0),
        single=(4,), mode="fresh"),
    Row(mass_shell_residual, FIELDS[0], P0S[0], 1.0, core=(0, 1, 0), single=float),
]


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_contract(row):
    batch = np.broadcast_shapes(*map(axes, row.args, row.core))
    columns = [take(a, batch, c) for a, c in zip(row.args, row.core)]
    results = [row.call(*args) for args in zip(*columns)] if columns else [row.call()]
    assert kind(results[0]) == row.single
    singles = [parts(r) for r in results]
    got = parts(row.call(*row.args))
    if batch:
        for k, part in enumerate(got):
            assert_same_bits(part, np.reshape([s[k] for s in singles],
                                              batch + np.shape(singles[0][k])))
    arrays = [p for p in got + singles[0] if isinstance(p, np.ndarray)]
    if row.mode == "fresh":
        again = [a.copy() for a in parts(row.call(*row.args))]
        for a in arrays:
            a[...] = 7.0
        for a, b in zip(parts(row.call(*row.args)), again):
            assert_same_bits(a, b)
    for a in arrays if row.mode == "ro" else ():
        assert not any(np.shares_memory(a, arg) for arg in row.args if isinstance(arg, np.ndarray))
        for x in (a, a.base):
            with pytest.raises(ValueError):
                x.setflags(write=True)


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_contract_from_four_threads(row):
    batch = np.broadcast_shapes(*map(axes, row.args, row.core))
    args = [take(a, batch, c)[0] for a, c in zip(row.args, row.core)]
    want = parts(row.call(*args))
    barrier = threading.Barrier(4)

    def call():
        barrier.wait(timeout=30)
        return parts(row.call(*args))

    with ThreadPoolExecutor(max_workers=4) as pool:
        outs = [future.result() for future in [pool.submit(call) for _ in range(4)]]
    for got in outs:
        assert len(got) == len(want)
        for g, w in zip(got, want):
            if isinstance(w, (str, bool, np.bool_)):
                assert g == w
            else:
                assert_same_bits(g, w)


EMPTY_X = GradedElement(QoElement(X.l0.matrix[:0]), X.l1[:0], X.l2[:0])
EMPTY = [
    (scalar_product, V[0][:0], V[1][:0]),
    (tri_product, *V[:, :0]),
    (graded_bracket, EMPTY_X, EMPTY_X),
    (half_graded_bracket, EMPTY_X, EMPTY_X),
    (qo_from_operator, QO.matrix[:0]),
    (qo_realize, OPS[0][:0]),
    (exponential_flow, np.stack(IMAGES)[:0], 0.5),
    (faraday_components, FARADAY[:0]),
    (exp_faraday, FIELDS[:0], 0.5),
    (evolve_closed_form, FIELDS[:0], P0S[:0], 0.5),
    (evolve_numeric, FIELDS[:0], P0S[:0], 0.5, 9),
]


@pytest.mark.parametrize("call, args", [(c[0], c[1:]) for c in EMPTY],
                         ids=[c[0].__name__ for c in EMPTY])
def test_empty_stack_gives_an_empty_result(call, args):
    # a zero-length stack axis is a stack like any other, not an error
    for part in parts(call(*args)):
        assert isinstance(part, np.ndarray) and part.shape[0] == 0


def test_every_public_name_has_a_row_or_an_exemption():
    # A class is covered by the rows that return it.
    covered = {row.name for row in ROWS} | {row.single[0] for row in ROWS
                                            if isinstance(row.single, tuple)}
    assert set(relphase.__all__) - set(EXEMPT) <= covered
    assert set(EXEMPT) <= set(relphase.__all__)


def em(call, stackable=True):
    """An em callable on (E, B, p0) subjects: one call, and one on the field
    stack against all taus."""
    def stack(subjects, taus):
        e, b, p0 = map(np.array, zip(*subjects))
        return call(EMField(e, b)[:, None], p0[:, None], np.array(taus))
    return "field", lambda s, tau: call(EMField(s[0], s[1]), s[2], tau), stackable and stack


big = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)
SUBJECTS = {
    "field": st.tuples(*[st.tuples(big, big, big)] * 2, st.tuples(*[st.floats(-1e3, 1e3)] * 4)),
    "image": st.sampled_from(IMAGES),
    "half": st.sampled_from(IMAGES[12:]),
    "boost": st.integers(0, 3),
    "pair": st.sampled_from([(a, b) for a in range(4) for b in range(4)]),
}
# name: (subject source, one call, the call on the subject stack against all
# parameters or None)
OVERFLOW = {
    "exponential_flow": ("image", exponential_flow, lambda xs, phis: exponential_flow(
        np.stack(xs)[:, None], np.array(phis)[:, None, None])),
    "boost_flow_closed": ("boost", boost_flow_closed, None),
    "rotation_flow_closed": ("pair", lambda kl, phi: rotation_flow_closed(*kl, phi), None),
    "half_flow_closed": ("half", half_flow_closed, None),
    "exp_faraday": em(lambda f, p0, tau: exp_faraday(f, tau)),
    "exp_faraday_conjugate": em(lambda f, p0, tau: exp_faraday_conjugate(f, tau)),
    "evolve_closed_form": em(evolve_closed_form),
    "evolve_numeric": em(lambda f, p0, tau: evolve_numeric(f, p0, tau, 9)),
    "mass_shell_residual": em(mass_shell_residual, stackable=False),
}


def outcome(call, *args):
    """The result of a call, or the message of the ValueError it raised."""
    try:
        return call(*args)
    except ValueError as exc:
        return str(exc)


@given(subjects=st.fixed_dictionaries({source: st.tuples(s, s) for source, s in SUBJECTS.items()}),
       params=st.lists(big, min_size=1, max_size=2))
@example(subjects={"field": [([0.1, 0, 0], [0, 0, 0], [1, 0, 0, 0]),
                             ([1, 0, 0], [0, 0, 0], [1, 0, 0, 0])],
                   "image": [d_basis(1, 2), d_basis(0, 1)], "half": IMAGES[14:16],
                   "boost": [0, 1], "pair": [(1, 2), (0, 1)]},
         params=[10.0, 1600.0, 1500.0])
# C order over the subjects first: the first subject overflows only at the
# second parameter, the second subject at the first one
@example(subjects={"field": [([0.1, 0, 0], [0, 0, 0], [1, 0, 0, 0]),
                             ([3, 0, 0], [0, 0, 0], [1, 0, 0, 0])],
                   "image": [IMAGES[12], d_basis(0, 1)], "half": IMAGES[14:16],
                   "boost": [0, 1], "pair": [(1, 2), (0, 1)]},
         params=[1000.0, 20000.0])
@settings(max_examples=150, deadline=None)
def test_overflow_gives_a_finite_result_or_names_the_first_bad_parameter(subjects, params):
    # Parameters and field components up to 1e300.  Each callable runs on two
    # subjects, one at a time and, where it takes stacks, as a stack against
    # all parameters.  The flows let numpy's RuntimeWarnings through, the em
    # functions raise with no warning.
    for name, (source, single, stack) in OVERFLOW.items():
        param = "tau" if source == "field" else "phi"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore" if param == "phi" else "error")
            results = [outcome(single, s, p) for s in subjects[source] for p in params]
            stacked = stack and outcome(stack, subjects[source], params)
        errors = [r for r in results if isinstance(r, str)]
        for r, p in zip(results, params * 2):
            if isinstance(r, str):
                assert r.startswith(f"non-finite result at {param}={p:.17g}: ") or (
                    name in ("evolve_closed_form", "mass_shell_residual")
                    and r.startswith("imaginary residual")), name
            else:
                assert np.all(np.isfinite(r)), name
        if stack and errors:
            # the first non-finite entry in C order, over subjects then parameters
            assert stacked == next((r for r in errors if r.startswith("non-finite")), errors[0])
        elif stack:
            assert_same_bits(stacked, np.reshape(results, np.shape(stacked)))


# A subject of each source whose result overflows at the parameter 1e80.
OVERFLOWING = {"field": ([3.0, 0, 0], [0, 0, 0], [1.0, 0, 0, 0]), "image": IMAGES[0],
               "half": IMAGES[12], "boost": 1, "pair": (0, 1)}


@pytest.mark.parametrize("name", OVERFLOW)
def test_a_non_finite_parameter_is_an_input_error(name):
    # A NaN or infinite phi or tau is named as the input at fault, in a
    # single call and as the second parameter of a stack; a finite one whose
    # result overflows keeps the overflow message.
    source, single, stack = OVERFLOW[name]
    param = "tau" if source == "field" else "phi"
    subject = OVERFLOWING[source]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore" if param == "phi" else "error")
        for p in (np.nan, np.inf, -np.inf):
            message = f"^{param} must be finite, got {p:.17g}$"
            with pytest.raises(ValueError, match=message):
                single(subject, p)
            if stack:
                with pytest.raises(ValueError, match=message):
                    stack([subject], [0.5, p])
        with pytest.raises(ValueError, match=rf"^non-finite result at {param}=1e\+80: the "):
            single(subject, 1e80)


FIELD = EMField([1.0, 0, 0], [0, 0, 0])
# Fifty random E rows, and a copy with one infinite entry, as field stacks.
E50 = np.random.default_rng(40).uniform(-1, 1, (50, 3))
E50_INF = E50.copy()
E50_INF[37, 1] = np.inf
# (case, call, arguments, the whole message of its ValueError), grouped by
# callable.  The test id is `<callable>-<case>`: a case is named once and
# never renumbered, so a row can be inserted anywhere.  A numbered case
# keeps the id it had when ids were row positions.
INPUT_ERRORS = [
    # core
    ("0", basis, (4,), r"basis index must be in 0\.\.3, got 4"),
    ("32", basis, (1.5,), r"basis index must be in 0\.\.3, got 1\.5"),
    # a bool is an int to Python and a float equals one, but neither is an
    # index, a sign or a count
    ("47", basis, (True,), r"basis index must be in 0\.\.3, got True"),
    ("wrong-shape", phase_vector, ([1, 2, 3],),
     r"phase vector needs 4 coordinates, got shape \(3,\)"),
    *[(case, phase_vector, (coords,), "phase vector coordinates must be finite")
      for case, coords in (("nan", [np.nan, 0, 0, 0]), ("inf-imag", [np.inf * 1j, 0, 0, 0]))],
    ("wrong-shape", phase_operator, (np.eye(3),), r"phase operator must be 4x4, got shape \(3, 3\)"),
    ("nan", phase_operator, (np.diag([complex(np.nan), 1, 1, 1]),),
     "phase operator entries must be finite"),
    # triproduct
    ("33", d_basis, (0.5, 1), r"basis indices must be in 0\.\.3, got \(0\.5, 1\)"),
    ("48", d_basis, (True, 2), r"basis indices must be in 0\.\.3, got \(True, 2\)"),
    ("3", d_perp, (0,), "dual index must be 1, 2 or 3, got 0"),
    ("56", d_perp, (1.0,), r"dual index must be 1, 2 or 3, got 1\.0"),
    ("4", d_pm, (1, 0), r"sign must be \+1 or -1, got 0"),
    ("57", d_pm, (1, True), r"sign must be \+1 or -1, got True"),
    ("58", d_pm, (True, 1), r"basis indices must be in 0\.\.3, got \(0, True\)"),
    # liealgebra
    ("1", qo_realize, (np.zeros((3, 3)),), r"coefficient tensor must be 4x4, got shape \(3, 3\)"),
    # NaN fails a tolerance test, not only a value above it
    ("27", qo_realize, (np.array([[0, np.nan, 0, 0], [np.nan, 0, 0, 0], [0] * 4, [0] * 4]),),
     r"coefficient tensor is not antisymmetric \(residual nan\)"),
    # representations
    ("2", PoincareGenerator.translation, (4,), r"translation index must be in 0\.\.3, got 4"),
    ("54", PoincareGenerator.translation, (1.5,), r"translation index must be in 0\.\.3, got 1\.5"),
    ("40", PoincareGenerator.angular, (2, 2),
     r"angular indices must be distinct and in 0\.\.3, got \(2, 2\)"),
    ("55", PoincareGenerator.angular, (True, 2),
     r"angular indices must be distinct and in 0\.\.3, got \(True, 2\)"),
    ("41", parse_generator, ("Q7",), r"unknown generator label 'Q7' \(expected e\.g\. P0 or M01\)"),
    # indices are ASCII digits: a superscript one is not int()'s to parse,
    # and an Arabic-Indic one is no M01
    *[(case, parse_generator, (label,),
       rf"unknown generator label '{label}' \(expected e\.g\. P0 or M01\)")
      for case, label in (("65", "M0²"), ("66", "P¹"), ("67", "M0١"))],
    ("6", Representation, ("spin2",), "unknown representation 'spin2'"),
    ("53", REPS[0], (PoincareGenerator("angular", (True, 2)),),
     r"no spin1 image for angular indices \(True, 2\)"),
    ("52", REPS[0].angular_matrix, (1.0, 2), r"no spin1 image for angular indices \(1\.0, 2\)"),
    ("5", pi_half, (PoincareGenerator.angular(0, 1), 0), r"sign must be \+1 or -1, got 0"),
    ("59", pi_half, (PoincareGenerator.angular(0, 1), True), r"sign must be \+1 or -1, got True"),
    ("49", rotation_flow_closed, (True, 2, 0.5), r"basis indices must be in 0\.\.3, got \(True, 2\)"),
    ("50", rotation_flow_closed, (1.0, 2, 0.5), r"basis indices must be in 0\.\.3, got \(1\.0, 2\)"),
    # d_basis's message for an index outside 0..3, not a KeyError from the
    # flows' tables
    *[(case, rotation_flow_closed, (k, l, 0.5),
       rf"basis indices must be in 0\.\.3, got \({k}, {l}\)")
      for case, k, l in (("0-4", 0, 4), ("0-minus-1", 0, -1), ("4-1", 4, 1), ("2-minus-1", 2, -1))],
    ("51", boost_flow_closed, (True, 0.5), r"basis indices must be in 0\.\.3, got \(0, True\)"),
    *[(case, boost_flow_closed, (j, 0.5), rf"basis indices must be in 0\.\.3, got \(0, {j}\)")
      for case, j in (("4", 4), ("minus-1", -1))],
    *[(case, half_flow_closed, (x, 1.0), rf"operator must be 4x4, got shape \({shape}\)")
      for case, x, shape in (("43", np.stack([PLUS.angular_matrix(0, 1)] * 2), "2, 4, 4"),
                             ("44", np.full(4, 0.5), "4,"))],
    # I squares to 4 (I/4); diag(1/2, 0, 0, 0) to no multiple of I
    *[(case, half_flow_closed, (x, 1.0), r"operator does not square to \+/- I/4")
      for case, x in (("45", np.eye(4)), ("46", np.diag([0.5, 0.0, 0.0, 0.0])))],
    ("7", np_block_pattern, (0, True), "axis must be 1, 2 or 3, got 0"),
    ("8", np_block_pattern, (4, False), "axis must be 1, 2 or 3, got 4"),
    ("60", np_block_pattern, (1.0, True), r"axis must be 1, 2 or 3, got 1\.0"),
    ("61", np_block_pattern, (True, True), "axis must be 1, 2 or 3, got True"),
    ("42", np_block_residuals, ("spin1",), "no block pattern for representation 'spin1'"),
    # em
    ("34", EMField, ([1, 2], [0, 0, 0]), r"e must have 3 components, got shape \(2,\)"),
    ("35", EMField, ([1, 2, np.nan], [0, 0, 0]), "e components must be finite"),
    # a complex field or momentum, as a list and as an array, is rejected
    # by the same rule, never cast to its real part or a TypeError
    *[(case, EMField, (e, [0, 0, 0]), "e components must be real within 1e-09")
      for case, e in (("18", np.array([1 + 2j, 0, 0])), ("19", [1 + 2j, 0, 0]))],
    # stacks: too few components, unequal shapes, one infinite entry
    ("stack-e-shape", EMField, (E50[:, :2], E50[:, :2]),
     r"e must have 3 components, got shape \(50, 2\)"),
    *[(case, EMField, (E50, b), rf"e and b must have the same shape, got \(50, 3\) and {shape}")
      for case, b, shape in (("stack-b-rows", E50[:49], r"\(49, 3\)"),
                             ("stack-b-single", E50[0], r"\(3,\)"))],
    ("stack-e-inf", EMField, (E50_INF, E50), "e components must be finite"),
    ("stack-b-inf", EMField, (E50, E50_INF), "b components must be finite"),
    ("28", faraday_components, (np.full((4, 4), np.nan),),
     "operator is not a combination of the boost images"),
    ("36", faraday_components, (np.eye(4),), "operator is not a combination of the boost images"),
    # one operator just outside the span fails a stack
    ("37", faraday_components, (FARADAY[:50] + np.where(np.arange(50)[:, None, None] == 30,
                                                        1e-6 * np.eye(4), 0.0),),
     "operator is not a combination of the boost images"),
    ("9", evolve_closed_form, (FIELD, [1.0, 0, 0], 1.0),
     r"momentum must have 4 components, got shape \(3,\)"),
    # NaN and infinite components, in a single momentum and the last of a
    # stack, and a NaN imaginary part
    *[(case, evolve_closed_form, (FIELD, p0, 1.0), "momentum components must be finite")
      for case, p0 in (("11", [np.nan, 0, 0, 0]), ("12", [[1.0, 0, 0, 0], [0, 0, 0, np.inf]]),
                       ("13", [1, 0, 0, complex(0, np.nan)]))],
    # an imaginary part above imag_tol, and a real momentum against a
    # negative imag_tol, which no momentum meets
    *[(case, evolve_closed_form, (FIELD, p0, 1.0, tol),
       f"momentum components must be real within {tol:g}")
      for case, p0, tol in (("16", [1, 1j, 0, 0], 1e-9), ("17", [1.0, 0, 0, 0], -1.0))],
    ("10", evolve_numeric, (FIELD, [1.0, 0, 0], 1.0, 9),
     r"momentum must have 4 components, got shape \(3,\)"),
    *[(case, evolve_numeric, (FIELD, p0, 1.0, 9), "momentum components must be finite")
      for case, p0 in (("14", [np.nan, 0, 0, 0]), ("15", [[1.0, 0, 0, 0], [0, 0, 0, -np.inf]]))],
    *[(case, call, (FIELD, p0, 1.0, *steps), "momentum components must be real within 1e-09")
      for case, call, steps, p0 in (
          ("20", evolve_numeric, (9,), [1, 0.5j, 0, 0]),
          ("21", evolve_numeric, (9,), np.array([1, 0.5j, 0, 0])),
          ("22", mass_shell_residual, (), [1, 0.5j, 0, 0]),
          ("23", mass_shell_residual, (), np.array([1, 0.5j, 0, 0])))],
    # a float count or index, and a stack where one momentum is meant
    ("29", evolve_numeric, (FIELD, [1.0, 0, 0, 0], 1.0, 2.0), r"steps must be an integer >= 1, got 2\.0"),
    ("38", evolve_numeric, (FIELD, np.ones(4), 1.0, 0), "steps must be an integer >= 1, got 0"),
    ("62", evolve_numeric, (FIELD, [1.0, 0, 0, 0], 1.0, True), "steps must be an integer >= 1, got True"),
    ("39", evolve_numeric, (FIELD, np.ones(4), np.ones((2, 2)), 10),
     r"tau must be a scalar or a 1-D array, got shape \(2, 2\)"),
    ("31", mass_shell_residual, (FIELD, [[1.0, 0, 0, 0], [2.0, 0, 0, 0]], 1.0),
     r"momentum must have shape \(4,\), got shape \(2, 4\)"),
    # either momentum of shell_drift: complex, NaN, three components
    ("24", shell_drift, (np.array([1, 0.5j, 0, 0]), [1.0, 0, 0, 0]),
     "momentum components must be real within 1e-09"),
    ("25", shell_drift, ([1.0, 0, 0, 0], [1.0, np.nan, 0, 0]), "momentum components must be finite"),
    ("26", shell_drift, ([1.0, 0, 0], [1.0, 0, 0, 0]),
     r"momentum must have 4 components, got shape \(3,\)"),
    ("30", shell_drift, (np.ones((2, 4)), np.ones((2, 4))),
     r"momentum must have shape \(4,\), got shape \(2, 4\)"),
    # verify
    ("63", flow_invariance_residual, (FIELDS[:2], [1.0, 2.0], [0.4, 0.4]),
     r"boost axes must be 1, 2 or 3, got \[1\. 2\.\]"),
    ("64", flow_invariance_residual, (FIELDS[:2], [True, True], [0.4, 0.4]),
     r"boost axes must be 1, 2 or 3, got \[ True  True\]"),
    # np.asarray would read the bool as the axis 1
    ("bool-among-ints", flow_invariance_residual, (FIELDS[:2], (2, True), [0.4, 0.4]),
     r"boost axes must be 1, 2 or 3, got \[2 True\]"),
    # index axis - 1 of the boost table would wrap 0 round to axis 3
    ("axis-0", flow_invariance_residual, (FIELDS[:2], (1, 0), [0.4, 0.4]),
     r"boost axes must be 1, 2 or 3, got \[1 0\]"),
    ("axis-4", flow_invariance_residual, (FIELDS[:2], (1, 4), [0.4, 0.4]),
     r"boost axes must be 1, 2 or 3, got \[1 4\]"),
]
INPUT_ERROR_IDS = [f"{getattr(c, '__name__', type(c).__name__)}-{case}"
                   for case, c, *_ in INPUT_ERRORS]


def test_input_error_ids_are_unique():
    # pytest would suffix a repeated id, so a later row could take its name
    assert len(set(INPUT_ERROR_IDS)) == len(INPUT_ERROR_IDS)


@pytest.mark.parametrize("case, call, args, message", INPUT_ERRORS, ids=INPUT_ERROR_IDS)
def test_bad_input_is_a_value_error(case, call, args, message):
    # the ValueError is the only signal: no warning comes before it
    with warnings.catch_warnings(), pytest.raises(ValueError, match=f"^{message}$"):
        warnings.simplefilter("error")
        call(*args)


# Each call with plain ints: an index, a sign or a step count.
INT_ARGUMENTS = [
    (basis, 2), (d_basis, 3, 1), (d_perp, 2), (d_pm, 3, -1), (np_block_pattern, 2, False),
    (rotation_flow_closed, 3, 1, 0.7), (boost_flow_closed, 2, -0.4),
    (PoincareGenerator.translation, 1), (PoincareGenerator.angular, 3, 1),
    (lambda a, b: tuple(rep.angular_matrix(a, b) for rep in REPS), 2, 0),
    (lambda a, b, s: (pi_spin1(PoincareGenerator.angular(a, b)),
                      pi_half(PoincareGenerator.translation(a), s),
                      REPS[2](PoincareGenerator("angular", (a, b)))), 3, 0, -1),
    (lambda steps: evolve_numeric(FIELDS[:5], P0S[:5], 0.7, steps), 9),
]


@pytest.mark.parametrize("dtype", [np.int64, np.int32])
def test_a_numpy_integer_argument_gives_the_bits_of_the_int(dtype):
    for call, *args in INT_ARGUMENTS:
        got = parts(call(*[dtype(a) if type(a) is int else a for a in args]))
        for g, w in zip(got, parts(call(*args)), strict=True):
            if isinstance(w, np.ndarray):
                assert_same_bits(g, w)
            else:
                assert g == w


def test_the_argument_rule_has_one_owner():
    # isinstance(..., np.integer) appears only in core._index, and no module
    # tests a sign against a tuple of +1 and -1: every such argument meets
    # the one rule.
    for path in sorted(Path(relphase.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(node) for f in ast.walk(tree) if path.name == "core.py"
                 and isinstance(f, ast.FunctionDef) and f.name == "_index" for node in ast.walk(f)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                    and "np.integer" in ast.unparse(node)):
                assert id(node) in owner, f"{path.name}:{node.lineno}"
            for right in node.comparators if isinstance(node, ast.Compare) else ():
                try:
                    value = ast.literal_eval(right)
                except ValueError:
                    continue
                assert value not in ((1, -1), (-1, 1)), f"{path.name}:{node.lineno}"
