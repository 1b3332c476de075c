"""The benchmark's three workloads: input generation, units and output checks.

A workload is a sequence of cycles.  Cycle ``c`` draws its inputs from
``numpy.random.default_rng([seed, c])``, so the same seed gives the same
inputs, and every cycle has the same fixed composition of unit shapes: the
percentiles of a run then land at fixed positions in the mix of shapes
whatever the seed.  Each unit is ``run`` inside the timed interval and then
``check``-ed outside it; a unit that raises or fails its check is a failure.

The library is reached only through module attributes looked up at call time
(``representations.boost_flow_closed``), so the names the tracer rebinds are
the ones the units call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

from relphase import cli, em, liealgebra, representations, verify

_ETA = np.diag([1.0, -1.0, -1.0, -1.0])


def _shell(p) -> float:
    p = np.asarray(p, dtype=np.float64)
    return float(p @ _ETA @ p)


def _shell_drift(p0, p) -> float:
    """Mass-shell drift |p^2 - p0^2| relative to max(1, |p|)^2, as in the em suite."""
    scale = max(1.0, float(np.abs(p).max()))
    return abs(_shell(p) - _shell(p0)) / scale ** 2


def _momentum(rng: np.random.Generator) -> np.ndarray:
    p = rng.uniform(-1.0, 1.0, 3)
    return np.concatenate(([math.sqrt(1.0 + float(p @ p))], p))


def _fmt(values) -> list[str]:
    return [f"{float(x):.17g}" for x in values]


class Workload:
    """Defaults shared by the workloads."""

    name = ""
    #: Units of cycle 0 run untimed before measuring, to finish lazy set-up.
    warmup_units = 1
    #: Tail percentile reported as unit_ms_tail.
    tail_q = 90.0
    #: Fewest timed units, so the tail keeps ten samples beyond it.
    min_units = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        # Observations for the per-layer metrics; each workload feeds its own.
        self.max_residual_ratio = 0.0
        self.bytes_out = 0
        self.extreme_runs = 0
        self.extreme_failures = 0

    @staticmethod
    def is_extreme(unit: tuple) -> bool:
        """Extreme units are judged apart and not counted as attempted."""
        return False

    @staticmethod
    def kind(unit: tuple) -> str | None:
        """Label under which a unit's latency is also kept, or None."""
        return None


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

class Verify(Workload):
    """One unit is one call of a ``verify.SUITES`` function.

    A cycle is one pass over the five suites in order, sharing one generator
    seeded per pass.
    """

    name = "verify"
    warmup_units = 5

    def cycle(self, c: int, extreme: bool = False) -> list[tuple]:
        rng = np.random.default_rng([self.seed, c])
        return [(name, rng) for name, _ in verify.SUITES]

    def run(self, unit: tuple):
        name, rng = unit
        return dict(verify.SUITES)[name](rng)

    def check(self, unit: tuple, checks) -> bool:
        for c in checks:
            self.max_residual_ratio = max(self.max_residual_ratio, c.residual / c.tolerance)
        return len(checks) > 0 and all(c.passed() for c in checks)

    @staticmethod
    def kind(unit: tuple) -> str:
        return unit[0]


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

EVOLVE_DEV_TOL = 1e-8
SHELL_TOL = 1e-11


def _field(kind: str, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    e = rng.uniform(-1.0, 1.0, 3)
    b = rng.uniform(-1.0, 1.0, 3)
    if kind == "null":
        # B perpendicular to E with |B| = |E|, so z = (E+iB).(E+iB) = 0.
        perp = np.cross(e, b)
        b = perp * (np.linalg.norm(e) / np.linalg.norm(perp))
    elif kind == "pure_e":
        b = np.zeros(3)
    elif kind == "pure_b":
        e = np.zeros(3)
    return e, b


def check_evolve_output(text: str, status: int, p0, samples: int, compare: bool) -> bool:
    """Gate for one ``relphase evolve`` call.

    The exit status must be 0 and the JSON must parse strictly: bare ``NaN``
    or ``Infinity`` tokens are a failure.  Every row needs finite values and
    the sample count must match.  With ``--compare`` every row needs
    ``dev <= 1e-8``, and the closed-form momentum must stay on the mass shell
    of ``p0`` within 1e-11, recomputed here independently of the program.
    """
    if status != 0:
        return False

    def reject(token: str):
        raise ValueError(f"non-finite JSON token {token}")

    try:
        doc = json.loads(text, parse_constant=reject)
    except ValueError:
        return False
    rows = doc.get("rows") if isinstance(doc, dict) else None
    if not isinstance(rows, list) or len(rows) != samples:
        return False
    for row in rows:
        values = [row["tau"], *row["p"]]
        if compare:
            values += [*row["p_num"], row["dev"], row["shell_residual"]]
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
            return False
        if compare and (row["dev"] > EVOLVE_DEV_TOL or _shell_drift(p0, row["p"]) > SHELL_TOL):
            return False
    return True


class Evolve(Workload):
    """One unit is an in-process ``relphase evolve ... --compare`` call.

    Every cycle has the same sample counts in the same order and a seeded
    assignment of field kinds.  With ``extreme`` set, each cycle also holds one
    extreme-but-finite unit at a seeded position, run without ``--compare``.
    """

    name = "evolve"
    # Per cycle 30% of units have 2 samples, 30% have 3 and 40% have 4, so
    # p50 and p80 fall inside the 3- and 4-sample bands, not on a boundary.
    tail_q = 80.0
    min_units = 50
    SAMPLES = (3, 2, 4, 4, 2, 3, 4, 2, 4, 3)
    KINDS = ("generic",) * 4 + ("null",) * 2 + ("pure_e",) * 2 + ("pure_b",) * 2

    def cycle(self, c: int, extreme: bool = False) -> list[tuple]:
        rng = np.random.default_rng([self.seed, c])
        units = []
        for samples, kind in zip(self.SAMPLES, rng.permutation(self.KINDS)):
            e, b = _field(kind, rng)
            p0 = _momentum(rng)
            tau_max = rng.uniform(1.0, 10.0)
            argv = ["evolve", *_fmt(e), *_fmt(b), *_fmt(p0), f"{tau_max:.17g}", str(samples),
                    "--compare"]
            units.append((argv, p0, samples, True))
        if extreme:
            # |E| about 1 with a weak B: |Re(w)| * tau_max exceeds the log of
            # the largest float, so exp(w tau) overflows.
            direction = rng.standard_normal(3)
            e = rng.uniform(0.8, 1.2) * direction / np.linalg.norm(direction)
            b = 0.1 * rng.uniform(-1.0, 1.0, 3)
            p0 = _momentum(rng)
            tau_max = rng.uniform(2000.0, 4000.0)
            argv = ["evolve", *_fmt(e), *_fmt(b), *_fmt(p0), f"{tau_max:.17g}", "2"]
            units.insert(int(rng.integers(1, len(units) + 1)), (argv, p0, 2, False))
        return units

    def run(self, unit: tuple):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(unit[0])
        return status, out.getvalue(), err.getvalue()

    def check(self, unit: tuple, result) -> bool:
        """Gate a unit; for an extreme unit, ``result`` may be the exception it raised."""
        argv, p0, samples, compare = unit
        if compare:
            status, text, _ = result
            self.bytes_out += len(text.encode())
            return check_evolve_output(text, status, p0, samples, True)
        # Extreme unit: a finite answer, or exit 2 with a message, succeeds.
        # NaN or inf with exit 0, or an uncaught exception, fails.
        self.extreme_runs += 1
        ok = False
        if not isinstance(result, Exception):
            status, text, err = result
            self.bytes_out += len(text.encode())
            ok = (check_evolve_output(text, status, p0, samples, False)
                  or (status == 2 and "error" in err))
        self.extreme_failures += not ok
        return ok

    @staticmethod
    def is_extreme(unit: tuple) -> bool:
        return not unit[3]


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------

QO_TOL = 1e-12


def check_flow(x, g, a, ga) -> bool:
    """Gate for one representation unit.

    The flow must be quasi-orthogonal, commute with its generator image and
    preserve the bilinear square of the vector: <ga|ga> = <a|a> relative to
    max(1, |ga|^2, |a|^2).
    """
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(ga))):
        return False
    if not liealgebra.is_quasi_orthogonal(g):
        return False
    gscale = max(1.0, float(np.abs(g).max()) * float(np.abs(x).max()))
    if float(np.abs(g @ x - x @ g).max()) > QO_TOL * gscale:
        return False
    sq_a = a @ _ETA @ a
    sq_ga = ga @ _ETA @ ga
    scale = max(1.0, float(np.abs(ga).max()) ** 2, float(np.abs(a).max()) ** 2)
    return abs(sq_ga - sq_a) <= QO_TOL * scale


class Flows(Workload):
    """One unit is one scalar API request.

    A cycle holds every (representation, angular generator) pair once, in a
    seeded order, plus two field units at seeded positions: a tenth of all
    units is ``evolve_closed_form`` at a seeded field and proper time.
    """

    name = "flows"
    warmup_units = 20
    # Above p90 the latencies are host hiccups of fixed length, which no
    # speed scaling tracks; p95 and p99 spread 10-15% between runs here.
    tail_q = 90.0
    KINDS = ("spin1", "spin_half_plus", "spin_half_minus")
    FIELD_UNITS = 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.reps = {k: representations.Representation(k) for k in self.KINDS}

    def cycle(self, c: int, extreme: bool = False) -> list[tuple]:
        rng = np.random.default_rng([self.seed, c])
        combos = [(k, pair) for k in self.KINDS for pair in liealgebra.QO_BASIS_PAIRS]
        units = []
        for i in rng.permutation(len(combos)):
            kind, pair = combos[i]
            a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            units.append(("rep", kind, pair, float(rng.uniform(-2.0, 2.0)), a))
        for _ in range(self.FIELD_UNITS):
            field = ("field", rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, 3),
                     rng.uniform(-1.0, 1.0, 4), float(rng.uniform(0.0, 10.0)))
            units.insert(int(rng.integers(0, len(units) + 1)), field)
        return units

    def run(self, unit: tuple):
        if unit[0] == "field":
            _, e, b, p0, tau = unit
            return em.evolve_closed_form(em.EMField(e, b), p0, tau)
        _, kind, (alpha, beta), phi, a = unit
        x = self.reps[kind].angular_matrix(alpha, beta)
        if kind != "spin1":
            g = representations.half_flow_closed(x, phi)
        elif alpha == 0:
            g = representations.boost_flow_closed(beta, phi)
        else:
            g = representations.rotation_flow_closed(alpha, beta, phi)
        return x, g, g @ a

    def check(self, unit: tuple, result) -> bool:
        if unit[0] == "field":
            p0 = unit[3]
            return bool(np.all(np.isfinite(result))) and _shell_drift(p0, result) <= SHELL_TOL
        x, g, ga = result
        return check_flow(x, g, unit[4], ga)


WORKLOADS = {w.name: w for w in (Verify, Evolve, Flows)}
