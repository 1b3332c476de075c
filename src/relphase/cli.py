"""Command-line front end.

Subcommands:

* ``verify``     -- run every invariant suite, emit a machine-readable report.
* ``transform``  -- apply the closed-form exponential flow of a generator
                    image to a vector.  ``verify``, the only command that
                    loads scipy, checks these flows against its ``expm``.
* ``evolve``     -- closed-form charged-particle evolution, optionally checked
                    against the Runge-Kutta integrator.
* ``np-dump``    -- null-tetrad matrices of the spin-1/2 angular generators
                    with their Pauli-block residuals.

Common flags: ``--tolerance`` (scales every check's stated tolerance; the
default 1e-12 judges each check exactly at the tolerance it is defined
with) and ``--seed`` (drives all randomized suites).

Output: every command builds one result and writes it in one place.
``--format json`` (the default) writes it as one indented JSON document,
``--format csv`` as a header row and one row per entry, with the same
values.  Every CSV line, the header included, ends in CRLF (``\\r\\n``, the
``csv`` module's default), on stdout and in a file alike; JSON ends in one
``\\n``.  ``--output PATH`` writes it to PATH instead of stdout ('-' or unset
is stdout).  A command that fails writes nothing.

Report payloads contain no timestamps: a fixed seed and flag set reproduces
them byte for byte.  Wall-clock timings go to stderr.  Exit status: 0 when
all checks pass, 1 on a verification failure, 2 on a usage or configuration
error, an unwritable ``--output`` or stdout (a closed pipe) included.

Complex numbers are serialized as ``re+imi`` strings in JSON and as split
re/im columns in CSV; floats are written with 17 significant digits so that
parsing them back is lossless.

``main`` builds its parser once per process, on the first call, and is safe
to call repeatedly in-process: argparse applies the defaults to a fresh
namespace on every parse, so no flag (``--output`` included) carries over
from one call to the next, and the command is looked up when ``main`` runs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import re
import sys
import time

import numpy as np

from . import representations
from .core import _require_finite, phase_vector
from .em import EMField, evolve_closed_form, evolve_numeric, shell_drift
from .representations import (REPRESENTATION_KINDS, Representation, half_flow_closed,
                              np_block_residuals, parse_generator, rotation_flow_closed)
from .verify import DEFAULT_TOLERANCE, run_all

USAGE_ERROR = 2
VERIFY_ERROR = 1


def format_complex(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}i"


def parse_complex(text: str) -> complex:
    """Parse ``re``, ``imi`` or ``re+imi`` by ``complex()``, a trailing ``i``
    or ``I`` read as ``j``: so ``2j``, ``i``, ``-i`` and ``(1+2i)`` parse too.
    Whitespace is ignored; anything else raises ValueError."""
    return complex(re.sub(r"[iI](?=\)?$)", "j", "".join(text.split())))


def _matrix_strings(m) -> list[list[str]]:
    return [list(map(format_complex, row)) for row in m]


def _cell(x):
    """A CSV cell: floats with 17 significant digits, booleans as true/false."""
    if isinstance(x, bool):
        return "true" if x else "false"
    return f"{x:.17g}" if isinstance(x, float) else x


def _emit(args: argparse.Namespace, doc, header: list[str], rows, status: int,
          allow_nan: bool = True) -> int:
    """Write ``doc`` as JSON, or ``header`` and ``rows`` as CSV, to stdout or
    ``--output``, and return ``status``.

    The text is built before the file is opened, so a document that cannot
    be written (NaN with ``allow_nan=False``) leaves no file behind.
    """
    if args.format == "json":
        text = json.dumps(doc, indent=2, allow_nan=allow_nan) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows([_cell(x) for x in row] for row in rows)
        text = buf.getvalue()
    to_stdout = args.output in (None, "-")
    try:
        if to_stdout:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(args.output, "w", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        if to_stdout:
            # A closed pipe: point fd 1 at the null device, so that the
            # flush at interpreter exit does not fail a second time.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        where = "to stdout" if to_stdout else f"output file {args.output!r}"
        raise ValueError(f"cannot write {where}: {exc}") from exc
    return status


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args: argparse.Namespace) -> int:
    reports, rows = [], []
    all_pass = True
    # The suites' expm oracle imports scipy on first use; timed apart, that
    # one-time load is not charged to the first suite that calls it.
    t0 = time.perf_counter()
    try:
        representations.expm
    except ImportError as exc:
        raise ValueError(f"verify needs scipy for its expm oracle ({exc})") from None
    print(f"[verify] scipy expm oracle loaded ({time.perf_counter() - t0:.3f}s)",
          file=sys.stderr)
    t0 = time.perf_counter()
    for name, checks in run_all(args.seed):
        elapsed = time.perf_counter() - t0
        results = [(c.id, c.residual, c.passed(args.tolerance)) for c in checks]
        suite_pass = all(ok for *_, ok in results)
        all_pass = all_pass and suite_pass
        reports.append({
            "suite": name,
            "checks": [{"id": cid, "residual": r, "pass": ok} for cid, r, ok in results],
            "pass": suite_pass,
        })
        rows += [[name, *result] for result in results]
        worst = max((c.residual for c in checks), default=0.0)
        print(f"[verify] {name}: {len(checks)} checks, max residual {worst:.3e}, "
              f"{'PASS' if suite_pass else 'FAIL'} ({elapsed:.3f}s)", file=sys.stderr)
        t0 = time.perf_counter()
    return _emit(args, reports, ["suite", "check", "residual", "pass"], rows,
                 0 if all_pass else VERIFY_ERROR)


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------

def cmd_transform(args: argparse.Namespace) -> int:
    gen = parse_generator(args.generator)
    if gen.kind != "angular":
        raise ValueError(f"transform needs an angular generator label, got {args.generator!r}")
    rep = Representation(args.representation)
    v = phase_vector([parse_complex(c) for c in args.component])
    # Overflow is detected on the results, so numpy's warnings are noise.
    with np.errstate(over="ignore", invalid="ignore"):
        # The closed-form flow of the label as given: gen.indices[::gen.sign]
        # reverses the canonical indices of a swapped label (M10).
        label = gen.indices[::gen.sign]
        matrix = (rotation_flow_closed(*label, args.phi) if rep.kind == "spin1"
                  else half_flow_closed(rep.angular_matrix(*label), args.phi))
        # A finite flow can still send a large vector out of range.
        out = _require_finite(matrix @ v, args.phi, "phi", "image", "phi or the components")

    doc = {
        "representation": args.representation,
        "generator": gen.label,
        "phi": args.phi,
        "input": list(map(format_complex, v)),
        "matrix": _matrix_strings(matrix),
        "output": list(map(format_complex, out)),
    }
    rows = ([["input", i, "", z.real, z.imag] for i, z in enumerate(v)]
            + [["matrix", i, j, z.real, z.imag] for (i, j), z in np.ndenumerate(matrix)]
            + [["output", i, "", z.real, z.imag] for i, z in enumerate(out)])
    return _emit(args, doc, ["section", "row", "col", "re", "im"], rows, 0, allow_nan=False)


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def cmd_evolve(args: argparse.Namespace) -> int:
    if args.samples < 2:
        raise ValueError(f"samples must be >= 2, got {args.samples}")
    if not np.isfinite(args.tau_max) or args.tau_max <= 0:
        raise ValueError(f"tau-max must be positive, got {args.tau_max}")
    field = EMField(args.e, args.b)
    p0 = np.asarray(args.p0, dtype=np.float64)

    header = ["tau", "p0", "p1", "p2", "p3"]
    # One row per sample: tau, p, and with --compare p_num, dev, shell_residual.
    try:
        # Overflow, of the tau grid near the float maximum or of the
        # difference of two finite momenta, is detected on the table, so
        # numpy's warnings are noise.
        with np.errstate(over="ignore", invalid="ignore"):
            taus = np.linspace(0.0, args.tau_max, args.samples)
            p = evolve_closed_form(field, p0, taus)
            table = np.column_stack([taus, p])
            if args.compare:
                header += ["p0_num", "p1_num", "p2_num", "p3_num", "dev", "shell_residual"]
                p_num = evolve_numeric(field, p0, taus, args.rk4_steps)
                dev = np.abs(p - p_num).max(axis=1) / np.maximum(1.0, np.abs(p).max(axis=1))
                shell = [shell_drift(p0, row) for row in p]
                table = np.column_stack([table, p_num, dev, shell])
            _require_finite(table, taus, "tau", "momentum", "tau or the field", 1)
        rows = table.tolist()
    except MemoryError:
        raise ValueError(f"samples={args.samples} do not fit in memory; reduce samples") from None
    except ValueError as exc:
        # The library's overflow error names tau; this command sets it by tau-max.
        raise ValueError(str(exc).replace("reduce tau ", "reduce tau-max ")) from None

    keys = ["tau", "p"] + (["p_num", "dev", "shell_residual"] if args.compare else [])
    doc = {
        "field": {"e": list(map(float, field.e)), "b": list(map(float, field.b))},
        "p0": [float(x) for x in p0],
        "tau_max": args.tau_max,
        "samples": args.samples,
        "compare": bool(args.compare),
        "rows": [dict(zip(keys, (r[0], r[1:5], r[5:9], *r[9:]))) for r in rows],
    }
    return _emit(args, doc, header, rows, 0, allow_nan=False)


# ---------------------------------------------------------------------------
# np-dump
# ---------------------------------------------------------------------------

def cmd_np_dump(args: argparse.Namespace) -> int:
    kind = args.representation
    tetrad, entries = np_block_residuals(kind)

    generators, rows = [], []
    for pair, j, boost, mat, (off, r1, r2) in entries:
        label, gen_kind = f"M{pair[0]}{pair[1]}", "boost" if boost else "rotation"
        generators.append({
            "label": label,
            "axis": j,
            "kind": gen_kind,
            "matrix": _matrix_strings(mat),
            "off_block_residual": off,
            "first_block_residual": r1,
            "second_block_residual": r2,
        })
        rows.append([kind, label, j, gen_kind, off, r1, r2, max(off, r1, r2) <= args.tolerance])
    worst = max(max(row[4:7]) for row in rows)

    passed = worst <= args.tolerance
    doc = {
        "representation": kind,
        "tetrad": list(tetrad.labels),
        "generators": generators,
        "max_residual": worst,
        "pass": passed,
    }
    return _emit(args, doc, ["representation", "generator", "axis", "kind", "off_block_residual",
                             "first_block_residual", "second_block_residual", "pass"],
                 rows, 0 if passed else VERIFY_ERROR)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reads a dash followed by a digit, ``inf`` or ``nan``, and a lone
    ``-i`` or ``-j``, as a negative number, never an option.

    Before Python 3.13 argparse takes ``-4.03e-05`` for an unknown option,
    because its negative-number pattern has no exponent, and the command then
    fails with a missing-argument error.  The digit part is the pattern of
    3.13 on.  ``-inf``, ``-infinity`` and ``-nan`` (any case) are numbers to
    ``float`` too, so they reach the library's finiteness checks, and
    ``-i`` is the component -1j to :func:`parse_complex`; no relphase option
    starts with a digit, ``inf`` or ``nan``, or is ``-i`` or ``-j``.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan|[ij]$)", re.IGNORECASE)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on the first call and then shared for
    the life of the process; callers must not modify it."""
    parser = _Parser(
        prog="relphase",
        description="Relativistic phase-space toolkit: verification suites, "
                    "generator flows, and charged-particle evolution.")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="tolerance scale; the default judges every check at its "
                             "specified tolerance (default: %(default)g)")
    parser.add_argument("--seed", type=int, default=42,
                        help="seed for all randomized suites (default: %(default)s)")
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        help="report format (default: %(default)s)")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="output file path; '-' or unset writes to stdout")

    sub = parser.add_subparsers(dest="command", required=True)
    # Each run looks its cmd_* up when it is called, not when the shared
    # parser is built, so that a rebinding of the name (a tracer's, say)
    # takes effect.
    sub.add_parser("verify", help="run every invariant suite").set_defaults(
        run=lambda a: cmd_verify(a))

    p_tr = sub.add_parser("transform", help="apply an exponential generator flow to a vector")
    p_tr.set_defaults(run=lambda a: cmd_transform(a))
    p_tr.add_argument("representation", choices=REPRESENTATION_KINDS)
    p_tr.add_argument("generator", help="angular generator label, e.g. M01 or M12")
    p_tr.add_argument("phi", type=float, help="flow parameter (rapidity or angle)")
    p_tr.add_argument("component", nargs=4, metavar="C",
                      help="four vector components, each 're' or 're+imi'")

    p_ev = sub.add_parser("evolve", help="evolve a four-momentum in a uniform field")
    p_ev.set_defaults(run=lambda a: cmd_evolve(a))
    p_ev.add_argument("e", type=float, nargs=3, metavar="E",
                      help="electric field components EX EY EZ")
    p_ev.add_argument("b", type=float, nargs=3, metavar="B",
                      help="magnetic field components BX BY BZ")
    p_ev.add_argument("p0", type=float, nargs=4, metavar="P",
                      help="initial real four-momentum P0 P1 P2 P3")
    p_ev.add_argument("tau_max", type=float, help="final proper time")
    p_ev.add_argument("samples", type=int, help="number of output rows (>= 2)")
    p_ev.add_argument("--compare", action="store_true",
                      help="also integrate with Runge-Kutta and report deviations")
    p_ev.add_argument("--rk4-steps", type=int, default=10000,
                      help="internal integrator steps per sample (default: %(default)s)")

    p_np = sub.add_parser("np-dump", help="null-tetrad block structure of the spin-1/2 generators")
    p_np.set_defaults(run=lambda a: cmd_np_dump(a))
    p_np.add_argument("representation",
                      choices=[k for k in REPRESENTATION_KINDS if k.startswith("spin_half")])

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if not np.isfinite(args.tolerance) or args.tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {args.tolerance}")
        return args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
