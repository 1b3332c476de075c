"""Command-line front end.

Subcommands:

* ``verify``     -- run every invariant suite, emit a machine-readable report.
* ``transform``  -- apply an exponential flow of a generator image to a vector.
* ``evolve``     -- closed-form charged-particle evolution, optionally checked
                    against the Runge-Kutta integrator.
* ``np-dump``    -- null-tetrad matrices of the spin-1/2 angular generators
                    with their Pauli-block residuals.

Common flags: ``--tolerance`` (scales every check's stated tolerance; the
default 1e-12 judges each check exactly at the tolerance it is defined
with), ``--seed`` (drives all randomized suites), ``--format`` (json or csv)
and ``--output`` (file path, default stdout).

Report payloads contain no timestamps: a fixed seed and flag set reproduces
them byte for byte.  Wall-clock timings go to stderr.  Exit status: 0 when
all checks pass, 1 on a verification failure, 2 on a usage or configuration
error.

Complex numbers are serialized as ``re+imi`` strings in JSON and as split
re/im columns in CSV; floats are written with 17 significant digits so that
parsing them back is lossless.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
import time

import numpy as np

from .core import phase_vector
from .em import EMField, evolve_closed_form, evolve_numeric, shell_drift
from .representations import (DUAL_PAIRS, REPRESENTATION_KINDS, Representation,
                              exponential_flow, np_block_pattern, np_blocks,
                              np_matrix, np_matrix_conjugate, parse_generator,
                              to_np_basis)
from .verify import DEFAULT_TOLERANCE, run_all

USAGE_ERROR = 2
VERIFY_ERROR = 1


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def format_complex(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}i"


def parse_complex(text: str) -> complex:
    """Parse ``re+imi`` strings (plain reals are accepted too)."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")
    if s[-1] not in "iI":
        return complex(float(s), 0.0)
    body = s[:-1]
    # split at the last sign that is not an exponent sign
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "eE":
            return complex(float(body[:k]), float(body[k:]))
    return complex(0.0, float(body))  # pure imaginary like "2i"


def _vector_strings(v) -> list[str]:
    return [format_complex(z) for z in np.asarray(v, dtype=np.complex128)]


def _matrix_strings(m) -> list[list[str]]:
    m = np.asarray(m, dtype=np.complex128)
    return [[format_complex(z) for z in row] for row in m]


def _write_payload(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path!r}: {exc}") from exc


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args: argparse.Namespace) -> int:
    reports = []
    all_pass = True
    t0 = time.perf_counter()
    for name, checks in run_all(args.seed):
        elapsed = time.perf_counter() - t0
        suite_pass = all(c.passed(args.tolerance) for c in checks)
        all_pass = all_pass and suite_pass
        reports.append({
            "suite": name,
            "checks": [{"id": c.id, "residual": c.residual, "pass": c.passed(args.tolerance)}
                       for c in checks],
            "pass": suite_pass,
        })
        worst = max((c.residual for c in checks), default=0.0)
        print(f"[verify] {name}: {len(checks)} checks, max residual {worst:.3e}, "
              f"{'PASS' if suite_pass else 'FAIL'} ({elapsed:.3f}s)", file=sys.stderr)
        t0 = time.perf_counter()

    if args.format == "json":
        payload = json.dumps(reports, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["suite", "check", "residual", "pass"])
        for rep in reports:
            for c in rep["checks"]:
                writer.writerow([rep["suite"], c["id"], format_float(c["residual"]),
                                 "true" if c["pass"] else "false"])
        payload = buf.getvalue()
    _write_payload(payload, args.output)
    return 0 if all_pass else VERIFY_ERROR


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------

def cmd_transform(args: argparse.Namespace) -> int:
    gen = parse_generator(args.generator)
    if gen.kind != "angular":
        raise ConfigError(f"transform needs an angular generator label, got {args.generator!r}")
    if not math.isfinite(args.phi):
        raise ConfigError(f"phi must be finite, got {args.phi}")
    rep = Representation(args.representation)
    v = phase_vector([parse_complex(c) for c in args.component])
    # Overflow is detected on the result below, so numpy's warnings are noise.
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = exponential_flow(rep.angular_matrix(*gen.indices) * gen.sign, args.phi)
        out = matrix @ v
    if not (np.all(np.isfinite(matrix)) and np.all(np.isfinite(out))):
        raise ConfigError(f"non-finite result at phi={args.phi:.17g}: the flow overflows "
                          "double precision; reduce phi or the components")

    if args.format == "json":
        payload = json.dumps({
            "representation": args.representation,
            "generator": gen.label,
            "phi": args.phi,
            "input": _vector_strings(v),
            "matrix": _matrix_strings(matrix),
            "output": _vector_strings(out),
        }, indent=2, allow_nan=False) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["section", "row", "col", "re", "im"])
        for i, z in enumerate(v):
            writer.writerow(["input", i, "", format_float(z.real), format_float(z.imag)])
        for i in range(4):
            for j in range(4):
                writer.writerow(["matrix", i, j,
                                 format_float(matrix[i, j].real), format_float(matrix[i, j].imag)])
        for i, z in enumerate(out):
            writer.writerow(["output", i, "", format_float(z.real), format_float(z.imag)])
        payload = buf.getvalue()
    _write_payload(payload, args.output)
    return 0


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def cmd_evolve(args: argparse.Namespace) -> int:
    if args.samples < 2:
        raise ConfigError(f"samples must be >= 2, got {args.samples}")
    if not np.isfinite(args.tau_max) or args.tau_max <= 0:
        raise ConfigError(f"tau-max must be positive, got {args.tau_max}")
    field = EMField(args.e, args.b)
    p0 = np.asarray(args.p0, dtype=np.float64)
    if not np.all(np.isfinite(p0)):
        raise ConfigError("momentum components must be finite")

    taus = np.linspace(0.0, args.tau_max, args.samples)
    rows = []
    # Overflow is detected on the rows below, so numpy's warnings are noise.
    with np.errstate(over="ignore", invalid="ignore"):
        if args.compare:
            p_num = evolve_numeric(field, p0, taus, args.rk4_steps)
        for k, tau in enumerate(taus):
            tau = float(tau)
            p = evolve_closed_form(field, p0, tau)
            row = {"tau": tau, "p": [float(x) for x in p]}
            values = row["p"]
            if args.compare:
                row["p_num"] = [float(x) for x in p_num[k]]
                row["dev"] = float(np.abs(p - p_num[k]).max()) / max(1.0, float(np.abs(p).max()))
                row["shell_residual"] = shell_drift(p0, p)
                values = values + row["p_num"] + [row["dev"], row["shell_residual"]]
            if not all(math.isfinite(v) for v in values):
                raise ConfigError(f"non-finite result at tau={tau:.17g}: the momentum "
                                  "overflows double precision; reduce tau-max or the field")
            rows.append(row)

    if args.format == "json":
        payload = json.dumps({
            "field": {"e": list(map(float, field.e)), "b": list(map(float, field.b))},
            "p0": [float(x) for x in p0],
            "tau_max": args.tau_max,
            "samples": args.samples,
            "compare": bool(args.compare),
            "rows": rows,
        }, indent=2, allow_nan=False) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        header = ["tau", "p0", "p1", "p2", "p3"]
        if args.compare:
            header += ["p0_num", "p1_num", "p2_num", "p3_num", "dev", "shell_residual"]
        writer.writerow(header)
        for row in rows:
            cells = [format_float(row["tau"])] + [format_float(x) for x in row["p"]]
            if args.compare:
                cells += [format_float(x) for x in row["p_num"]]
                cells += [format_float(row["dev"]), format_float(row["shell_residual"])]
            writer.writerow(cells)
        payload = buf.getvalue()
    _write_payload(payload, args.output)
    return 0


# ---------------------------------------------------------------------------
# np-dump
# ---------------------------------------------------------------------------

def cmd_np_dump(args: argparse.Namespace) -> int:
    kind = args.representation
    rep = Representation(kind)
    tetrad = np_matrix() if kind == "spin_half_plus" else np_matrix_conjugate()

    generators = []
    worst = 0.0
    for boost in (True, False):
        for j in (1, 2, 3):
            pair = (0, j) if boost else DUAL_PAIRS[j]
            mat = to_np_basis(rep.angular_matrix(*pair), tetrad)
            b1, b2, off = np_blocks(mat)
            e1, e2 = np_block_pattern(j, boost, kind)
            r1 = float(np.abs(b1 - e1).max())
            r2 = float(np.abs(b2 - e2).max())
            worst = max(worst, off, r1, r2)
            generators.append({
                "label": f"M{pair[0]}{pair[1]}",
                "axis": j,
                "kind": "boost" if boost else "rotation",
                "matrix": _matrix_strings(mat),
                "off_block_residual": off,
                "first_block_residual": r1,
                "second_block_residual": r2,
            })

    passed = worst <= args.tolerance
    if args.format == "json":
        payload = json.dumps({
            "representation": kind,
            "tetrad": list(tetrad.labels),
            "generators": generators,
            "max_residual": worst,
            "pass": passed,
        }, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["generator", "axis", "kind", "off_block_residual",
                         "first_block_residual", "second_block_residual", "pass"])
        for g in generators:
            g_pass = max(g["off_block_residual"], g["first_block_residual"],
                         g["second_block_residual"]) <= args.tolerance
            writer.writerow([g["label"], g["axis"], g["kind"],
                             format_float(g["off_block_residual"]),
                             format_float(g["first_block_residual"]),
                             format_float(g["second_block_residual"]),
                             "true" if g_pass else "false"])
        payload = buf.getvalue()
    _write_payload(payload, args.output)
    return 0 if passed else VERIFY_ERROR


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reads a dash followed by a digit as a negative number, never an option.

    Before Python 3.13 argparse takes ``-4.03e-05`` for an unknown option,
    because its negative-number pattern has no exponent, and the command then
    fails with a missing-argument error.  This is the pattern of 3.13 on;
    no relphase option starts with a digit.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
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

    sub.add_parser("verify", help="run every invariant suite")

    p_tr = sub.add_parser("transform", help="apply an exponential generator flow to a vector")
    p_tr.add_argument("representation", choices=REPRESENTATION_KINDS)
    p_tr.add_argument("generator", help="angular generator label, e.g. M01 or M12")
    p_tr.add_argument("phi", type=float, help="flow parameter (rapidity or angle)")
    p_tr.add_argument("component", nargs=4, metavar="C",
                      help="four vector components, each 're' or 're+imi'")

    p_ev = sub.add_parser("evolve", help="evolve a four-momentum in a uniform field")
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
    p_np.add_argument("representation",
                      choices=[k for k in REPRESENTATION_KINDS if k.startswith("spin_half")])

    return parser


COMMANDS = {
    "verify": cmd_verify,
    "transform": cmd_transform,
    "evolve": cmd_evolve,
    "np-dump": cmd_np_dump,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not np.isfinite(args.tolerance) or args.tolerance <= 0:
        print(f"error: tolerance must be positive, got {args.tolerance}", file=sys.stderr)
        return USAGE_ERROR
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
