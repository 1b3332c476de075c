import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relphase import (EMField, Representation, evolve_closed_form, exponential_flow,
                      half_flow_closed, rotation_flow_closed)
from relphase import cli
from relphase.cli import format_complex, main, parse_complex
from relphase.representations import REPRESENTATION_KINDS


DATA = Path(__file__).parent / "data"
PINNED_EVOLVE = DATA / "evolve_compare_pinned.json"
PINNED_OUTPUT = DATA / "cli_pinned.json"
ANGULAR_LABELS = [f"M{a}{b}" for a in range(4) for b in range(4) if a != b]


def strict_json(text):
    def reject(token):
        raise ValueError(f"non-finite JSON token {token}")
    return json.loads(text, parse_constant=reject)


def run_cli(args, stdout=subprocess.PIPE):
    return subprocess.run([sys.executable, "-m", "relphase.cli", *args],
                          stdout=stdout, stderr=subprocess.PIPE, text=True)


class TestComplexFormat:
    @pytest.mark.parametrize("z", [0j, 1 + 2j, -1.5 - 0.25j, 3.0 + 0j, 2j,
                                   1.2345678901234567e-8 + 9.87654321e12j])
    def test_round_trip(self, z):
        assert parse_complex(format_complex(z)) == z

    def test_plain_real(self):
        assert parse_complex("2.5") == 2.5 + 0j

    def test_pure_imaginary(self):
        assert parse_complex("2i") == 2j

    @pytest.mark.parametrize("text, z", [("1+2j", 1 + 2j), ("i", 1j), ("-i", -1j),
                                         ("(1+2i)", 1 + 2j)])
    def test_python_forms(self, text, z):
        assert parse_complex(text) == z

    def test_rejects_garbage(self):
        for text in ["not-a-number", "", "1+-2i", "--1i", "1e5e5i"]:
            with pytest.raises(ValueError):
                parse_complex(text)


class TestVerifyCommand:
    def test_exit_zero_and_schema(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["--output", str(out), "verify"]) == 0
        report = json.loads(out.read_text())
        assert isinstance(report, list)
        for suite in report:
            assert set(suite) == {"suite", "checks", "pass"}
            assert suite["pass"] is True
            for check in suite["checks"]:
                assert set(check) == {"id", "residual", "pass"}
                assert isinstance(check["residual"], float)

    def test_deterministic_under_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["--seed", "7", "--output", str(a), "verify"]) == 0
        assert main(["--seed", "7", "--output", str(b), "verify"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unattainable_tolerance_fails(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["--tolerance", "1e-30", "--output", str(out), "verify"]) == 1
        report = json.loads(out.read_text())
        assert not all(s["pass"] for s in report)

    @pytest.mark.parametrize("tolerance", ["0", "nan", "-1e-12"])
    def test_bad_tolerance_is_usage_error(self, tolerance, capsys):
        assert main(["--tolerance", tolerance, "verify"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: tolerance must be positive, got {float(tolerance)}\n"

    def test_csv_format(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main(["--format", "csv", "--output", str(out), "verify"]) == 0
        rows = list(csv.DictReader(out.open()))
        assert {"suite", "check", "residual", "pass"} == set(rows[0])
        assert all(r["pass"] == "true" for r in rows)

    def test_unwritable_output_is_config_error(self):
        assert main(["--output", "/nonexistent-dir/r.json", "verify"]) == 2


class TestTransformCommand:
    def test_boost_of_time_axis(self, tmp_path):
        out = tmp_path / "t.json"
        assert main(["--output", str(out), "transform", "spin1", "M01", "1.0",
                     "1", "0", "0", "0"]) == 0
        d = json.loads(out.read_text())
        got = [parse_complex(z) for z in d["output"]]
        assert got[0] == pytest.approx(np.cosh(1.0))
        assert got[1] == pytest.approx(-np.sinh(1.0))
        assert got[2] == got[3] == 0

    def test_zero_angle_identity(self, tmp_path):
        out = tmp_path / "t.json"
        for rep in ("spin1", "spin_half_plus", "spin_half_minus"):
            assert main(["--output", str(out), "transform", rep, "M12", "0.0",
                         "1", "2+1i", "0", "-3"]) == 0
            d = json.loads(out.read_text())
            assert [parse_complex(z) for z in d["output"]] == [1, 2 + 1j, 0, -3]

    def test_rotation_norm_preserved(self, tmp_path):
        out = tmp_path / "t.json"
        assert main(["--output", str(out), "transform", "spin1", "M12",
                     str(np.pi / 2), "0", "1", "0", "0"]) == 0
        d = json.loads(out.read_text())
        got = np.array([parse_complex(z) for z in d["output"]])
        np.testing.assert_allclose(got, [0, 0, 1, 0], atol=1e-12)

    def test_unknown_generator_is_usage_error(self, capsys):
        assert main(["transform", "spin1", "M99", "1.0", "1", "0", "0", "0"]) == 2
        assert main(["transform", "spin1", "P0", "1.0", "1", "0", "0", "0"]) == 2
        # a superscript digit is an unknown label, not int()'s parse error
        capsys.readouterr()
        assert main(["transform", "spin1", "M0²", "1.0", "1", "0", "0", "0"]) == 2
        assert capsys.readouterr().err == ("error: unknown generator label 'M0²' "
                                           "(expected e.g. P0 or M01)\n")

    def test_csv_round_trip(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["--format", "csv", "--output", str(out), "transform",
                     "spin_half_plus", "M01", "0.77", "1", "0", "0", "0"]) == 0
        rows = list(csv.DictReader(out.open()))
        expected = half_flow_closed(Representation("spin_half_plus").angular_matrix(0, 1), 0.77)
        for r in rows:
            if r["section"] == "matrix":
                i, j = int(r["row"]), int(r["col"])
                assert float(r["re"]) == expected[i, j].real
                assert float(r["im"]) == expected[i, j].imag

    @pytest.mark.parametrize("kind", REPRESENTATION_KINDS)
    @pytest.mark.parametrize("label", ANGULAR_LABELS)
    def test_matrix_is_the_closed_form_flow(self, kind, label):
        # The flow of the label as given, for every kind.  expm, the oracle,
        # exponentiates the image itself.
        alpha, beta = int(label[1]), int(label[2])
        image = Representation(kind).angular_matrix(alpha, beta)
        for phi in (-1.7, 0.3, 2.5):
            code, out, _ = run_quiet(["transform", kind, label, repr(phi), "1", "0", "0", "0"])
            assert code == 0
            matrix = np.array([[parse_complex(z) for z in row] for row in json.loads(out)["matrix"]])
            closed = (rotation_flow_closed(alpha, beta, phi) if kind == "spin1"
                      else half_flow_closed(image, phi))
            np.testing.assert_array_equal(matrix, closed)
            oracle = exponential_flow(image, phi)
            assert np.abs(matrix - oracle).max() / max(1.0, np.abs(oracle).max()) < 5e-14

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_overflow_is_usage_error(self, fmt, to_file, tmp_path, capsys):
        # the library's message names phi as given, for a swapped label too
        out = tmp_path / f"t.{fmt}"
        flags = ["--output", str(out)] if to_file else []
        for label, phi, named in (("M01", "1e3", "1000"), ("M10", "-1e3", "-1000"),
                                  ("M10", "1e3", "1000")):
            assert main(["--format", fmt, *flags, "transform", "spin1", label, phi,
                         "1", "0", "0", "0"]) == 2
            assert not out.exists()
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: non-finite result at phi={named}: the flow "
                                    "overflows double precision; reduce phi\n")

    def test_overflow_of_the_image_vector_is_usage_error(self, capsys):
        # the flow matrix is finite, the image of a huge vector is not
        assert main(["transform", "spin1", "M01", "1.0", "1e308", "0", "0", "0"]) == 0
        capsys.readouterr()
        assert main(["transform", "spin1", "M01", "2.0", "1e308", "0", "0", "0"]) == 2
        assert capsys.readouterr().err == ("error: non-finite result at phi=2: the image "
                                           "overflows double precision; reduce phi or the "
                                           "components\n")

    @pytest.mark.parametrize("phi", ["inf", "nan"])
    def test_non_finite_phi_is_usage_error(self, phi, capsys):
        # the message of the closed flow, not of a check in the CLI
        assert main(["transform", "spin1", "M12", phi, "1", "0", "0", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: phi must be finite, got {phi}\n"


def run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


finite_complexes = st.complex_numbers(allow_nan=False, allow_infinity=False)


class TestCliProperties:
    @given(finite_complexes)
    @settings(max_examples=300)
    def test_parse_complex_inverts_format_complex(self, z):
        back = parse_complex(format_complex(z))
        assert back == z
        assert repr(back) == repr(z)  # signed zeros survive too

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(kind=st.sampled_from(REPRESENTATION_KINDS), label=st.sampled_from(ANGULAR_LABELS),
           phi=st.floats(min_value=-1e6, max_value=1e6),
           components=st.lists(finite_complexes, min_size=4, max_size=4),
           fmt=st.sampled_from(["json", "csv"]))
    @settings(max_examples=150, deadline=None)
    def test_transform_is_finite_or_usage_error(self, kind, label, phi, components, fmt):
        code, out, err = run_quiet(["--format", fmt, "transform", kind, label, repr(phi),
                                    *map(format_complex, components)])
        if code == 2:
            assert out == ""
            assert err.startswith("error: ")
            return
        assert code == 0
        if fmt == "json":
            d = strict_json(out)
            values = [parse_complex(z) for z in [*d["input"], *sum(d["matrix"], []), *d["output"]]]
            assert len(values) == 24
        else:
            rows = list(csv.DictReader(io.StringIO(out)))
            assert len(rows) == 24
            values = [complex(float(r["re"]), float(r["im"])) for r in rows]
        assert all(math.isfinite(z.real) and math.isfinite(z.imag) for z in values)


big_floats = st.floats(min_value=-1e300, max_value=1e300)


class TestEvolveProperties:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(e=st.lists(big_floats, min_size=3, max_size=3),
           b=st.lists(big_floats, min_size=3, max_size=3),
           p0=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4),
           tau_max=st.floats(min_value=1e-300, max_value=1e300),
           samples=st.integers(2, 4), compare=st.booleans(), fmt=st.sampled_from(["json", "csv"]))
    @settings(max_examples=150, deadline=None)
    # A tau-max within rounding of the float maximum overflows the tau grid
    # itself, before any evolution.
    @example(e=[1.0, 0.0, 0.0], b=[0.0, 0.0, 0.0], p0=[1.0, 0.0, 0.0, 0.0],
             tau_max=1.7976931348623157e308, samples=4, compare=False, fmt="json")
    @example(e=[1.0, 0.0, 0.0], b=[0.0, 0.0, 0.0], p0=[1.0, 0.0, 0.0, 0.0],
             tau_max=1.7976931348623157e308, samples=4, compare=True, fmt="csv")
    def test_evolve_is_finite_or_usage_error(self, e, b, p0, tau_max, samples, compare, fmt):
        argv = ["--format", fmt, "evolve", *map(repr, e + b + p0), repr(tau_max), str(samples)]
        if compare:
            argv += ["--compare", "--rk4-steps", "8"]
        code, out, err = run_quiet(argv)
        if code == 2:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            return
        assert code == 0
        if fmt == "json":
            rows = strict_json(out)["rows"]
            values = [v for row in rows for v in
                      [row["tau"], *row["p"], *row.get("p_num", []),
                       *[row[k] for k in ("dev", "shell_residual") if k in row]]]
        else:
            rows = list(csv.reader(io.StringIO(out)))[1:]
            values = [float(cell) for row in rows for cell in row]
        assert len(rows) == samples
        assert len(values) == samples * (11 if compare else 5)
        assert all(math.isfinite(v) for v in values)


class TestEvolveCommand:
    def test_zero_field_constant(self, tmp_path):
        out = tmp_path / "e.csv"
        assert main(["--format", "csv", "--output", str(out), "evolve",
                     "0", "0", "0", "0", "0", "0", "1", "0.5", "0", "0",
                     "2.0", "4"]) == 0
        rows = list(csv.DictReader(out.open()))
        assert [r["p0"] for r in rows] == ["1"] * 4
        assert [r["p1"] for r in rows] == ["0.5"] * 4

    def test_header_without_compare(self, tmp_path):
        out = tmp_path / "e.csv"
        main(["--format", "csv", "--output", str(out), "evolve",
              "1", "0", "0", "0", "0", "0", "1", "0", "0", "0", "1.0", "2"])
        header = out.read_text().splitlines()[0]
        assert header == "tau,p0,p1,p2,p3"

    def test_header_and_deviation_with_compare(self, tmp_path):
        out = tmp_path / "e.csv"
        assert main(["--format", "csv", "--output", str(out), "evolve",
                     "1", "0", "0", "0", "0", "0", "1", "0", "0", "0",
                     "2.0", "5", "--compare"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "tau,p0,p1,p2,p3,p0_num,p1_num,p2_num,p3_num,dev,shell_residual"
        rows = list(csv.DictReader(out.open()))
        assert all(float(r["dev"]) < 1e-8 for r in rows)
        assert all(float(r["shell_residual"]) < 1e-10 for r in rows)

    def test_csv_values_round_trip_exactly(self, tmp_path):
        out = tmp_path / "e.csv"
        main(["--format", "csv", "--output", str(out), "evolve",
              "0.3", "-0.2", "0.1", "0.4", "0.5", "-0.6", "1", "0.2", "0", "0",
              "3.0", "4"])
        rows = list(csv.DictReader(out.open()))
        f = EMField([0.3, -0.2, 0.1], [0.4, 0.5, -0.6])
        p0 = np.array([1.0, 0.2, 0.0, 0.0])
        for r in rows:
            expected = evolve_closed_form(f, p0, float(r["tau"]))
            got = np.array([float(r["p0"]), float(r["p1"]), float(r["p2"]),
                            float(r["p3"])])
            np.testing.assert_array_equal(got, expected)

    def test_null_field_polynomial_growth(self, tmp_path):
        out = tmp_path / "e.json"
        assert main(["--output", str(out), "evolve",
                     "1", "0", "0", "0", "1", "0", "1", "0", "0", "0",
                     "4.0", "5", "--compare"]) == 0
        d = json.loads(out.read_text())
        assert all(row["shell_residual"] < 1e-10 for row in d["rows"])
        # null invariant: momentum grows quadratically, p0(tau) = 1 + tau^2/2
        for row in d["rows"]:
            tau = row["tau"]
            assert row["p"][0] == pytest.approx(1 + tau ** 2 / 2, abs=1e-9)

    @pytest.mark.dispatch_pinned
    def test_compare_matches_pinned_scalar_rk4_output(self, tmp_path):
        # The fixture holds `--format csv evolve ... --compare` output of the
        # per-sample scalar RK4 loop (generic, null, pure-E and pure-B fields,
        # default 10 000 steps).  The closed-form columns must not move at
        # all; the batched oracle may differ in the last digits only.
        out = tmp_path / "e.csv"
        exact = ["tau", "p0", "p1", "p2", "p3", "shell_residual"]
        for case in json.loads(PINNED_EVOLVE.read_text()):
            assert main(["--format", "csv", "--output", str(out), "evolve",
                         *case["argv"], "--compare"]) == 0
            pinned = list(csv.DictReader(io.StringIO(case["csv"])))
            rows = list(csv.DictReader(out.open()))
            assert len(rows) == len(pinned)
            for got, want in zip(rows, pinned):
                assert [got[k] for k in exact] == [want[k] for k in exact]
                scale = max(1.0, *(abs(float(want[f"p{i}"])) for i in range(4)))
                for i in range(4):
                    key = f"p{i}_num"
                    assert abs(float(got[key]) - float(want[key])) <= 1e-14 * scale
            assert (max(float(r["dev"]) for r in rows)
                    <= 2.0 * max(float(r["dev"]) for r in pinned))

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("extra", [[], ["--compare"]])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_is_usage_error(self, fmt, extra, tmp_path, capsys):
        out = tmp_path / f"e.{fmt}"
        assert main(["--format", fmt, "--output", str(out), "evolve",
                     "1", "0", "0", "0", "0", "0", "1", "0", "0", "0",
                     "1500", "2", *extra]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: non-finite result at tau=1500")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rk4_overflow_names_the_first_tau(self, capsys):
        # under a pure B field the closed form stays bounded; RK4 with steps
        # of 5e75 does not
        assert main(["evolve", *"0 0 0 0 0 1 2 1 0 0 1e80 3".split(), "--compare"]) == 2
        assert capsys.readouterr().err == ("error: non-finite result at tau=5e+79: the momentum "
                                           "overflows double precision; reduce tau-max or the field\n")

    def test_unallocatable_samples_is_usage_error(self, capsys):
        # 10^13 samples fail at the first allocation, so nothing is allocated
        assert main(["evolve", *"1 0 0 0 0 0 1 0 0 0 2.0 10000000000000".split()]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: samples=10000000000000 do not fit in memory; "
                                "reduce samples\n")

    def test_large_finite_momentum_is_reported(self, capsys):
        # |p| ~ 5e303: finite, so the rows come out finite and parse strictly
        assert main(["evolve", "1", "0", "0", "0", "0", "0", "1", "0", "0", "0",
                     "700", "2", "--compare", "--rk4-steps", "2000"]) == 0
        rows = strict_json(capsys.readouterr().out)["rows"]
        last = rows[-1]
        assert last["p"][0] > 1e303
        assert all(math.isfinite(v) for v in [*last["p_num"], last["dev"]])
        assert last["shell_residual"] < 1e-10

    def test_huge_field_at_tiny_times(self, capsys):
        # z overflows, but tau |E| stays at most 1: the rows are a boost of p0
        assert main(["--format", "csv", "evolve", "1e200", "0", "0", "0", "0", "0",
                     "1", "0", "0", "0", "1e-200", "3"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[1] == ["0", "1", "0", "0", "0"]
        last = [float(v) for v in rows[3][1:]]
        assert last == pytest.approx([math.cosh(1.0), -math.sinh(1.0), 0.0, 0.0], rel=1e-15)

    def test_negative_exponent_arguments_are_numbers(self, tmp_path):
        out = tmp_path / "e.csv"
        assert main(["--format", "csv", "--output", str(out), "evolve",
                     "-4.0323547901399692e-05", "0", "0", "0", "0", "-1e-3",
                     "1", "-2.5e-07", "0", "0", "1.0", "2"]) == 0
        rows = list(csv.DictReader(out.open()))
        assert rows[0]["p1"] == "-2.4999999999999999e-07"
        assert main(["--output", str(out), "transform", "spin1", "M01", "-1e-05",
                     "1", "0", "0", "0"]) == 0

    def test_minus_i_component_is_a_number(self, capsys):
        # a lone -i (or -J) is the component -1j, not an unknown option
        assert main(["transform", "spin_half_plus", "M12", "0.4", "1", "2j", "i", "-i"]) == 0
        assert strict_json(capsys.readouterr().out)["input"] == [
            format_complex(z) for z in (1, 2j, 1j, complex(0, -1))]
        assert main(["transform", "spin1", "M12", "0.4", "1", "0", "0", "-J"]) == 0

    @pytest.mark.parametrize("argv, message", [
        (["transform", "spin1", "M12", "-inf", "1", "0", "0", "0"], "phi must be finite"),
        (["transform", "spin1", "M12", "1", "-Infinity", "0", "0", "0"],
         "phase vector coordinates must be finite"),
        (["evolve", "-NaN", "0", "0", "0", "0", "0", "1", "0", "0", "0", "1", "2"],
         "e components must be finite"),
        (["evolve", "1", "0", "0", "0", "0", "0", "1", "-nan", "0", "0", "1", "2"],
         "momentum components must be finite"),
        # and a plain nan, which gets the same message
        (["evolve", "1", "0", "0", "0", "0", "0", "nan", "0", "0", "0", "2.0", "9"],
         "momentum components must be finite"),
    ])
    def test_negative_non_finite_arguments_are_numbers(self, argv, message, capsys):
        # argparse must not read -inf or -nan as an option and blame a
        # missing argument; the library's check reports them
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1

    def test_bad_sample_count_is_usage_error(self):
        assert main(["evolve", "1", "0", "0", "0", "0", "0", "1", "0", "0", "0",
                     "1.0", "1"]) == 2

    def test_bad_tau_is_usage_error(self):
        assert main(["evolve", "1", "0", "0", "0", "0", "0", "1", "0", "0", "0",
                     "-1.0", "3"]) == 2


class TestNpDumpCommand:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("kind", ["plus", "minus"])
    def test_output_matches_pinned_bytes(self, kind, fmt, tmp_path):
        # the pinned JSON files are the output of `relphase np-dump` from
        # before the Pauli-block residuals moved into representations; the
        # CSV files were pinned when they gained the representation column
        out = tmp_path / f"np.{fmt}"
        assert main(["--format", fmt, "--output", str(out), "np-dump", f"spin_half_{kind}"]) == 0
        assert out.read_bytes() == (DATA / f"np_dump_{kind}.{fmt}").read_bytes()

    @pytest.mark.parametrize("rep", ["spin_half_plus", "spin_half_minus"])
    def test_blocks_within_tolerance(self, rep, tmp_path):
        out = tmp_path / "np.json"
        assert main(["--output", str(out), "np-dump", rep]) == 0
        d = json.loads(out.read_text())
        assert d["pass"] is True
        assert len(d["generators"]) == 6
        assert d["max_residual"] < 1e-12
        for g in d["generators"]:
            assert g["off_block_residual"] < 1e-12
            assert g["first_block_residual"] < 1e-12
            assert g["second_block_residual"] < 1e-12

    def test_minus_uses_conjugate_tetrad(self, tmp_path):
        out = tmp_path / "np.json"
        main(["--output", str(out), "np-dump", "spin_half_minus"])
        d = json.loads(out.read_text())
        assert d["tetrad"] == ["l", "mbar", "n", "m"]

    def test_csv_names_its_representation(self):
        # both kinds have the same labels and residuals; the first column
        # tells their CSVs apart
        plus, minus = (run_quiet(["--format", "csv", "np-dump", f"spin_half_{kind}"])[1]
                       for kind in ("plus", "minus"))
        assert plus != minus
        assert {row["representation"] for row in csv.DictReader(io.StringIO(minus))} == {
            "spin_half_minus"}

    def test_minus_matrices_conjugate_plus(self, tmp_path):
        out_p, out_m = tmp_path / "p.json", tmp_path / "m.json"
        main(["--output", str(out_p), "np-dump", "spin_half_plus"])
        main(["--output", str(out_m), "np-dump", "spin_half_minus"])
        dp = json.loads(out_p.read_text())
        dm = json.loads(out_m.read_text())
        for gp, gm in zip(dp["generators"], dm["generators"]):
            mp = np.array([[parse_complex(z) for z in row] for row in gp["matrix"]])
            mm = np.array([[parse_complex(z) for z in row] for row in gm["matrix"]])
            np.testing.assert_allclose(mm, np.conj(mp), atol=1e-14)


class TestPinnedOutput:
    @pytest.mark.dispatch_pinned
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_transform_and_evolve_match_pinned_bytes(self, fmt, tmp_path):
        # The fixture holds the output of `relphase --format FMT transform|evolve
        # ...`: transforms of all three kinds with a swapped label (M10) and
        # negative phi, taken from the closed-form flows, and evolve without
        # --compare, taken from before the commands shared one output path.
        # Files and stdout must carry the same bytes.  No entry carries a
        # -0.0; TestCliProperties::test_parse_complex_inverts_format_complex
        # covers signed zeros.
        out = tmp_path / "out"
        for case in json.loads(PINNED_OUTPUT.read_text()):
            assert main(["--format", fmt, "--output", str(out), *case["argv"]]) == 0
            assert out.read_bytes() == case[fmt].encode(), case["argv"]
            assert run_quiet(["--format", fmt, *case["argv"]])[:2] == (0, case[fmt])


class TestProcessInvocation:
    @pytest.mark.parametrize("code, loads", [
        ("import relphase", False),
        ("assert main(['evolve', *'1 0 0 0 0 0 1 0 0 0 2.0 9'.split(), '--compare']) == 0", False),
        ("assert main(['np-dump', 'spin_half_plus']) == 0", False),
        ("assert main(['transform', *'spin1 M10 0.5 1 0 0 0'.split()]) == 0", False),
        ("relphase.exponential_flow(relphase.d_basis(0, 1), 0.5)", True),
    ], ids=["import", "evolve", "np-dump", "transform", "exponential_flow"])
    def test_only_the_expm_oracle_loads_scipy(self, code, loads):
        # importing scipy costs more than the rest of a command's start-up
        prelude = "import sys\nimport relphase\nfrom relphase.cli import main\n"
        proc = subprocess.run([sys.executable, "-c", f"{prelude}{code}\nprint('scipy' in sys.modules)"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == str(loads)

    @staticmethod
    def first_expm_calls(setting, calls):
        """In a new process with OPENBLAS_NUM_THREADS unset or set to
        ``setting``, ``calls`` threads pass a barrier and each make the first
        exponential_flow call.  Returns what the threads raised, whether the
        environment is unchanged, and the thread count of each OpenBLAS in
        scipy.libs, read by its own getter."""
        code = textwrap.dedent(f"""\
        import ctypes, glob, json, os, threading
        from pathlib import Path
        from relphase import d_basis, exponential_flow, representations
        before = dict(os.environ)
        barrier, errors = threading.Barrier({calls}, timeout=60), []
        def first_call():
            barrier.wait()
            try:
                exponential_flow(d_basis(0, 1), 0.5)
            except BaseException as exc:
                errors.append(repr(exc))
        workers = [threading.Thread(target=first_call) for _ in range({calls})]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert not worker.is_alive()
        import scipy, scipy.linalg
        assert representations.expm is scipy.linalg.expm
        threads = []
        libs = Path(scipy.__file__).resolve().parent.parent / "scipy.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    threads.append(fn())
                    break
        print(json.dumps([errors, dict(os.environ) == before, threads]))
        """)
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if setting is not None:
            env["OPENBLAS_NUM_THREADS"] = setting
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    @pytest.mark.parametrize("setting", [None, "3"], ids=["unset", "set"])
    def test_expm_loads_scipy_openblas_with_one_thread(self, setting):
        # A second thread only contends for the CPU on the oracle's 4x4
        # products; the caller's environment comes back as it was.
        errors, unchanged, threads = self.first_expm_calls(setting, 1)
        assert not errors and unchanged and threads and set(threads) == {1}

    @pytest.mark.parametrize("setting", [None, "4"], ids=["unset", "set"])
    def test_racing_first_expm_calls_keep_the_environment(self, setting):
        # Without the loader's lock, threads that save the variable while
        # another holds it at 1 restore the 1, or delete it twice (KeyError).
        errors, unchanged, threads = self.first_expm_calls(setting, 4)
        assert not errors and unchanged and threads and set(threads) == {1}

    def test_verify_without_scipy_is_config_error(self):
        # a verification failure (exit 1) would blame the library for a
        # missing oracle
        code = ("import sys\nsys.modules['scipy'] = None\nfrom relphase.cli import main\n"
                "sys.exit(main(['verify']))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: verify needs scipy")
        assert proc.stderr.count("\n") == 1

    def test_module_entry_point(self):
        proc = run_cli(["--format", "csv", "np-dump", "spin_half_plus"])
        assert proc.returncode == 0
        assert proc.stdout.startswith("representation,generator,axis,kind,")

    def test_closed_stdout_pipe_is_config_error(self):
        # The read end is closed before the child starts, so every write
        # fails with EPIPE; a `| true` pipeline would be racy.
        read_end, write_end = os.pipe()
        os.close(read_end)
        with os.fdopen(write_end, "w") as stdout:
            proc = run_cli(["--format", "csv", "np-dump", "spin_half_plus"], stdout=stdout)
        assert (proc.returncode, proc.stderr) == (2, "error: cannot write to stdout: [Errno 32] "
                                                     "Broken pipe\n")

    def test_usage_error_exit_code(self):
        proc = run_cli(["transform", "spin1", "BAD", "1.0", "1", "0", "0", "0"])
        assert proc.returncode == 2

    def test_repeated_main_calls_match_fresh_processes(self, tmp_path):
        # One process runs an argparse usage error, --help, and then each
        # command with --output and again without it.  Each stdout and file
        # holds the bytes that the same call prints first in a fresh
        # process, an --output reaches no later call, and the parser is
        # built once.
        early = [["evolve", "1", "0"], ["--help"]]
        commands = [["evolve", *"1 0 0 0 0 0 1 0 0 0 2.0 9".split(), "--compare"],
                    ["transform", *"spin1 M10 0.5 1 0 0 0".split()],
                    ["np-dump", "spin_half_plus"], ["--format", "csv", "verify"]]
        calls = early + [argv for i, command in enumerate(commands)
                         for argv in (["--output", str(tmp_path / f"out{i}"), *command], command)]
        code = textwrap.dedent(f"""\
        import contextlib, io, json
        from relphase import cli
        results = []
        for argv in {calls!r}:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    status = cli.main(argv)
                except SystemExit as exc:
                    status = exc.code
            results.append([status, out.getvalue(), err.getvalue()])
        print(json.dumps([results, cli.build_parser.cache_info().misses]))
        """)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True)
        assert proc.returncode == 0, proc.stderr
        results, builds = json.loads(proc.stdout)
        assert builds == 1

        def fresh(argv):
            proc = subprocess.run([sys.executable, "-m", "relphase.cli", *argv], capture_output=True)
            return proc.returncode, proc.stdout, proc.stderr

        for argv, (status, out, err) in zip(early, results):
            assert (status, out.encode(), err.encode()) == fresh(argv), argv
        assert results[0][0] == 2 and results[0][2].startswith("usage: relphase evolve")
        assert results[1][0] == 0 and results[1][1].startswith("usage: relphase")
        for i, command in enumerate(commands):
            want_status, want_out, _ = fresh(command)
            (to_file, file_stdout, _), (status, out, _) = results[2 + 2 * i: 4 + 2 * i]
            assert want_status == 0 and want_out, command
            assert (to_file, file_stdout) == (0, ""), command
            assert (tmp_path / f"out{i}").read_bytes() == want_out, command
            assert (status, out.encode()) == (0, want_out), command

    def test_main_looks_up_its_command_on_each_call(self, monkeypatch):
        # A name rebound after the parser was built, as a tracer rebinds
        # every cmd_*, is the one that runs.
        assert run_quiet(["np-dump", "spin_half_plus"])[0] == 0
        monkeypatch.setattr(cli, "cmd_np_dump", lambda args: 7)
        assert main(["np-dump", "spin_half_plus"]) == 7
