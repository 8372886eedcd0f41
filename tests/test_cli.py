"""End-to-end CLI tests through subprocess (stable exit-code contract)."""

import json
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lamesusy import verify
from lamesusy.susy import Family, PotentialSpec, v_plus_closed


def run_cli(*args):
    cmd = [sys.executable, "-m", "lamesusy", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


class TestElliptic:
    def test_reference_output(self):
        cp = run_cli("elliptic", "--x", "0", "--m", "0.5")
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout.strip() == (
            "sn=0.000000000000 cn=1.000000000000 dn=1.000000000000 K=1.854074677301"
        )

    def test_trigonometric_value(self):
        cp = run_cli("elliptic", "--x", "1.2", "--m", "0")
        assert cp.returncode == 0
        assert "sn=0.932039085967" in cp.stdout

    def test_domain_error_exit_code(self):
        cp = run_cli("elliptic", "--x", "1", "--m", "1.5")
        assert cp.returncode == 2
        assert "m must lie in [0, 1]" in cp.stderr
        # elliptic writes one line or json, no csv
        cp = run_cli("elliptic", "--x", "0.7", "--m", "0.3", "--format", "csv")
        assert cp.returncode == 2 and cp.stdout == ""
        # one float step of 1e300 spans many periods: no value, exit 2
        cp = run_cli("elliptic", "--x", "1e300", "--m", "0.5")
        assert cp.returncode == 2 and cp.stdout == ""
        assert "spans the period" in cp.stderr

    def test_json_format(self):
        cp = run_cli("elliptic", "--x", "0.3", "--m", "0.5", "--format", "json")
        payload = json.loads(cp.stdout)
        assert set(payload) == {"sn", "cn", "dn", "K"}


class TestPotential:
    def test_vplus_reference_row(self):
        cp = run_cli("potential", "-j", "2", "-m", "0.5", "--family", "vplus", "-n", "4")
        assert cp.returncode == 0, cp.stderr
        lines = cp.stdout.strip().splitlines()
        assert lines[0] == "x,value"
        assert len(lines) == 5
        assert lines[1] == "0.000000000000,1.267949192431"

    def test_superpotential_vanishes_at_m0(self):
        cp = run_cli("potential", "-j", "2", "-m", "0", "--family", "w", "-n", "8")
        values = [float(r.split(",")[1]) for r in cp.stdout.strip().splitlines()[1:]]
        assert values == [0.0] * 8

    def test_csv_round_trip(self, tmp_path: Path):
        out = tmp_path / "pot.csv"
        cp = run_cli("potential", "-j", "2", "-m", "0.5", "--family", "vplus",
                     "-n", "16", "-o", str(out))
        assert cp.returncode == 0
        rows = out.read_text().strip().splitlines()[1:]
        for row in rows:
            x, v = (float(t) for t in row.split(","))
            # both columns carry 12 decimals; re-evaluation at the rounded
            # x moves the value by at most |V'| * 5e-13
            assert v == pytest.approx(v_plus_closed(2, 0.5, x), abs=1e-11)

    def test_numeric_pipeline_deterministic(self):
        args = ("potential", "-j", "4", "-m", "0.5", "--family", "vplus",
                "--numeric", "-n", "256")
        a, b = run_cli(*args), run_cli(*args)
        assert a.returncode == 0, a.stderr
        assert a.stdout == b.stdout
        assert len(a.stdout.strip().splitlines()) == 257

    def test_numeric_route_is_the_pipeline_pair(self):
        cp = run_cli("potential", "-j", "4", "-m", "0.5", "--numeric", "-n", "64")
        assert cp.returncode == 0, cp.stderr
        rows = np.array([[float(t) for t in r.split(",")]
                         for r in cp.stdout.strip().splitlines()[1:]])
        pot = verify.partner_pair(4, 0.5, numeric=True)[0]
        xs = np.arange(64) * (pot.period / 64)
        assert np.max(np.abs(rows[:, 1] - pot(xs))) <= 1e-12

    def test_numeric_route_prints_the_partner_samples(self):
        # the grid partner's values are its FFT resample, digit for digit
        from lamesusy.cli import _fmt

        cp = run_cli("potential", "-j", "4", "-m", "0.5", "--family", "vplus",
                     "--numeric", "--precision", "17")
        assert cp.returncode == 0, cp.stderr
        values = [r.split(",")[1] for r in cp.stdout.strip().splitlines()[1:]]
        partner = verify.partner_pair(4, 0.5, numeric=True)[1]
        assert values == [_fmt(v, 17) for v in partner.sample(512)]

    def test_j4_without_numeric_flag_is_usage_error(self):
        cp = run_cli("potential", "-j", "4", "-m", "0.5", "--family", "vplus")
        assert cp.returncode == 2
        assert "--numeric" in cp.stderr
        for n in ("0", "-3"):
            cp = run_cli("potential", "-j", "2", "-m", "0.5", "-n", n)
            assert cp.returncode == 2 and cp.stdout == ""
            assert "--grid-n must be a positive integer" in cp.stderr

    def test_superpotential_beyond_j3_suggests_no_numeric_route(self):
        # --numeric builds vplus only, so w is not told to rerun with it
        for extra in ((), ("--numeric",)):
            cp = run_cli("potential", "-j", "4", "-m", "0.5", "--family", "w", *extra)
            assert cp.returncode == 2 and cp.stdout == ""
            assert "no numeric route" in cp.stderr and "rerun" not in cp.stderr
        cp = run_cli("potential", "-j", "2", "-m", "0.5", "--family", "w", "--numeric")
        assert cp.returncode == 2 and "no numeric route" in cp.stderr
        cp = run_cli("potential", "-j", "2", "-m", "0.5", "--family", "w", "-n", "4")
        assert cp.returncode == 0 and len(cp.stdout.splitlines()) == 5

    def test_json_and_table_formats(self, capsys):
        from lamesusy import cli

        args = ["potential", "-j", "2", "-m", "0.5", "--family", "vplus", "-n", "4"]
        assert cli.main(args + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 4
        assert payload[0] == {"x": 0.0, "value": 1.267949192431}
        assert cli.main(args + ["--format", "table", "--precision", "6"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # the one table layout: columns two spaces apart, as bands writes
        assert lines[0] == "x  value"
        assert lines[1] == "0.000000  1.267949"
        assert len(lines) == 5


class TestStates:
    def test_j2_state_columns(self):
        cp = run_cli("states", "-j", "2", "-m", "0.5", "-n", "0", "--grid-n", "8")
        lines = cp.stdout.strip().splitlines()
        assert lines[0] == "x,psi_minus,psi_plus"
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(2.366025403784, abs=1e-12)
        assert float(first[2]) == pytest.approx(0.422649730810, abs=1e-12)

    def test_j3_ground_state_has_one_column(self, capsys):
        from lamesusy import cli

        assert cli.main(["states", "-j", "3", "-m", "0.5", "-n", "0", "--grid-n", "8"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,psi_minus" and len(lines) == 9
        # dn (1 + 2m + delta1 - 5m sn^2) at x = 0, delta1 = sqrt(1 - m + 4m^2)
        assert lines[1] == f"0.000000000000,{2.0 + np.sqrt(1.5):.12f}"

    def test_j3_excited_state_is_usage_error(self):
        cp = run_cli("states", "-j", "3", "-m", "0.5", "-n", "1")
        assert cp.returncode == 2
        cp = run_cli("states", "-j", "2", "-m", "0.5", "-n", "0", "--grid-n", "0")
        assert cp.returncode == 2 and cp.stdout == ""
        assert "--grid-n must be a positive integer" in cp.stderr


class TestBands:
    def test_closed_form_reference_row(self):
        cp = run_cli("bands", "-j", "2", "-m", "0.5")
        lines = cp.stdout.strip().splitlines()
        assert len(lines) == 6
        row3 = lines[4].split()
        assert row3[0] == "3"
        assert row3[1] == "3.232050807569"
        assert row3[2] == "periodic"

    def test_both_shows_solver_agreement(self):
        cp = run_cli("bands", "-j", "2", "-m", "0.5", "--both")
        lines = cp.stdout.strip().splitlines()
        assert len(lines) == 6
        diffs = [float(r.split()[3]) for r in lines[1:]]
        assert max(diffs) <= 1e-6

    def test_free_limit_degeneracy(self):
        cp = run_cli("bands", "-j", "1", "-m", "0")
        energies = [float(r.split()[1]) for r in cp.stdout.strip().splitlines()[1:]]
        assert energies == pytest.approx([0.0, 1.0, 1.0], abs=1e-12)

    def test_json_format(self):
        cp = run_cli("bands", "-j", "1", "-m", "0.5", "--format", "json")
        payload = json.loads(cp.stdout)
        assert [e["n"] for e in payload] == [0, 1, 2]
        assert payload[0]["boundary"] == "periodic"
        assert payload[1]["energy"] == pytest.approx(0.5)

    def test_numeric_route_for_high_index(self):
        cp = run_cli("bands", "-j", "4", "-m", "0.5", "--family", "vplus",
                     "--numeric", "--count", "3")
        assert cp.returncode == 0, cp.stderr
        lines = cp.stdout.strip().splitlines()
        assert len(lines) == 4
        assert float(lines[1].split()[1]) == pytest.approx(0.0, abs=1e-6)

    def test_numeric_flag_honoured_for_closed_form_index(self, monkeypatch, capsys):
        # in process, to see which route serves j <= 3 under --numeric
        from lamesusy import bandsolver, cli

        calls = []
        partner = bandsolver.numeric_partner
        monkeypatch.setattr(bandsolver, "numeric_partner",
                            lambda V: calls.append(V.evaluator) or partner(V))
        assert cli.main(["bands", "-j", "2", "-m", "0.5", "--family", "vplus", "--numeric",
                         "--count", "3"]) == 0
        assert calls == [PotentialSpec(Family.V_MINUS, 2, 0.5)]
        energies = [float(r.split()[1]) for r in capsys.readouterr().out.strip().splitlines()[1:]]
        assert energies == pytest.approx([0.0, 0.2320508075688772, 1.7320508075688772],
                                         abs=1e-9)

    def test_numeric_partner_built_only_when_used(self, monkeypatch, capsys):
        # in process, to count partner builds; the side-by-side columns are
        # byte for byte those of the one-family tables
        from lamesusy import bandsolver, cli

        calls = []
        partner = bandsolver.numeric_partner
        monkeypatch.setattr(bandsolver, "numeric_partner",
                            lambda V, *a, **kw: calls.append(1) or partner(V, *a, **kw))
        args = ["bands", "-j", "4", "-m", "0.5", "--numeric", "--count", "3"]
        assert cli.main(args + ["--both"]) == 0
        assert len(calls) == 1
        both = [row.split()[1:3] for row in capsys.readouterr().out.splitlines()[1:]]
        columns = []
        for family in ("vminus", "vplus"):
            assert cli.main(args + ["--family", family]) == 0
            columns.append([row.split()[1] for row in capsys.readouterr().out.splitlines()[1:]])
        assert both == [list(row) for row in zip(*columns)]
        calls.clear()
        assert cli.main(["potential", "-j", "4", "-m", "0.5", "--numeric", "-n", "16"]) == 0
        assert calls == []

    def test_numeric_vminus_builds_no_partner(self, monkeypatch, capsys):
        # in process, to count solves: V- is the closed form for any j, so
        # --numeric changes nothing for it
        from lamesusy import bandsolver, cli

        calls = []
        for name in ("numeric_partner", "ground_energy"):
            solve = getattr(bandsolver, name)
            monkeypatch.setattr(bandsolver, name,
                                lambda V, _solve=solve: calls.append(1) or _solve(V))
        args = ["bands", "-j", "4", "-m", "0.5", "--count", "3"]
        assert cli.main(args + ["--numeric"]) == 0
        numeric = capsys.readouterr().out
        assert cli.main(args) == 0
        assert calls == []
        assert capsys.readouterr().out == numeric
        assert len(numeric.strip().splitlines()) == 4

    def test_high_index_without_numeric_is_usage_error(self):
        cp = run_cli("bands", "-j", "5", "-m", "0.5", "--family", "vplus")
        assert cp.returncode == 2
        assert "--numeric" in cp.stderr
        for count in ("-1", "0"):  # the catalogue route slices no edge list
            cp = run_cli("bands", "-j", "2", "-m", "0.5", "--count", count)
            assert cp.returncode == 2 and cp.stdout == ""
            assert "--count must be a positive integer" in cp.stderr

    def test_family_and_both_exclude_each_other(self):
        cp = run_cli("bands", "-j", "2", "-m", "0.5", "--family", "raw", "--both")
        assert cp.returncode == 2 and cp.stdout == ""
        assert "not allowed with argument --family" in cp.stderr

    def test_rounded_zero_has_no_sign(self, capsys):
        # in process; the numeric V+ ground edge of j = 1 here is -3.8e-14
        from lamesusy import cli

        args = ["bands", "-j", "1", "-m", "0.5", "--family", "vplus", "--numeric"]
        for fmt, sep in (("table", "  "), ("csv", ",")):
            assert cli.main(args + ["--format", fmt]) == 0
            rows = [r.split(sep) for r in capsys.readouterr().out.strip().splitlines()[1:]]
            assert len(rows) == 3
            assert rows[0][1] == "0.000000000000"
            assert not [f for row in rows for f in row
                        if f.startswith("-0.") and float(f) == 0.0]
        assert cli.main(args + ["--format", "json"]) == 0
        energy = json.loads(capsys.readouterr().out)[0]["energy"]
        assert energy == 0.0 and str(energy) == "0.0"

    def test_divergent_period_is_domain_error(self):
        # the catalogue route checks m as every other route does
        for extra in ((), ("--numeric",)):
            cp = run_cli("bands", "-j", "2", "-m", "1", *extra)
            assert cp.returncode == 2 and cp.stdout == ""
            assert "K diverges" in cp.stderr

    def test_numerical_failure_exit_code(self, monkeypatch, capsys):
        from lamesusy import bandsolver, cli
        from lamesusy.errors import NumericalError

        def fail(V, count):
            raise NumericalError("no edges")

        monkeypatch.setattr(bandsolver, "band_edges", fail)
        assert cli.main(["bands", "-j", "2", "-m", "0.5", "--family", "raw"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "numerical failure: no edges\n"


class TestVerify:
    def test_limits_scope_passes(self):
        cp = run_cli("verify", "--scope", "limits")
        assert cp.returncode == 0, cp.stdout + cp.stderr
        assert "claims passed" in cp.stdout

    def test_selfiso_scope_verdicts(self):
        cp = run_cli("verify", "--scope", "selfiso", "-m", "0.5", "--format", "json")
        assert cp.returncode == 0, cp.stdout + cp.stderr
        payload = json.loads(cp.stdout)
        by_id = {r["claim_id"]: r for r in payload}
        assert by_id["selfiso/j=1/m=0.5/self_isospectral"]["context"]["verdict"] == "self_isospectral"
        assert by_id["selfiso/j=2/m=0.5/distinct_partner"]["context"]["verdict"] == "distinct"
        assert by_id["selfiso/j=3/m=0.5/distinct_partner"]["context"]["verdict"] == "distinct"

    def test_edgestates_scope_output_file(self, tmp_path: Path):
        out = tmp_path / "claims.json"
        cp = run_cli("verify", "--scope", "edgestates", "-m", "0.5",
                     "--format", "json", "-o", str(out))
        assert cp.returncode == 0
        payload = json.loads(out.read_text())
        assert len(payload) >= 15
        assert all(r["passed"] for r in payload)

    def test_repeated_modulus_counts_once(self):
        cp = run_cli("verify", "--scope", "edgestates", "-m", "0.5", "-m", "0.5",
                     "--format", "json")
        assert cp.returncode == 0, cp.stdout + cp.stderr
        ids = [r["claim_id"] for r in json.loads(cp.stdout)]
        assert len(ids) == 20 and len(set(ids)) == 20

    def test_failed_claim_writes_strict_json(self, monkeypatch, capsys):
        # a claim failed by exception measures inf, which RFC 8259 has no
        # number for: it is written as a string, as nan and -inf are
        from lamesusy import bandsolver, cli
        from lamesusy.errors import NumericalError

        def fail(V, count):
            raise NumericalError("no edges")

        def strict(constant):
            raise ValueError(f"{constant} is not JSON")

        monkeypatch.setattr(bandsolver, "band_edges", fail)
        assert cli.main(["verify", "--scope", "iso", "-m", "0.5", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out, parse_constant=strict)
        assert [(r["measured"], r["passed"]) for r in payload] == [("inf", False)] * 5
        reports = [verify.claim("x", value, 1.0) for value in (-np.inf, np.nan)]
        payload = json.loads(verify.reports_to_json(reports), parse_constant=strict)
        assert [r["measured"] for r in payload] == ["-inf", "nan"]

    def test_bad_modulus_usage_error(self):
        cp = run_cli("verify", "--scope", "limits", "-m", "1.0")
        assert cp.returncode == 2
        # verify writes a table or json only, and no number at a precision
        for option in (("--format", "csv"), ("--precision", "4")):
            cp = run_cli("verify", "--scope", "limits", *option)
            assert cp.returncode == 2 and cp.stdout == ""


class TestDeterminism:
    def test_identical_invocations_byte_identical(self):
        args = ("bands", "-j", "2", "-m", "0.5", "--both")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_precision_flag(self):
        cp = run_cli("elliptic", "--x", "0", "--m", "0.5", "--precision", "4")
        assert "K=1.8541" in cp.stdout
        cp = run_cli("elliptic", "--x", "0", "--m", "0.5", "--precision", "20")
        assert cp.returncode == 2


def readme_cli_lines():
    """The commands of the README's ``## CLI`` block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("lamesusy ")]


@pytest.mark.parametrize("line", [
    line for line in readme_cli_lines()
    if "verify --scope all" not in line  # the release job; test_acceptance runs it
])
def test_readme_cli_line_runs(line, capsys):
    from lamesusy import cli

    assert cli.main(shlex.split(line, comments=True)[1:]) == 0
    assert capsys.readouterr().out
