import csv
import dataclasses
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import gridfactor
from gridfactor import enumerate_subset_states, read_system
from gridfactor.cli import main
from gridfactor.sweep import ENTRY_METRICS, LEDGER_SCHEMA, VERSION, read_ledger

from _oracles import read_mps
from conftest import ledger_comparison_bytes, run_fresh


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def wind_dir(tmp_path):
    """Single-country wind-only system on disk (all states solvable alone)."""
    from gridfactor import write_system
    from conftest import wind_only_spec

    spec = wind_only_spec([3.0, 1.0, 2.0, 1.0], [0.5, 1.0, 0.5, 1.0])
    return str(write_system(spec, tmp_path / "wind"))


class TestValidate:
    def test_clean_system(self, runner, system_dir):
        result = runner.invoke(main, ["validate", str(system_dir)])
        assert result.exit_code == 0
        assert result.output.strip() == "ok"

    def test_broken_system_exit_1(self, runner, system_dir, small_spec, tmp_path):
        # corrupt one capacity-factor file so a cf exceeds 1
        doc = json.loads(Path(system_dir).read_text())
        cf_file = Path(system_dir).parent / doc["series"]["capacity_factors"]["wind_onshore"]
        lines = cf_file.read_text().splitlines()
        header, first = lines[0], lines[1].split(",")
        first[1] = "3.5"
        cf_file.write_text("\n".join([header, ",".join(first)] + lines[2:]) + "\n")

        result = runner.invoke(main, ["validate", str(system_dir)])
        assert result.exit_code == 1
        assert "capacity factor" in result.stderr

    def test_missing_file_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["validate", str(tmp_path / "no.json")])
        assert result.exit_code == 2

    def test_missing_horizon_exit_1(self, runner, system_dir):
        doc = json.loads(Path(system_dir).read_text())
        del doc["horizon"]
        Path(system_dir).write_text(json.dumps(doc))
        result = runner.invoke(main, ["validate", str(system_dir)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # a handled error, no traceback
        assert "error: missing keys in manifest: ['horizon']" in result.stderr

    def test_malformed_series_row_exit_1(self, runner, system_dir):
        doc = json.loads(Path(system_dir).read_text())
        load_file = Path(system_dir).parent / doc["series"]["load"]
        lines = load_file.read_text().splitlines()
        lines[4] = "3,abc," + lines[4].split(",", 2)[2]
        load_file.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["validate", str(system_dir)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"error: {load_file}, line 5: could not convert" in result.stderr

    def test_non_finite_series_value_exit_1(self, runner, system_dir):
        cf_file = Path(system_dir).parent / "cf_solar_pv.csv"
        lines = cf_file.read_text().splitlines()
        lines[13] = "12,nan," + lines[13].split(",", 2)[2]
        cf_file.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["validate", str(system_dir)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"error: {cf_file}, line 14: value 'nan' is not finite" in result.stderr

    def test_missing_series_file_exit_1(self, runner, system_dir):
        load_file = Path(system_dir).parent / "load.csv"
        load_file.unlink()
        result = runner.invoke(main, ["validate", str(system_dir)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"missing series files ['{load_file}']" in result.stderr

    def test_horizon_below_one_exit_1(self, runner, system_dir):
        """``horizon`` 0 with header-only series is refused before a series is read."""
        doc = json.loads(Path(system_dir).read_text())
        doc["horizon"] = 0
        Path(system_dir).write_text(json.dumps(doc))
        for path in Path(system_dir).parent.glob("*.csv"):
            path.write_text(path.read_text().splitlines()[0] + "\n")
        result = runner.invoke(main, ["validate", str(system_dir)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # a handled error, no traceback
        assert "error: horizon must be at least 1, got 0" in result.stderr

    def test_reservoir_without_inflow_exit_1(self, runner, system_dir):
        """``validate`` names the country whose reservoir has no inflow series."""
        doc = json.loads(Path(system_dir).read_text())
        del doc["series"]["reservoir_inflow"]
        Path(system_dir).write_text(json.dumps(doc))
        result = runner.invoke(main, ["validate", str(system_dir)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "country AA: missing inflow series for reservoir reservoir" in result.stderr

    def test_expandable_storage_without_charge_cost_exit_1(self, runner, system_dir):
        """``validate`` refuses the zero overnight cost that ``assemble`` would."""
        doc = json.loads(Path(system_dir).read_text())
        (tech,) = [t for t in doc["technologies"] if t["id"] == "lithium_ion"]
        assert tech["expandable"]
        tech["overnight_cost_charge"] = 0
        Path(system_dir).write_text(json.dumps(doc))
        result = runner.invoke(main, ["validate", str(system_dir)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        message = "technology lithium_ion: expandable, so overnight_cost_charge must be > 0"
        assert message in result.stderr

    def test_wind_group_without_profiles_exit_1(self, runner, system_dir):
        """Harmonizing wind copies capacity-factor profiles, which only a VRE has."""
        doc = json.loads(Path(system_dir).read_text())
        (tech,) = [t for t in doc["technologies"] if t["id"] == "bioenergy"]
        tech["factor_group"] = "wind"
        Path(system_dir).write_text(json.dumps(doc))
        for args in (["validate"], ["solve", "--state", "f_1", "--reference", "AA"]):
            result = runner.invoke(main, [args[0], str(system_dir), *args[1:]])
            assert result.exit_code == 1
            assert isinstance(result.exception, SystemExit)
            message = "technology bioenergy: factor_group wind needs a variable-renewable kind"
            assert message in result.stderr

    @pytest.mark.parametrize(
        "column,message",
        [("ZZ", "load (ZZ): unknown country"), ("", "column 4 has no name")],
        ids=["unknown", "unnamed"],
    )
    def test_load_column_of_no_country_exit_1(self, runner, system_dir, column, message):
        load_file = Path(system_dir).parent / "load.csv"
        lines = load_file.read_text().splitlines()
        lines = [f"{lines[0]},{column}"] + [f"{line},1.0" for line in lines[1:]]
        load_file.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["validate", str(system_dir)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # a handled error, no traceback
        assert message in result.stderr

    @pytest.mark.parametrize(
        "series,message",
        [
            (5, "series entry must be an object, got 5"),
            ({"load": 5}, "series entry: load must be a string, got 5"),
        ],
    )
    def test_malformed_series_entry_exit_1(self, runner, system_dir, series, message):
        doc = json.loads(Path(system_dir).read_text())
        doc["series"] = series
        Path(system_dir).write_text(json.dumps(doc))
        result = runner.invoke(main, ["validate", str(system_dir)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # a handled error, no traceback
        assert f"error: {message}" in result.stderr

    @pytest.mark.parametrize(
        "table,key,literal,message",
        [
            ("interconnectors", "ntc", "NaN", "interconnector entry 0: ntc"),
            ("exogenous_capacities", "energy", "Infinity", "exogenous capacity entry 0: energy"),
            (None, "annuity_rate", "-Infinity", "annuity_rate"),
        ],
    )
    def test_non_finite_manifest_number_exit_1(
        self, runner, system_dir, table, key, literal, message
    ):
        doc = json.loads(Path(system_dir).read_text())
        (doc[table][0] if table else doc)[key] = float(literal)
        Path(system_dir).write_text(json.dumps(doc))  # writes the literal NaN or Infinity
        result = runner.invoke(main, ["validate", str(system_dir)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # a handled error, no traceback
        assert f"error: {message} must be finite, got {float(literal)!r}" in result.stderr

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("annuity_rate", -0.5, "annuity_rate must be >= 0, got -0.5"),
            (
                "offshore_overrides",
                [["AA", 100], ["AA", 900]],
                "offshore override for AA is given more than once",
            ),
        ],
        ids=["negative-rate", "repeated-override"],
    )
    def test_refused_value_exit_1(self, runner, system_dir, key, value, message):
        doc = json.loads(Path(system_dir).read_text())
        doc[key] = value
        Path(system_dir).write_text(json.dumps(doc))
        result = runner.invoke(main, ["validate", str(system_dir)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # a handled error, no traceback
        assert message in result.stderr

    def test_every_violation_is_named(self, runner, system_dir):
        doc = json.loads(Path(system_dir).read_text())
        doc["annuity_rate"] = -0.5
        doc["offshore_overrides"] = [["AA", 100], ["AB", 5], ["AA", 900], ["AB", 5]]
        Path(system_dir).write_text(json.dumps(doc))
        result = runner.invoke(main, ["validate", str(system_dir)])
        assert result.exit_code == 1
        assert "annuity_rate must be >= 0, got -0.5" in result.stderr
        for code in ("AA", "AB"):
            assert f"offshore override for {code} is given more than once" in result.stderr


def test_solve_refuses_a_negative_annuity_rate(runner, tmp_path):
    """A negative rate ends ``solve`` in an ``error:`` line, not an annuity traceback."""
    from gridfactor import synthesize_system, write_system

    spec = synthesize_system(seed=1, n_countries=2, horizon=24, correlation=-0.8)
    # ``write_system`` refuses such a spec, so the rate goes into the written manifest
    manifest = write_system(spec, tmp_path / "neg")
    doc = json.loads(manifest.read_text())
    doc["annuity_rate"] = -0.5
    manifest.write_text(json.dumps(doc))
    result = runner.invoke(main, ["solve", str(manifest)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "error:" in result.stderr
    assert "annuity_rate must be >= 0, got -0.5" in result.stderr


@pytest.fixture
def invalid_system_dir(tmp_path):
    """The seed-7 2x168 system with bioenergy ``efficiency_out`` -0.5."""
    from gridfactor import synthesize_system, write_system

    spec = synthesize_system(seed=7, n_countries=2, horizon=168, correlation=-0.8)
    # ``write_system`` refuses such a spec, so the value goes into the written manifest
    manifest = write_system(spec, tmp_path / "bad")
    doc = json.loads(manifest.read_text())
    for tech in doc["technologies"]:
        if tech["id"] == "bioenergy":
            tech["efficiency_out"] = -0.5
    manifest.write_text(json.dumps(doc))
    return manifest


@pytest.mark.parametrize(
    "command,options",
    [
        ("validate", []),
        ("solve", []),
        ("sweep", ["--reference", "AA", "--out"]),
        ("residual", ["--out"]),
        ("export-lp", ["--out"]),
    ],
)
def test_commands_refuse_an_invalid_system(
    runner, invalid_system_dir, tmp_path, command, options
):
    out = [str(tmp_path / "out")] if options else []
    result = runner.invoke(main, [command, str(invalid_system_dir), *options, *out])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # a handled error, no traceback
    assert "technology bioenergy: efficiency_out out of (0, 1]" in result.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command,option",
    [("solve", "--out"), ("solve", "--mps-out"), ("export-lp", "--out"), ("factorize", "--out")],
)
def test_output_in_a_missing_directory_exit_1(runner, system_dir, tmp_path, command, option):
    source = system_dir
    if command == "factorize":
        source = tmp_path / "ledger.json"
        entries = [
            {
                "state": s.name,
                "status": "optimal",
                "certificate": {"ok": True},
                "metrics": dict.fromkeys(ENTRY_METRICS, 1.0),
            }
            for s in enumerate_subset_states((1, 2))
        ]
        source.write_text(json.dumps({"factors": [1, 2], "entries": entries}))
    result = runner.invoke(main, [command, str(source), option, str(tmp_path / "nodir" / "x")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # a handled error, no traceback
    assert "error: [Errno 2] No such file or directory" in result.stderr
    assert str(tmp_path / "nodir") in result.stderr


class TestSolve:
    def test_native_state(self, runner, system_dir, tmp_path):
        out = tmp_path / "solution.csv"
        result = runner.invoke(
            main,
            ["solve", str(system_dir), "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert "state f_123456: objective" in result.output
        assert "long_duration_energy_mwh" in result.output
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert {r["family"] for r in rows} >= {"cap_power", "gen"}

    def test_malformed_state_exit_2(self, runner, system_dir, tmp_path):
        for command, bad in itertools.product(("solve", "residual", "export-lp"), ("f_07", "f_21")):
            out = ["--out", str(tmp_path / command)]
            result = runner.invoke(main, [command, str(system_dir), "--state", bad, *out])
            assert result.exit_code == 2
            assert f"Invalid value for '--state': malformed factor state '{bad}'" in result.stderr
            help_text = runner.invoke(main, [command, "--help"]).output
            assert re.search(r"--state FACTOR-STATE +\[default: f_", help_text)

    def test_harmonized_state_requires_reference(self, runner, system_dir):
        result = runner.invoke(main, ["solve", str(system_dir), "--state", "f_0"])
        assert result.exit_code == 2
        assert "--reference is required" in result.output + result.stderr

    def test_unknown_reference_exit_1(self, runner, system_dir):
        result = runner.invoke(
            main, ["solve", str(system_dir), "--state", "f_1", "--reference", "ZZ"]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # a handled error, no traceback
        assert "error: reference country ZZ not in spec" in result.stderr

    @pytest.mark.parametrize("command", ["solve", "residual"])
    def test_non_optimal_state_exit_1(self, runner, system_dir, tmp_path, monkeypatch, command):
        import gridfactor.solve as solve_mod

        real = solve_mod.solve
        monkeypatch.setattr(
            solve_mod,
            "solve",
            lambda lp, options: dataclasses.replace(real(lp, options), status="infeasible"),
        )
        args = [command, str(system_dir), "--state", "f_123456"]
        if command == "residual":
            args += ["--out", str(tmp_path / "residual")]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == "error: scenario f_123456 is infeasible\n"
        assert result.stdout == ""

    @pytest.mark.parametrize("command", ["solve", "residual"])
    def test_uncertified_state_exit_1(self, runner, system_dir, tmp_path, monkeypatch, command):
        import gridfactor.solve as solve_mod

        real = solve_mod.verify_certificate
        monkeypatch.setattr(
            solve_mod,
            "verify_certificate",
            lambda lp, result: dataclasses.replace(real(lp, result), ok=False),
        )
        args = [command, str(system_dir), "--state", "f_123456"]
        if command == "residual":
            args += ["--out", str(tmp_path / "residual")]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == (
            "error: scenario f_123456 failed the optimality certificate check\n"
        )
        assert result.stdout == ""
        assert not (tmp_path / "residual").exists()

    def test_fully_harmonized_state(self, runner, system_dir):
        result = runner.invoke(
            main,
            [
                "solve",
                str(system_dir),
                "--state",
                "f_0",
                "--reference",
                "AA",
            ],
        )
        assert result.exit_code == 0, result.output


class TestSweepAndFactorize:
    def test_reduced_sweep_then_factorize(self, runner, system_dir, tmp_path):
        out_dir = tmp_path / "sweep"
        result = runner.invoke(
            main,
            [
                "sweep",
                str(system_dir),
                "--reference",
                "AA",
                "--out",
                str(out_dir),
                "--factors",
                "interconnection,wind",
            ],
        )
        assert result.exit_code == 0, result.output
        assert "sweep complete: 4 states" in result.output
        ledger = read_ledger(out_dir / "ledger.json")
        assert [e["state"] for e in ledger["entries"]] == [
            "f_3456",
            "f_13456",
            "f_23456",
            "f_123456",
        ]
        assert (out_dir / "interconnection_report.json").exists()

        fact = runner.invoke(
            main,
            ["factorize", str(out_dir / "ledger.json"), "--out", str(tmp_path / "dec")],
        )
        assert fact.exit_code == 0, fact.output
        assert "objective_eur: INT" in fact.output
        for suffix in (".csv", ".json"):
            written = (tmp_path / f"dec{suffix}").read_bytes()
            assert written == (out_dir / f"decomposition{suffix}").read_bytes()

    @pytest.mark.parametrize("failed", [0, 2])
    def test_factorize_names_failed_state(self, runner, tmp_path, failed):
        states = ["f_3456", "f_13456", "f_23456", "f_123456"]
        entries = [
            {
                "state": name,
                "status": "optimal",
                "certificate": {"ok": True},
                "metrics": dict.fromkeys(ENTRY_METRICS, float(i)),
            }
            for i, name in enumerate(states)
        ]
        entries[failed].update(status="infeasible", certificate=None, metrics={})
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps({"factors": [1, 2], "entries": entries}))
        result = runner.invoke(main, ["factorize", str(path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # a handled error, no traceback
        assert result.stderr == (
            f"error: scenario {states[failed]} did not solve to optimality: infeasible\n"
        )

    def test_factorize_names_every_failed_state(self, runner, tmp_path):
        """One error names each failed or uncertified state with its status, in ledger order."""
        states = ["f_3456", "f_13456", "f_23456", "f_123456"]
        entries = [
            {
                "state": name,
                "status": "optimal",
                "certificate": {"ok": True},
                "metrics": dict.fromkeys(ENTRY_METRICS, float(i)),
            }
            for i, name in enumerate(states)
        ]
        entries[0].update(status="numerical", certificate=None, metrics={})
        entries[2]["certificate"]["ok"] = False
        entries[3].update(status="iteration-limit", certificate=None, metrics={})
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps({"factors": [1, 2], "entries": entries}))
        result = runner.invoke(main, ["factorize", str(path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == (
            "error: scenario f_3456 did not solve to optimality: numerical; "
            "scenario f_23456 failed the optimality certificate check; "
            "scenario f_123456 did not solve to optimality: iteration-limit\n"
        )

    @pytest.mark.parametrize("text", ["{not json", "[]"], ids=["not-json", "not-object"])
    @pytest.mark.parametrize("command", ["factorize", "resume"])
    def test_broken_ledger_exit_1(self, runner, system_dir, tmp_path, command, text):
        ledger = tmp_path / "run" / "ledger.json"
        ledger.parent.mkdir()
        ledger.write_text(text)
        run = ["sweep", str(system_dir), "--reference", "AA", "--out", str(ledger.parent)]
        args = ["factorize", str(ledger)] if command == "factorize" else [*run, "--resume"]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # a handled error, no traceback
        assert f"error: ledger {ledger} is not" in result.stderr

    @pytest.mark.parametrize("command", ["factorize", "resume"])
    def test_ledger_without_factors_exit_1(self, runner, system_dir, tmp_path, command):
        result = self.run_on_ledger(runner, system_dir, tmp_path, command, {})
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # a handled error, no traceback
        assert "factors must be a list of distinct integers in 1..6" in result.stderr

    @pytest.mark.parametrize("command", ["factorize", "resume"])
    def test_ledger_entry_without_state_exit_1(self, runner, system_dir, tmp_path, command):
        doc = {"factors": [1, 2], "entries": [5]}
        result = self.run_on_ledger(runner, system_dir, tmp_path, command, doc)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "entries must be a list of objects, each with a string state" in result.stderr

    @pytest.mark.parametrize(
        "fields,timing,message",
        [
            ({}, {}, "entry f_3456: status must be a string"),
            ({"metrics": {}}, {}, "entry f_3456: status must be a string"),
            (
                {"status": "optimal", "certificate": {"ok": 1}, "metrics": {}},
                {},
                "entry f_3456: certificate must be null or an object with a boolean ok",
            ),
            (
                {"status": "optimal", "certificate": None, "metrics": {"energy": "x"}},
                {},
                "entry f_3456: metrics must be an object of finite numbers",
            ),
            (
                {"status": "optimal", "certificate": None, "metrics": {"energy": float("nan")}},
                {},
                "entry f_3456: metrics must be an object of finite numbers",
            ),
            (
                {"status": "optimal", "certificate": None},
                {},
                "entry f_3456: metrics must be an object of finite numbers",
            ),
            (
                {"status": "optimal", "certificate": {"ok": True}, "metrics": {}},
                {},
                "entry f_3456: optimal, but its metrics lack short_duration_energy_mwh",
            ),
            (
                {"status": "optimal", "certificate": None, "metrics": {}},
                [],
                "timing must be an object of numbers",
            ),
            (
                {"status": "optimal", "certificate": None, "metrics": {}},
                {"f_3456": "1"},
                "timing must be an object of numbers",
            ),
        ],
        ids=[
            "no-status",
            "no-status-empty-metrics",
            "integer-ok",
            "string-metric",
            "nan-metric",
            "no-metrics",
            "optimal-without-metrics",
            "timing-list",
            "string-timing",
        ],
    )
    @pytest.mark.parametrize("command", ["factorize", "resume"])
    def test_malformed_ledger_entry_exit_1(
        self, runner, system_dir, tmp_path, command, fields, timing, message
    ):
        """Each entry's status, certificate and metrics, and the timing, are checked on read.

        An optimal entry must carry every ledger metric; a failed one carries none.
        """
        doc = {"factors": [1, 2], "entries": [{"state": "f_3456", **fields}], "timing": timing}
        result = self.run_on_ledger(runner, system_dir, tmp_path, command, doc)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # a handled error, no traceback
        assert message in result.stderr

    @staticmethod
    def run_on_ledger(runner, system_dir, tmp_path, command, doc):
        """``factorize`` or ``sweep --resume`` on a ledger holding ``doc``."""
        ledger = tmp_path / "run" / "ledger.json"
        ledger.parent.mkdir()
        ledger.write_text(json.dumps(doc))
        run = ["sweep", str(system_dir), "--reference", "AA", "--out", str(ledger.parent)]
        args = ["factorize", str(ledger)] if command == "factorize" else [*run, "--resume"]
        return runner.invoke(main, args)

    def test_factorize_refuses_an_uncertified_state(
        self, runner, system_dir, tmp_path, monkeypatch
    ):
        """A sweep whose certificates fail still writes its ledger; nothing decomposes it."""
        import gridfactor.sweep as sweep_mod

        real = sweep_mod.verify_certificate
        monkeypatch.setattr(
            sweep_mod,
            "verify_certificate",
            lambda lp, result: dataclasses.replace(real(lp, result), ok=False),
        )
        out_dir = tmp_path / "sweep"
        args = ["sweep", str(system_dir), "--reference", "AA", "--out", str(out_dir)]
        assert runner.invoke(main, [*args, "--factors", "1,2"]).exit_code == 1
        result = runner.invoke(main, ["factorize", str(out_dir / "ledger.json")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "scenario f_3456 failed the optimality certificate check" in result.stderr

    def test_unknown_reference_exit_1(self, runner, system_dir, tmp_path):
        result = runner.invoke(
            main,
            ["sweep", str(system_dir), "--reference", "ZZ", "--out", str(tmp_path / "s")],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error: reference country ZZ not in spec" in result.stderr
        assert not (tmp_path / "s").exists()

    def test_factors_without_interconnection_exit_1(self, runner, system_dir, tmp_path):
        out_dir = tmp_path / "sweep"
        result = runner.invoke(
            main,
            [
                "sweep",
                str(system_dir),
                "--reference",
                "AA",
                "--out",
                str(out_dir),
                "--factors",
                "2,3",
            ],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "must include 1 (interconnection)" in result.stderr
        assert not (out_dir / "ledger.json").exists()

    @pytest.mark.parametrize("factor", ["7", "0"])
    def test_out_of_range_factor_exit_2(self, runner, system_dir, tmp_path, factor):
        out_dir = tmp_path / "sweep"
        result = runner.invoke(
            main,
            ["sweep", str(system_dir), "--reference", "AA", "--out", str(out_dir)]
            + ["--factors", f"1,{factor}"],
        )
        assert result.exit_code == 2
        assert f"unknown factor '{factor}'" in result.stderr
        assert not out_dir.exists()

    def test_resume_flag_requires_ledger(self, runner, system_dir, tmp_path):
        result = runner.invoke(
            main,
            [
                "sweep",
                str(system_dir),
                "--reference",
                "AA",
                "--out",
                str(tmp_path / "fresh"),
                "--factors",
                "1,2",
                "--resume",
            ],
        )
        assert result.exit_code == 2

    def test_resume_with_unreadable_records(self, runner, system_dir, tmp_path):
        """Cut and non-object state records are solved again, with no traceback."""
        out_dir = tmp_path / "run"
        run = ["sweep", str(system_dir), "--reference", "AA", "--out", str(out_dir)]
        assert runner.invoke(main, [*run, "--factors", "1,3"]).exit_code == 0
        fresh = ledger_comparison_bytes(read_ledger(out_dir / "ledger.json"))
        for name in ("f_2456", "f_123456"):  # a parent and a leaf
            record = out_dir / "states" / f"{name}.json"
            record.write_text(record.read_text()[:100])
        (out_dir / "states" / "f_12456.json").write_text("[]")
        result = runner.invoke(main, [*run, "--factors", "1,3", "--resume"])
        assert result.exit_code == 0, result.output
        assert result.exception is None
        assert "sweep complete: 4 states" in result.output
        for name in ("f_2456", "f_12456", "f_123456"):
            assert json.loads((out_dir / "states" / f"{name}.json").read_text())["state"] == name
        assert ledger_comparison_bytes(read_ledger(out_dir / "ledger.json")) == fresh

    @pytest.mark.parametrize("extra", [[], ["--resume"]], ids=["fresh", "resume"])
    def test_manifest_without_series_exit_1(self, runner, system_dir, tmp_path, extra):
        doc = json.loads(Path(system_dir).read_text())
        del doc["series"]
        Path(system_dir).write_text(json.dumps(doc))
        out_dir = tmp_path / "run"
        out_dir.mkdir()
        (out_dir / "ledger.json").write_text(json.dumps({"schema": LEDGER_SCHEMA}))
        result = runner.invoke(
            main,
            ["sweep", str(system_dir), "--reference", "AA", "--out", str(out_dir), *extra],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error: missing keys in manifest: ['series']" in result.stderr

    def test_resume_with_missing_series_file_exit_1(self, runner, system_dir, tmp_path):
        (Path(system_dir).parent / "load.csv").unlink()
        out_dir = tmp_path / "run"
        out_dir.mkdir()
        (out_dir / "ledger.json").write_text(json.dumps({"schema": LEDGER_SCHEMA}))
        result = runner.invoke(
            main,
            ["sweep", str(system_dir), "--reference", "AA", "--out", str(out_dir), "--resume"],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error: " in result.stderr and "missing series files" in result.stderr


class TestResidual:
    def test_outputs_and_coincidence_inequality(self, runner, system_dir, tmp_path):
        out_dir = tmp_path / "res"
        result = runner.invoke(
            main,
            [
                "residual",
                str(system_dir),
                "--out",
                str(out_dir),
            ],
        )
        assert result.exit_code == 0, result.output
        assert (out_dir / "events.csv").exists()
        assert (out_dir / "peak_cross_section.csv").exists()
        doc = json.loads((out_dir / "coincidence.json").read_text())
        assert doc["source_state"] == "f_23456"
        assert doc["system_peak_mwh"] <= doc["sum_of_country_peaks_mwh"] + 1e-9

    def test_saturated_system_empty_events(self, runner, wind_dir, tmp_path):
        out_dir = tmp_path / "res"
        result = runner.invoke(
            main,
            ["residual", wind_dir, "--out", str(out_dir)],
        )
        assert result.exit_code == 0, result.output
        lines = (out_dir / "events.csv").read_text().splitlines()
        # the optimum covers every hour, so only the header remains
        assert len(lines) == 1
        assert lines[0].startswith("country,")

    def test_exclusion(self, runner, system_dir, tmp_path):
        out_dir = tmp_path / "res"
        result = runner.invoke(
            main,
            [
                "residual",
                str(system_dir),
                "--out",
                str(out_dir),
                "--exclude",
                "AA,AB",
            ],
        )
        assert result.exit_code == 0, result.output
        assert len((out_dir / "events.csv").read_text().splitlines()) == 1

    def test_unknown_exclusion_exit_2(self, runner, system_dir, tmp_path):
        out_dir = tmp_path / "res"
        result = runner.invoke(
            main,
            ["residual", str(system_dir), "--out", str(out_dir), "--exclude", "AA,ZZ, AX"],
        )
        assert result.exit_code == 2
        assert "--exclude names no country of the system: ['AX', 'ZZ']" in result.stderr
        assert not out_dir.exists()


class TestSynthesize:
    def test_reproducible_across_invocations(self, runner, tmp_path):
        digests = []
        for name in ("a", "b"):
            out = tmp_path / name
            result = runner.invoke(
                main,
                [
                    "synthesize",
                    "--seed",
                    "3",
                    "--countries",
                    "2",
                    "--horizon",
                    "48",
                    "--out",
                    str(out),
                ],
            )
            assert result.exit_code == 0, result.output
            digests.append(
                {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            )
        assert digests[0] == digests[1]

    def test_output_loads_back(self, runner, tmp_path):
        out = tmp_path / "sys"
        result = runner.invoke(
            main,
            ["synthesize", "--seed", "1", "--horizon", "24", "--out", str(out)],
        )
        spec = read_system(result.output.strip())
        assert spec.time_series.horizon == 24
        assert len(spec.countries) == 2

    @pytest.mark.parametrize("countries", ["0", "677"])
    def test_country_count_out_of_range_exit_2(self, runner, tmp_path, countries):
        out = tmp_path / "x"
        result = runner.invoke(main, ["synthesize", "--countries", countries, "--out", str(out)])
        assert result.exit_code == 2
        assert "Invalid value for '--countries'" in result.stderr
        assert "1<=x<=676" in result.stderr
        assert not out.exists()

    def test_bad_correlation_exit_2(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["synthesize", "--correlation", "2.0", "--out", str(tmp_path / "x")],
        )
        assert result.exit_code == 2


class TestExportLp:
    def test_round_trips_through_reader(self, runner, system_dir, tmp_path):
        out = tmp_path / "model.mps"
        result = runner.invoke(main, ["export-lp", str(system_dir), "--out", str(out)])
        assert result.exit_code == 0, result.output
        lp = read_mps(out)
        assert lp.n_cols > 0 and lp.n_rows > 0
        assert np.isfinite(lp.c).all()

    @pytest.mark.parametrize("name", ["model.lp", "model"])
    def test_writes_mps_whatever_the_extension(self, runner, system_dir, tmp_path, name):
        out = tmp_path / name
        result = runner.invoke(main, ["export-lp", str(system_dir), "--out", str(out)])
        assert result.exit_code == 0, result.output
        text = out.read_text()
        assert text.startswith("NAME") and text.endswith("ENDATA\n")

    def test_matches_the_sweep_export(self, runner, system_dir, tmp_path):
        """``sweep --export-mps`` and ``solve --mps-out`` write an LP as ``export-lp`` does."""
        out_dir = tmp_path / "sweep"
        args = ["sweep", str(system_dir), "--reference", "AA", "--out", str(out_dir)]
        result = runner.invoke(main, [*args, "--factors", "1,3", "--export-mps"])
        assert result.exit_code == 0, result.output
        states = sorted(s.name for s in enumerate_subset_states((1, 3)))
        assert sorted(p.stem for p in (out_dir / "mps").iterdir()) == states
        for name in states:
            single = tmp_path / f"{name}.mps"
            argv = ["export-lp", str(system_dir), "--state", name, "--reference", "AA"]
            result = runner.invoke(main, [*argv, "--out", str(single)])
            assert result.exit_code == 0, result.output
            assert single.read_bytes() == (out_dir / "mps" / f"{name}.mps").read_bytes()
            solved = tmp_path / f"{name}.solved.mps"
            argv = ["solve", str(system_dir), "--state", name, "--reference", "AA"]
            result = runner.invoke(main, [*argv, "--mps-out", str(solved)])
            assert result.exit_code == 0, result.output
            assert solved.read_bytes() == single.read_bytes()


def test_version_flag(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "gridfactor" in result.output


def test_package_version_matches_ledger_version(runner):
    """``pyproject.toml``, ``__version__`` and ``--version`` state the ledger's version."""
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = pyproject.split("[project]", 1)[1].split("\n[", 1)[0]
    (version,) = re.findall(r'^version\s*=\s*"([^"]+)"', project, flags=re.M)
    assert version == gridfactor.__version__ == VERSION
    result = runner.invoke(main, ["--version"])
    assert result.output == f"gridfactor, version {VERSION}\n"


@pytest.mark.parametrize(
    "command,options",
    [("solve", []), ("sweep", ["--reference", "AA", "--out"]), ("residual", ["--out"])],
)
def test_method_flag_is_gone(runner, system_dir, tmp_path, command, options):
    out = [str(tmp_path / "out")] if options else []
    argv = [command, str(system_dir), *options, *out, "--method", "highs"]
    result = runner.invoke(main, argv)
    assert result.exit_code == 2
    assert "No such option '--method'" in result.stderr


def _scipy_modules_after(probe: str) -> list[str]:
    """The ``scipy*`` modules a fresh interpreter holds after running ``probe``."""
    code = probe + (
        "\nimport json, sys"
        "\nprint(json.dumps(sorted(k for k in sys.modules if k.startswith('scipy'))))"
    )
    return json.loads(run_fresh(code).splitlines()[-1])


class TestStartUpLoadsNoScipy:
    """Commands that build no LP never import scipy."""

    def test_import_read_validate_and_synthesize(self, system_dir):
        probe = (
            "import gridfactor, gridfactor.cli\n"
            "from gridfactor import read_system, synthesize_system, validate\n"
            f"assert validate(read_system({str(system_dir)!r})) == []\n"
            "synthesize_system(seed=3, n_countries=2, horizon=24)"
        )
        assert _scipy_modules_after(probe) == []

    def test_factorize_a_finished_ledger(self, runner, system_dir, tmp_path):
        out_dir = tmp_path / "sweep"
        args = ["sweep", str(system_dir), "--reference", "AA", "--out", str(out_dir)]
        result = runner.invoke(main, [*args, "--factors", "interconnection,wind"])
        assert result.exit_code == 0, result.output
        probe = (
            "from gridfactor.cli import main\n"
            f"main(['factorize', {str(out_dir / 'ledger.json')!r}], standalone_mode=False)"
        )
        assert _scipy_modules_after(probe) == []


# the two extensions a solve loads from their files; loading the HiGHS
# binding registers submodules under its name too
_EXTENSIONS = ("scipy.optimize._highspy._core", "scipy.sparse._sparsetools")
# modules no solve loads, nor any module under them but those extensions
_NOT_LOADED_BY_SOLVES = (
    "scipy.optimize",
    "scipy.linalg",
    "scipy.sparse",
)


class TestSolvingLoadsOnlyTheBinding:
    """A solve loads scipy's HiGHS binding and sparse kernels, but no scipy package."""

    @staticmethod
    def assert_binding_only(modules: list[str]):
        assert set(_EXTENSIONS) <= set(modules)
        assert [m for m in modules if m.startswith(_NOT_LOADED_BY_SOLVES)] == [
            m for m in modules if m.startswith(_EXTENSIONS)
        ]

    def test_solve_an_assembled_lp_of_blocks(self):
        probe = (
            "from gridfactor import assemble, synthesize_system\n"
            "from gridfactor.solve import solve\n"
            "from gridfactor.harmonize import FactorState, apply_factor_state\n"
            "spec = synthesize_system(seed=3, n_countries=2, horizon=24)\n"
            "lp, _ = assemble(apply_factor_state(spec, FactorState.parse('f_23456'), None))\n"
            "assert solve(lp).blocks == 2"
        )
        self.assert_binding_only(_scipy_modules_after(probe))

    def test_gridfactor_solve(self, wind_dir):
        probe = (
            "from gridfactor.cli import main\n"
            f"main(['solve', {str(wind_dir)!r}], standalone_mode=False)"
        )
        self.assert_binding_only(_scipy_modules_after(probe))

    @pytest.mark.parametrize("command", ["residual", "export-lp"])
    def test_gridfactor_residual_and_export_lp(self, system_dir, tmp_path, command):
        out = tmp_path / ("events" if command == "residual" else "lp.mps")
        probe = (
            "from gridfactor.cli import main\n"
            f"main([{command!r}, {str(system_dir)!r}, '--out', {str(out)!r}],"
            " standalone_mode=False)"
        )
        self.assert_binding_only(_scipy_modules_after(probe))
        assert out.exists()

    def test_gridfactor_sweep_on_two_workers(self, system_dir, tmp_path):
        """The sweep's process and each worker process it forks."""
        log = tmp_path / "workers.jsonl"
        args = ["sweep", str(system_dir), "--reference", "AA", "--out", str(tmp_path / "sweep")]
        probe = (
            "import json, os, sys\n"
            "import gridfactor.sweep as sweep\n"
            "from gridfactor.cli import main\n"
            "run_state = sweep._run_state\n"
            "def recorded(*args):\n"
            "    outcome = run_state(*args)\n"
            "    modules = sorted(k for k in sys.modules if k.startswith('scipy'))\n"
            f"    with open({str(log)!r}, 'a') as fh:\n"
            "        fh.write(json.dumps([os.getpid(), modules]) + '\\n')\n"
            "    return outcome\n"
            "sweep._run_state = recorded\n"
            "print(os.getpid())\n"
            f"main({[*args, '--factors', 'interconnection,wind', '--workers', '2']!r},"
            " standalone_mode=False)"
        )
        code = probe + (
            "\nprint(json.dumps(sorted(k for k in sys.modules if k.startswith('scipy'))))"
        )
        out = run_fresh(code).splitlines()
        self.assert_binding_only(json.loads(out[-1]))
        workers = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(workers) == 4 and str(workers[0][0]) != out[0]
        for _, modules in workers:
            self.assert_binding_only(modules)


def test_import_leaves_scipy_linalg_unloaded():
    """The reference simplex's dense LU stays out of the start-up path."""
    out = run_fresh("import sys, gridfactor; print('scipy.linalg' in sys.modules)")
    assert out.strip() == "False"
