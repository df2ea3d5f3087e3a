import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import gridfactor
from gridfactor import read_system
from gridfactor.cli import main
from gridfactor.sweep import LEDGER_SCHEMA, VERSION, read_ledger

from _oracles import read_mps


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

    def test_malformed_state_exit_2(self, runner, system_dir):
        result = runner.invoke(main, ["solve", str(system_dir), "--state", "f_07"])
        assert result.exit_code == 2

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
        import gridfactor.cli as cli_mod

        real = cli_mod.solve
        monkeypatch.setattr(
            cli_mod, "solve", lambda lp: dataclasses.replace(real(lp), status="infeasible")
        )
        args = [command, str(system_dir), "--state", "f_123456"]
        if command == "residual":
            args += ["--out", str(tmp_path / "residual")]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == "error: scenario f_123456 is infeasible\n"
        assert result.stdout == ""

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
        assert (tmp_path / "dec.csv").exists()
        assert (tmp_path / "dec.json").exists()

    @pytest.mark.parametrize("failed", [0, 2])
    def test_factorize_names_failed_state(self, runner, tmp_path, failed):
        states = ["f_3456", "f_13456", "f_23456", "f_123456"]
        entries = [
            {"state": name, "status": "optimal", "metrics": {"m": float(i)}}
            for i, name in enumerate(states)
        ]
        entries[failed].update(status="infeasible", metrics={})
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps({"factors": [1, 2], "entries": entries}))
        result = runner.invoke(main, ["factorize", str(path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # a handled error, no traceback
        assert f"scenario {states[failed]} did not solve: infeasible" in result.stderr

    def test_unknown_reference_exit_1(self, runner, system_dir, tmp_path):
        result = runner.invoke(
            main,
            ["sweep", str(system_dir), "--reference", "ZZ", "--out", str(tmp_path / "s")],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error: reference country ZZ not in spec" in result.stderr

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


def test_version_flag(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "gridfactor" in result.output


def test_package_version_matches_ledger_version():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text())["project"]["version"] == VERSION


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
    src = Path(gridfactor.__file__).resolve().parents[1]
    code = probe + (
        "\nimport json, sys"
        "\nprint(json.dumps(sorted(k for k in sys.modules if k.startswith('scipy'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


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


def test_import_leaves_scipy_linalg_unloaded():
    """The reference simplex's dense LU stays out of the start-up path."""
    src = Path(gridfactor.__file__).resolve().parents[1]
    probe = "import sys, gridfactor; print('scipy.linalg' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
