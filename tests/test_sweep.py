import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import gridfactor.sweep as sweep_mod
from gridfactor.harmonize import enumerate_subset_states
from gridfactor.serialize import read_system
from gridfactor.solve import SolveOptions
from gridfactor.sweep import (
    LEDGER_SCHEMA,
    RunManifest,
    SweepError,
    compare_interconnection,
    decompositions_from_ledger,
    ledger_comparison_bytes,
    resume,
    run_sweep,
)

OPTIONS = SolveOptions(method="highs")


def synthetic_ledger(factors=(1, 2, 3, 4, 5, 6)):
    """One optimal entry per state; metrics ``mask`` (additive) and ``const``."""
    entries = [
        {"state": s.name, "status": "optimal", "metrics": {"mask": float(s.mask), "const": 1.0}}
        for s in enumerate_subset_states(factors)
    ]
    return {"factors": list(factors), "entries": entries}


@pytest.fixture
def manifest(system_dir, tmp_path):
    return RunManifest(
        system_manifest=str(system_dir),
        reference_country="AA",
        out_dir=str(tmp_path / "out"),
        factors=(1, 2),
        solver=OPTIONS,
    )


class TestRunSweep:
    def test_reduced_manifest_counts(self, manifest):
        ledger = run_sweep(manifest)
        assert len(ledger["entries"]) == 4
        names = [e["state"] for e in ledger["entries"]]
        assert names == ["f_3456", "f_13456", "f_23456", "f_123456"]
        assert all(e["status"] == "optimal" for e in ledger["entries"])

    def test_outputs_exist(self, manifest):
        run_sweep(manifest)
        out = Path(manifest.out_dir)
        assert (out / "ledger.json").exists()
        assert (out / "decomposition.csv").exists()
        assert (out / "decomposition.json").exists()
        assert (out / "reference_shares.json").exists()
        assert len(list((out / "states").glob("*.csv"))) == 4

    def test_ledger_metrics_match_persisted_solutions(self, manifest, small_spec):
        ledger = run_sweep(manifest)
        short_ids = {
            t.id for t in small_spec.technologies if t.duration_class == "short"
        }
        for entry in ledger["entries"]:
            total = 0.0
            with open(Path(manifest.out_dir) / "states" / f"{entry['state']}.csv") as fh:
                for row in csv.DictReader(fh):
                    if row["family"] == "cap_energy" and row["technology"] in short_ids:
                        total += float(row["value"])
            assert total == pytest.approx(
                entry["metrics"]["short_duration_energy_mwh"], rel=1e-12, abs=1e-9
            )

    def test_determinism_across_runs_and_parallelism(self, system_dir, tmp_path):
        ledgers = []
        mps = []
        for i, workers in enumerate((1, 1, 2)):
            m = RunManifest(
                system_manifest=str(system_dir),
                reference_country="AA",
                out_dir=str(tmp_path / f"out{i}"),
                factors=(1, 2),
                solver=OPTIONS,
                workers=workers,
                export_mps=True,
            )
            ledgers.append(ledger_comparison_bytes(run_sweep(m)))
            mps.append(
                {
                    p.name: p.read_bytes()
                    for p in sorted((Path(m.out_dir) / "mps").glob("*.mps"))
                }
            )
        assert ledgers[0] == ledgers[1] == ledgers[2]
        assert mps[0] == mps[1] == mps[2]

    def test_entries_carry_certificates(self, manifest):
        ledger = run_sweep(manifest)
        for entry in ledger["entries"]:
            cert = entry["certificate"]
            assert cert["ok"] is True
            assert 0.0 <= cert["primal_residual"] <= 1e-6
            assert cert["duality_gap"] >= 0.0

    def test_failed_certificate_fails_the_sweep(self, manifest, monkeypatch):
        real = sweep_mod.verify_certificate

        def failing(lp, result):
            return dataclasses.replace(real(lp, result), ok=False)

        monkeypatch.setattr(sweep_mod, "verify_certificate", failing)
        with pytest.raises(SweepError, match="certificate"):
            run_sweep(manifest)
        ledger = json.loads((Path(manifest.out_dir) / "ledger.json").read_text())
        assert [e["certificate"]["ok"] for e in ledger["entries"]] == [False] * 4

    def test_manifest_validation(self, system_dir, tmp_path):
        with pytest.raises(SweepError, match="parallelism"):
            RunManifest(
                system_manifest=str(system_dir),
                reference_country="AA",
                out_dir=str(tmp_path),
                workers=0,
            )
        with pytest.raises(SweepError, match="not found"):
            RunManifest(
                system_manifest=str(tmp_path / "nope.json"),
                reference_country="AA",
                out_dir=str(tmp_path),
            )
        with pytest.raises(SweepError, match="factor subset"):
            RunManifest(
                system_manifest=str(system_dir),
                reference_country="AA",
                out_dir=str(tmp_path),
                factors=(1, 9),
            )


class TestBlockReuse:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_reuse_does_not_change_outputs(self, system_dir, tmp_path, monkeypatch, workers):
        def sweep(label):
            m = RunManifest(
                system_manifest=str(system_dir),
                reference_country="AA",
                out_dir=str(tmp_path / label),
                factors=(1, 2),
                solver=OPTIONS,
                workers=workers,
            )
            ledger = run_sweep(m)
            out = Path(m.out_dir)
            states = {
                p.stem: json.loads(p.read_text()) for p in (out / "states").glob("*.json")
            }
            outputs = [
                ledger_comparison_bytes(ledger),
                (out / "decomposition.csv").read_bytes(),
                (out / "reference_shares.json").read_bytes(),
            ]
            return outputs, ledger, states

        reusing, ledger, states = sweep("reuse")
        assert sweep_mod._REUSE == {}
        blocks = {name: s["blocks"] for name, s in states.items()}
        assert blocks == {"f_3456": 2, "f_13456": 1, "f_23456": 2, "f_123456": 1}
        # f_23456's AA block is the LP of the reference solve
        assert states["f_23456"]["reused_blocks"] >= 1
        assert all("blocks" not in e and "reused_blocks" not in e for e in ledger["entries"])

        class Forgetful(dict):
            def get(self, key, default=None):
                return default

        monkeypatch.setattr(sweep_mod, "_REUSE", Forgetful())
        solving, _, states = sweep("solve")
        assert all(s["reused_blocks"] == 0 for s in states.values())
        assert reusing == solving


class TestResume:
    def test_only_missing_states_solved(self, manifest, monkeypatch):
        ledger = run_sweep(manifest)
        # drop one state's artifacts and its ledger entry
        victim = "f_13456"
        for suffix in (".csv", ".json"):
            (Path(manifest.out_dir) / "states" / f"{victim}{suffix}").unlink()
        ledger["entries"] = [e for e in ledger["entries"] if e["state"] != victim]
        ledger_path = Path(manifest.out_dir) / "ledger.json"
        ledger_path.write_text(json.dumps(ledger, indent=2, sort_keys=True))

        calls = []
        original = sweep_mod._run_state

        def counting(payload):
            calls.append(payload[2])
            return original(payload)

        monkeypatch.setattr(sweep_mod, "_run_state", counting)
        resumed = resume(manifest, ledger_path)
        assert calls == [victim]
        assert len(resumed["entries"]) == 4

    def test_states_reuse_the_parent_system(self, manifest, monkeypatch):
        calls = []
        original = sweep_mod.read_system

        def counting(path):
            calls.append(path)
            return original(path)

        monkeypatch.setattr(sweep_mod, "read_system", counting)
        run_sweep(manifest)
        assert calls == [manifest.system_manifest]

    def test_resume_of_complete_ledger_solves_nothing(self, manifest, monkeypatch):
        first = run_sweep(manifest)
        monkeypatch.setattr(
            sweep_mod, "_run_state", lambda payload: pytest.fail("re-solved a state")
        )
        resumed = resume(manifest, Path(manifest.out_dir) / "ledger.json")
        assert ledger_comparison_bytes(resumed) == ledger_comparison_bytes(first)

    def test_uncertified_state_is_solved_again(self, manifest, monkeypatch):
        ledger = run_sweep(manifest)
        victim = "f_23456"
        for entry in ledger["entries"]:
            if entry["state"] == victim:
                entry["certificate"]["ok"] = False
        ledger_path = Path(manifest.out_dir) / "ledger.json"
        ledger_path.write_text(json.dumps(ledger, indent=2, sort_keys=True))

        calls = []
        original = sweep_mod._run_state

        def counting(payload):
            calls.append(payload[2])
            return original(payload)

        monkeypatch.setattr(sweep_mod, "_run_state", counting)
        resumed = resume(manifest, ledger_path)
        assert calls == [victim]
        assert all(e["certificate"]["ok"] for e in resumed["entries"])

    def test_other_ledger_schema_refused(self, manifest):
        ledger = run_sweep(manifest)
        assert ledger["schema"] == LEDGER_SCHEMA == "gridfactor-ledger/3"
        ledger["schema"] = "gridfactor-ledger/2"
        for entry in ledger["entries"]:
            del entry["utilization"]
        ledger_path = Path(manifest.out_dir) / "ledger.json"
        ledger_path.write_text(json.dumps(ledger, indent=2, sort_keys=True))
        with pytest.raises(SweepError, match="schema"):
            resume(manifest, ledger_path)

    def test_tampered_manifest_refused(self, manifest, system_dir, tmp_path):
        run_sweep(manifest)
        tampered = RunManifest(
            system_manifest=str(system_dir),
            reference_country="AB",
            out_dir=manifest.out_dir,
            factors=(1, 2),
            solver=OPTIONS,
        )
        with pytest.raises(SweepError, match="hash"):
            resume(tampered, Path(manifest.out_dir) / "ledger.json")

    def test_workers_do_not_change_manifest_hash(self, manifest):
        other = RunManifest(
            system_manifest=manifest.system_manifest,
            reference_country="AA",
            out_dir=manifest.out_dir,
            factors=(1, 2),
            solver=OPTIONS,
            workers=8,
        )
        assert other.digest() == manifest.digest()


class TestCompareInterconnection:
    def test_report_shape_and_bounds(self, manifest, small_spec):
        run_sweep(manifest)
        report = compare_interconnection(manifest)
        for metric, row in report["metrics"].items():
            assert row["absolute_reduction"] == pytest.approx(
                row["isolated"] - row["interconnected"], rel=1e-12, abs=1e-9
            )
        assert set(report["per_country"]) == {"AA", "AB"}
        for value in report["utilization"].values():
            assert 0.0 <= value <= 1.0 + 1e-9

    def test_utilization_matches_solution_csv(self, manifest):
        """The ledger's utilization equals mean |flow| / NTC read back from f_123456's CSV."""
        run_sweep(manifest)
        ntc = {
            f"{l.from_country}-{l.to_country}": l.ntc
            for l in read_system(manifest.system_manifest).interconnectors
        }
        flows = {link: [] for link in ntc}
        with open(Path(manifest.out_dir) / "states" / "f_123456.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                if row["family"] == "flow" and row["country"] in flows:
                    flows[row["country"]].append(abs(float(row["value"])))
        expected = {
            link: float(np.mean(values) / ntc[link])
            for link, values in sorted(flows.items())
            if values and ntc[link] > 0
        }
        assert expected
        assert compare_interconnection(manifest)["utilization"] == expected

    def test_missing_state_rejected(self, manifest):
        run_sweep(manifest)
        (Path(manifest.out_dir) / "ledger.json").write_text(
            json.dumps({"entries": [], "factors": [1, 2]})
        )
        with pytest.raises(SweepError, match="comparison needs"):
            compare_interconnection(manifest)


class TestDecompositionsFromLedger:
    def test_identity_on_real_sweep(self, manifest):
        ledger = run_sweep(manifest)
        for d in decompositions_from_ledger(ledger):
            assert d.identity_residual() <= 1e-9
            assert d.factors == (1, 2)

    def test_empty_ledger_rejected(self):
        with pytest.raises(SweepError, match="empty"):
            decompositions_from_ledger({"factors": [1, 2], "entries": []})

    def test_failed_state_named(self):
        ledger = synthetic_ledger()
        for entry in ledger["entries"]:
            if entry["state"] == "f_25":
                entry["status"], entry["metrics"] = "infeasible", {}
        with pytest.raises(SweepError, match="f_25"):
            decompositions_from_ledger(ledger)

    def test_failed_first_state_named(self):
        ledger = synthetic_ledger()
        ledger["entries"][0].update(status="numerical", metrics={})
        with pytest.raises(SweepError, match="f_0"):
            decompositions_from_ledger(ledger)

    def test_missing_state_named(self):
        ledger = synthetic_ledger()
        ledger["entries"] = [e for e in ledger["entries"] if e["state"] != "f_135"]
        with pytest.raises(SweepError, match="f_135"):
            decompositions_from_ledger(ledger)

    def test_repeated_state_named(self):
        ledger = synthetic_ledger(factors=(1, 2))
        ledger["entries"].append(dict(ledger["entries"][1]))
        with pytest.raises(SweepError, match="f_13456 twice"):
            decompositions_from_ledger(ledger)

    def test_state_missing_a_metric_named(self):
        ledger = synthetic_ledger()
        del ledger["entries"][9]["metrics"]["const"]
        name = ledger["entries"][9]["state"]
        with pytest.raises(SweepError, match=f"scenario {name} has metrics"):
            decompositions_from_ledger(ledger)

    def test_full_set_decomposes(self):
        decomps = decompositions_from_ledger(synthetic_ledger())
        by_name = {d.metric: d for d in decomps}
        assert by_name["const"].degenerate
        # mask metric is additive in the factors: INT = weight of factor 1
        assert by_name["mask"].int_value == 1.0
        assert by_name["mask"].baseline == 1.0
        assert all(abs(v) < 1e-12 for v in by_name["mask"].totals.values())
