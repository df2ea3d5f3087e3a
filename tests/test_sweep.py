import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import gridfactor.sweep as sweep_mod
from gridfactor import write_system
from gridfactor.harmonize import enumerate_subset_states
from gridfactor.sweep import (
    LEDGER_SCHEMA,
    RunManifest,
    SweepError,
    compare_interconnection,
    decompositions_from_ledger,
    ledger_comparison_bytes,
    resume,
    run_sweep,
    warm_parents,
)


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


def sweep_outputs(system_dir, out_dir, factors, workers):
    """Run a sweep; its comparable outputs, ledger and ``states/*.json``."""
    m = RunManifest(
        system_manifest=str(system_dir),
        reference_country="AA",
        out_dir=str(out_dir),
        factors=factors,
        workers=workers,
    )
    ledger = run_sweep(m)
    out = Path(m.out_dir)
    states = {
        p.name.removesuffix(".json"): json.loads(p.read_text())
        for p in (out / "states").glob("*.json")
    }
    outputs = [
        ledger_comparison_bytes(ledger),
        (out / "decomposition.csv").read_bytes(),
        (out / "reference_shares.json").read_bytes(),
    ]
    return outputs, ledger, states


class Forgetful(dict):
    """A reuse dict that never answers."""

    def get(self, key, default=None):
        return default


class TestBlockReuse:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_reuse_does_not_change_outputs(self, system_dir, tmp_path, monkeypatch, workers):
        reusing, ledger, states = sweep_outputs(system_dir, tmp_path / "reuse", (1, 2), workers)
        assert sweep_mod._REUSE == {}
        blocks = {name: s["blocks"] for name, s in states.items()}
        assert blocks == {"f_3456": 2, "f_13456": 1, "f_23456": 2, "f_123456": 1}
        # f_23456's AA block is the LP of the reference solve
        assert states["f_23456"]["reused_blocks"] >= 1
        assert all("blocks" not in e and "reused_blocks" not in e for e in ledger["entries"])

        monkeypatch.setattr(sweep_mod, "_REUSE", Forgetful())
        solving, _, states = sweep_outputs(system_dir, tmp_path / "solve", (1, 2), workers)
        assert all(s["reused_blocks"] == 0 for s in states.values())
        assert reusing == solving

    @pytest.mark.parametrize("workers", [1, 2])
    def test_reuse_does_not_change_warm_outputs(self, system_dir, tmp_path, monkeypatch, workers):
        reusing, _, states = sweep_outputs(system_dir, tmp_path / "reuse", (1, 3, 4), workers)
        assert sweep_mod._REUSE == {}
        assert sum(s["warm_from"] is not None for s in states.values()) == 7
        # f_256's AA block is the reference LP, and f_2456 and f_23456 solve
        # one AA block from one start by the dual simplex
        assert sum(s["reused_blocks"] for s in states.values()) >= 1

        monkeypatch.setattr(sweep_mod, "_REUSE", Forgetful())
        solving, _, states = sweep_outputs(system_dir, tmp_path / "solve", (1, 3, 4), workers)
        assert all(s["reused_blocks"] == 0 for s in states.values())
        assert reusing == solving


class TestWarmStarts:
    def test_parent_rule_by_name(self):
        parents = warm_parents((1, 2, 3, 4, 5, 6))
        assert len(parents) == 64
        assert parents["f_1346"] == "f_134"
        assert parents["f_123456"] == "f_12345"
        assert parents["f_13"] == "f_1"
        # then hydro, then interconnection; wind is never dropped
        assert parents["f_125"] == "f_12"
        assert parents["f_12"] == "f_2"
        assert parents["f_1"] == "f_0"
        roots = sorted(name for name, parent in parents.items() if parent is None)
        assert roots == ["f_0", "f_2"]

    def test_fixed_factors_are_never_dropped(self):
        assert warm_parents((1, 2)) == {
            "f_3456": None,
            "f_13456": "f_3456",
            "f_23456": None,
            "f_123456": "f_23456",
        }
        assert warm_parents((1, 3, 4)) == {
            "f_256": None,
            "f_1256": "f_256",
            "f_2356": "f_256",
            "f_2456": "f_256",
            "f_12356": "f_1256",
            "f_12456": "f_1256",
            "f_23456": "f_2356",
            "f_123456": "f_12356",
        }

    @pytest.mark.parametrize("workers", [1, 2])
    def test_parent_of_another_shape_is_started_from(
        self, small_spec, tmp_path, monkeypatch, workers
    ):
        # AB has no bioenergy of its own; harmonized, it gets the reference's
        # share, so harmonizing bioenergy adds AB's bioenergy columns and rows
        spec = dataclasses.replace(
            small_spec,
            exogenous_capacities=tuple(
                e
                for e in small_spec.exogenous_capacities
                if (e.country, e.technology) != ("AB", "bioenergy")
            ),
        )
        system = write_system(spec, tmp_path / "system")
        _, ledger, states = sweep_outputs(system, tmp_path / "out", (1, 3, 6), workers)
        assert {name: s["warm_from"] for name, s in states.items()} == {
            "f_245": None,
            "f_1245": "f_245",
            "f_2345": "f_245",
            "f_2456": "f_245",
            "f_12345": "f_1245",
            "f_12456": "f_1245",
            "f_23456": "f_2345",
            "f_123456": "f_12345",
        }
        # f_2456 drops AB's bioenergy columns and rows, and with them basic
        # statuses, so HiGHS repairs its start
        assert states["f_2456"]["alien_start"]
        assert {name for name, s in states.items() if s["simplex"] == "dual"} == {"f_1245"}
        assert all(e["certificate"]["ok"] for e in ledger["entries"])

        monkeypatch.setattr(sweep_mod, "warm_parents", lambda f: dict.fromkeys(warm_parents(f)))
        _, cold, _ = sweep_outputs(system, tmp_path / "cold", (1, 3, 6), workers)
        for warm_entry, cold_entry in zip(ledger["entries"], cold["entries"]):
            assert warm_entry["objective"] == pytest.approx(cold_entry["objective"], rel=1e-9)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_states_record_their_parent(self, system_dir, tmp_path, workers):
        _, ledger, states = sweep_outputs(system_dir, tmp_path / "out", (1, 3, 4), workers)
        parents = warm_parents((1, 3, 4))
        assert {name: s["warm_from"] for name, s in states.items()} == parents
        assert all("warm_from" not in e for e in ledger["entries"])
        # bases are kept for the parents only
        kept = {p.name for p in (tmp_path / "out" / "states").glob("*.basis.npy")}
        assert kept == {f"{name}.basis.npy" for name in parents.values() if name}
        for name in kept:
            basis = np.load(tmp_path / "out" / "states" / name)
            assert basis.dtype == np.int8

    def test_child_of_a_failed_parent_solves_cold(self, system_dir, tmp_path, monkeypatch):
        original = sweep_mod._run_state

        def failing_f256(payload):
            entry, basis = original(payload)
            if payload[2] == "f_256":
                return {**entry, "status": "numerical"}, None
            return entry, basis

        monkeypatch.setattr(sweep_mod, "_run_state", failing_f256)
        with pytest.raises(SweepError, match="optimality"):
            sweep_outputs(system_dir, tmp_path / "out", (1, 3, 4), 1)
        states = {
            p.name.removesuffix(".json"): json.loads(p.read_text())
            for p in (tmp_path / "out" / "states").glob("*.json")
        }
        assert states["f_2356"]["warm_from"] is None
        assert states["f_2456"]["warm_from"] is None
        assert states["f_23456"]["warm_from"] == "f_2356"


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

    @pytest.mark.parametrize(
        "removed,solved",
        [
            # a warm child: it starts again from its parent's persisted basis
            (["f_23456.csv", "f_23456.json"], ["f_23456"]),
            # a parent without its basis counts as not completed
            (["f_2356.basis.npy"], ["f_2356"]),
            # an interconnected child of an isolated parent, whose block maps
            # come from assembling its LP again
            (["f_1256.csv", "f_1256.json"], ["f_1256"]),
            # ... or from solving the parent again
            (["f_1256.csv", "f_1256.json", "f_256.basis.npy"], ["f_256", "f_1256"]),
        ],
    )
    def test_resume_matches_a_fresh_sweep(self, manifest, monkeypatch, removed, solved):
        warm = dataclasses.replace(manifest, factors=(1, 3, 4))
        fresh = run_sweep(warm)
        for name in removed:
            (Path(warm.out_dir) / "states" / name).unlink()

        calls = []
        original = sweep_mod._run_state

        def counting(payload):
            calls.append(payload[2])
            return original(payload)

        monkeypatch.setattr(sweep_mod, "_run_state", counting)
        resumed = resume(warm, Path(warm.out_dir) / "ledger.json")
        assert calls == solved
        assert ledger_comparison_bytes(resumed) == ledger_comparison_bytes(fresh)
        parents = warm_parents(warm.factors)
        for name in solved:
            meta = json.loads((Path(warm.out_dir) / "states" / f"{name}.json").read_text())
            assert meta["warm_from"] == parents[name]
        for name in set(parents.values()) - {None}:
            assert (Path(warm.out_dir) / "states" / f"{name}.basis.npy").exists()

    def test_interrupted_sweep_resumes(self, manifest, monkeypatch, tmp_path):
        """An interrupt leaves the ledger of the finished states, and resume completes it."""
        warm = dataclasses.replace(manifest, factors=(1, 3, 4))
        calls = []
        original = sweep_mod._run_state

        def interrupting(payload):
            calls.append(payload[2])
            if len(calls) == 6:
                raise KeyboardInterrupt
            return original(payload)

        monkeypatch.setattr(sweep_mod, "_run_state", interrupting)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(warm)
        ledger_path = Path(warm.out_dir) / "ledger.json"
        partial = sweep_mod.read_ledger(ledger_path)
        assert [e["state"] for e in partial["entries"]] == calls[:5]
        assert sorted(partial["timing"]) == sorted(calls[:5])

        monkeypatch.setattr(sweep_mod, "_run_state", original)
        resumed = resume(warm, ledger_path)
        fresh = run_sweep(dataclasses.replace(warm, out_dir=str(tmp_path / "fresh")))
        assert ledger_comparison_bytes(resumed) == ledger_comparison_bytes(fresh)

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
        assert ledger["schema"] == LEDGER_SCHEMA == "gridfactor-ledger/4"
        ledger["schema"] = "gridfactor-ledger/3"
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
        )
        with pytest.raises(SweepError, match="hash"):
            resume(tampered, Path(manifest.out_dir) / "ledger.json")

    def test_workers_do_not_change_manifest_hash(self, manifest):
        other = RunManifest(
            system_manifest=manifest.system_manifest,
            reference_country="AA",
            out_dir=manifest.out_dir,
            factors=(1, 2),
            workers=8,
        )
        assert other.digest() == manifest.digest()


class TestCompareInterconnection:
    def test_report_shape_and_bounds(self, manifest, small_spec):
        """Only what the LP determines is reported: aggregates, and isolated splits."""
        ledger = run_sweep(manifest)
        report = compare_interconnection(manifest)
        assert set(report) == {"metrics"}
        for metric, row in report["metrics"].items():
            assert row["absolute_reduction"] == pytest.approx(
                row["isolated"] - row["interconnected"], rel=1e-12, abs=1e-9
            )
        countries = {c.code for c in small_spec.countries}
        for entry in ledger["entries"]:
            assert "utilization" not in entry
            if entry["state"].startswith("f_1"):
                assert entry["per_country"] == {}
            else:
                assert set(entry["per_country"]) == countries

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
