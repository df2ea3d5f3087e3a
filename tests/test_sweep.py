import csv
import dataclasses
import json
from concurrent.futures import Future
from pathlib import Path

import pytest
from click.testing import CliRunner

import gridfactor.sweep as sweep_mod
from gridfactor import assemble, read_system, synthesize_system, write_system
from gridfactor.cli import main
from gridfactor.harmonize import (
    FactorState,
    apply_factor_state,
    derive_reference_shares,
    enumerate_subset_states,
)
from gridfactor.sweep import (
    ENTRY_METRICS,
    LEDGER_SCHEMA,
    RunManifest,
    SweepError,
    compare_interconnection,
    decompositions_from_ledger,
    resume,
    run_sweep,
    warm_parents,
)

from conftest import ledger_comparison_bytes


def synthetic_ledger(factors=(1, 2, 3, 4, 5, 6)):
    """One certified optimal entry per state; metrics ``mask`` (additive) and ``const``.

    ``mask`` sums 2^(n - 1) over the state's native factors n. Every
    ``ENTRY_METRICS`` metric is 0, so that ``read_ledger`` reads the ledger.
    """
    entries = [
        {
            "state": s.name,
            "status": "optimal",
            "certificate": {"ok": True},
            "metrics": {
                **dict.fromkeys(ENTRY_METRICS, 0.0),
                "mask": float(sum(1 << (n - 1) for n in s.factors)),
                "const": 1.0,
            },
        }
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
        # an isolated state is one block per country; the ledger records no blocks
        states = Path(manifest.out_dir) / "states"
        blocks = {n: json.loads((states / f"{n}.json").read_text())["blocks"] for n in names}
        assert blocks == {"f_3456": 2, "f_13456": 1, "f_23456": 2, "f_123456": 1}
        assert all("blocks" not in e for e in ledger["entries"])

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

    def test_states_agree_across_worker_counts(self, system_dir, tmp_path):
        """No state file records the schedule, so ``states/`` is the same bytes."""
        trees = []
        for workers in (1, 2):
            sweep_outputs(system_dir, tmp_path / f"w{workers}", (1, 2, 3, 4), workers)
            states = tmp_path / f"w{workers}" / "states"
            trees.append({p.name: p.read_bytes() for p in states.iterdir()})
        tree = trees[0]
        docs = {name: json.loads(raw) for name, raw in tree.items() if name.endswith(".json")}
        assert len(docs) == 16
        assert sorted(set(tree) - set(docs)) == sorted(
            f"{name}.csv" for name in warm_parents((1, 2, 3, 4))
        )
        assert sum("basis" in doc for doc in docs.values()) >= 1
        assert trees[0] == trees[1]

    def test_entries_carry_certificates(self, manifest):
        ledger = run_sweep(manifest)
        for entry in ledger["entries"]:
            cert = entry["certificate"]
            assert cert["ok"] is True
            assert 0.0 <= cert["primal_residual"] <= 1e-6
            assert cert["duality_gap"] >= 0.0

    def test_certificate_is_a_boolean_and_two_residuals(self, tmp_path):
        """The exact ``certificate`` object of every entry of a seed-7 ledger."""
        system = write_system(synthesize_system(seed=7, n_countries=2, horizon=48), tmp_path / "s")
        out = tmp_path / "out"
        run_sweep(RunManifest(str(system), "AA", str(out), factors=(1, 2)))
        for entry in json.loads((out / "ledger.json").read_text())["entries"]:
            cert = entry["certificate"]
            assert sorted(cert) == ["duality_gap", "ok", "primal_residual"]
            assert cert["ok"] is True
            assert type(cert["primal_residual"]) is float
            assert type(cert["duality_gap"]) is float

    def test_failed_certificate_fails_the_sweep(self, manifest, monkeypatch):
        real = sweep_mod.verify_certificate

        def failing(lp, result):
            return dataclasses.replace(real(lp, result), ok=False)

        monkeypatch.setattr(sweep_mod, "verify_certificate", failing)
        with pytest.raises(SweepError, match="certificate"):
            run_sweep(manifest)
        ledger = json.loads((Path(manifest.out_dir) / "ledger.json").read_text())
        assert [e["certificate"]["ok"] for e in ledger["entries"]] == [False] * 4

    def test_sweep_names_every_failed_state(self, manifest, monkeypatch):
        """One ``SweepError`` names each failed or uncertified state, in ledger order."""
        original = sweep_mod._run_state

        def failing(manifest, base, shares, state_name, *rest):
            entry, seconds = original(manifest, base, shares, state_name, *rest)
            if state_name == "f_3456":
                return {**entry, "status": "infeasible", "certificate": None}, seconds
            if state_name == "f_123456":
                return {**entry, "certificate": {**entry["certificate"], "ok": False}}, seconds
            return entry, seconds

        monkeypatch.setattr(sweep_mod, "_run_state", failing)
        message = (
            "scenario f_3456 did not solve to optimality: infeasible; "
            "scenario f_123456 failed the optimality certificate check"
        )
        with pytest.raises(SweepError) as caught:
            run_sweep(manifest)
        assert str(caught.value) == message
        assert not (Path(manifest.out_dir) / "decomposition.json").exists()

    def test_failed_state_writes_a_null_objective(self, manifest, monkeypatch):
        """A state that is not optimal writes ``null``, never ``NaN``, into the ledger."""
        real = sweep_mod.solve
        calls = []

        def failing_second(lp, *args):
            result = real(lp, *args)
            calls.append(lp)
            if len(calls) == 2:  # f_13456, which no state starts from
                return dataclasses.replace(result, status="iteration-limit", objective=float("nan"))
            return result

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        monkeypatch.setattr(sweep_mod, "solve", failing_second)
        with pytest.raises(SweepError, match="f_13456"):
            run_sweep(manifest)
        text = (Path(manifest.out_dir) / "ledger.json").read_text()
        entries = json.loads(text, parse_constant=refuse)["entries"]
        assert [e["objective"] is None for e in entries] == [False, True, False, False]

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
        # a started state ran the dual simplex, a cold one the primal
        for s in states.values():
            assert (s["simplex"] == "dual") == (s["warm_from"] is not None)
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
        # bases are kept for the parents only, in their state records
        kept = {name for name, s in states.items() if "basis" in s}
        assert kept == set(parents.values()) - {None}
        assert not list((tmp_path / "out" / "states").glob("*.npy"))

    def test_child_of_a_failed_parent_solves_cold(self, system_dir, tmp_path, monkeypatch):
        original = sweep_mod._run_state

        def failing_f256(manifest, base, shares, state_name, *rest):
            entry, seconds = original(manifest, base, shares, state_name, *rest)
            if state_name == "f_256":
                return {**entry, "status": "numerical"}, seconds
            return entry, seconds

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

    def test_child_of_a_failed_parent_ignores_an_earlier_sweep(
        self, system_dir, tmp_path, monkeypatch
    ):
        """A finished sweep's state records in ``out/`` are not read by a new one."""
        sweep_outputs(system_dir, tmp_path / "out", (1, 3, 4), 1)
        self.test_child_of_a_failed_parent_solves_cold(system_dir, tmp_path, monkeypatch)

    def test_failed_parent_leaves_its_earlier_files_unread(self, system_dir, tmp_path, monkeypatch):
        sweep_outputs(system_dir, tmp_path / "out", (1, 3, 4), 1)
        original = sweep_mod._run_state

        def failing_f256(manifest, base, shares, state_name, *rest):
            # fails without writing, so the earlier sweep's f_256 files stay
            if state_name == "f_256":
                return {"state": "f_256", "status": "numerical"}, 0.0
            return original(manifest, base, shares, state_name, *rest)

        monkeypatch.setattr(sweep_mod, "_run_state", failing_f256)
        with pytest.raises(SweepError, match="optimality"):
            sweep_outputs(system_dir, tmp_path / "out", (1, 3, 4), 1)
        assert "basis" in json.loads((tmp_path / "out" / "states" / "f_256.json").read_text())
        for child in ("f_1256", "f_2356", "f_2456"):
            meta = json.loads((tmp_path / "out" / "states" / f"{child}.json").read_text())
            assert meta["warm_from"] is None

    def test_parents_record_their_layout(self, system_dir, tmp_path):
        _, _, states = sweep_outputs(system_dir, tmp_path / "out", (1, 3, 4), 1)
        parents = set(warm_parents((1, 3, 4)).values()) - {None}
        assert {name for name, s in states.items() if "basis" in s} == parents
        spec = read_system(system_dir)
        shares = derive_reference_shares(spec, "AA")
        for name in parents:
            lp, _ = assemble(apply_factor_state(spec, FactorState.parse(name), shares))
            basis = states[name]["basis"]
            for part, blocks in (("columns", lp.blocks), ("rows", lp.row_blocks)):
                assert [tuple(key) for key, _ in basis[part]] == list(blocks)
                lengths = [len(digits) for _, digits in basis[part]]
                assert lengths == [b.stop - b.start for b in blocks.values()]
                assert set("".join(digits for _, digits in basis[part])) <= set("01234")

    def test_pool_has_no_more_workers_than_pending_states(self, manifest, monkeypatch):
        run_sweep(manifest)
        ledger_path = Path(manifest.out_dir) / "ledger.json"
        ledger = json.loads(ledger_path.read_text())
        ledger["entries"] = [e for e in ledger["entries"] if e["state"] == "f_3456"]
        ledger_path.write_text(json.dumps(ledger))

        pools = []

        class Recording:
            """Runs each task at once in this process and records its size."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", Recording)
        resumed = resume(dataclasses.replace(manifest, workers=5), ledger_path)
        assert pools == [3]
        assert len(resumed["entries"]) == 4


def remove_from_states(states: Path, name: str) -> None:
    """Delete file ``name`` from ``states``, or spoil a state's record.

    ``<state>.basis`` strips the record's basis, ``<state>.cut`` cuts the
    record in half and ``<state>.list`` replaces it with ``[]``.
    """
    state, _, how = name.partition(".")
    record = states / f"{state}.json"
    if how == "basis":
        meta = json.loads(record.read_text())
        del meta["basis"]
        record.write_text(json.dumps(meta))
    elif how == "cut":
        text = record.read_text()
        record.write_text(text[: len(text) // 2])
    elif how == "list":
        record.write_text("[]")
    else:
        (states / name).unlink()


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

        def counting(manifest, base, shares, state_name, *rest):
            calls.append(state_name)
            return original(manifest, base, shares, state_name, *rest)

        monkeypatch.setattr(sweep_mod, "_run_state", counting)
        resumed = resume(manifest, ledger_path)
        assert calls == [victim]
        assert len(resumed["entries"]) == 4

    @pytest.mark.parametrize(
        "removed,solved",
        [
            # a warm child: it starts again from its parent's persisted basis
            (["f_23456.csv", "f_23456.json"], ["f_23456"]),
            # a parent whose record holds no basis counts as not completed
            (["f_2356.basis"], ["f_2356"]),
            # an interconnected child of an isolated parent starts from the
            # blocks it shares with the parent's recorded basis
            (["f_1256.csv", "f_1256.json"], ["f_1256"]),
            # ... or from solving the parent again
            (["f_1256.csv", "f_1256.json", "f_256.basis"], ["f_256", "f_1256"]),
            # a record that does not read back as an object: a parent's and a
            # leaf's cut in half, another leaf's not an object
            (["f_2356.cut", "f_123456.cut", "f_2456.list"], ["f_2356", "f_2456", "f_123456"]),
        ],
    )
    def test_resume_matches_a_fresh_sweep(self, manifest, monkeypatch, removed, solved):
        warm = dataclasses.replace(manifest, factors=(1, 3, 4))
        fresh = run_sweep(warm)
        for name in removed:
            remove_from_states(Path(warm.out_dir) / "states", name)

        calls = []
        original = sweep_mod._run_state

        def counting(manifest, base, shares, state_name, *rest):
            calls.append(state_name)
            return original(manifest, base, shares, state_name, *rest)

        monkeypatch.setattr(sweep_mod, "_run_state", counting)
        resumed = resume(warm, Path(warm.out_dir) / "ledger.json")
        assert calls == solved
        assert ledger_comparison_bytes(resumed) == ledger_comparison_bytes(fresh)
        parents = warm_parents(warm.factors)
        records = {
            p.name.removesuffix(".json"): json.loads(p.read_text())
            for p in (Path(warm.out_dir) / "states").glob("*.json")
        }
        for name in solved:
            assert records[name]["warm_from"] == parents[name]
        assert {name for name, r in records.items() if "basis" in r} == set(parents.values()) - {None}

    @pytest.mark.parametrize(
        "removed,solved",
        [
            ([], ["f_256"]),
            (["f_1256.csv", "f_1256.json"], ["f_256", "f_1256"]),
        ],
    )
    def test_parent_without_layout_is_solved_again(self, manifest, monkeypatch, removed, solved):
        warm = dataclasses.replace(manifest, factors=(1, 3, 4))
        fresh = run_sweep(warm)
        states = Path(warm.out_dir) / "states"
        for name in ["f_256.basis", *removed]:
            remove_from_states(states, name)

        calls = []
        original = sweep_mod._run_state

        def counting(manifest, base, shares, state_name, *rest):
            calls.append(state_name)
            return original(manifest, base, shares, state_name, *rest)

        monkeypatch.setattr(sweep_mod, "_run_state", counting)
        resumed = resume(warm, Path(warm.out_dir) / "ledger.json")
        assert calls == solved
        assert ledger_comparison_bytes(resumed) == ledger_comparison_bytes(fresh)
        assert "basis" in json.loads((states / "f_256.json").read_text())

    def test_interrupted_sweep_resumes(self, manifest, monkeypatch, tmp_path):
        """An interrupt leaves the ledger of the finished states, and resume completes it."""
        warm = dataclasses.replace(manifest, factors=(1, 3, 4))
        calls = []
        original = sweep_mod._run_state

        def interrupting(manifest, base, shares, state_name, *rest):
            calls.append(state_name)
            if len(calls) == 6:
                raise KeyboardInterrupt
            return original(manifest, base, shares, state_name, *rest)

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
            sweep_mod, "_run_state", lambda *args: pytest.fail("re-solved a state")
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

        def counting(manifest, base, shares, state_name, *rest):
            calls.append(state_name)
            return original(manifest, base, shares, state_name, *rest)

        monkeypatch.setattr(sweep_mod, "_run_state", counting)
        resumed = resume(manifest, ledger_path)
        assert calls == [victim]
        assert all(e["certificate"]["ok"] for e in resumed["entries"])

    def test_failed_state_is_solved_again(self, manifest, monkeypatch, tmp_path):
        """A ledger holding a failed state's entry passes ``read_ledger`` and resumes."""
        original = sweep_mod._run_state

        def failing_f23456(manifest, base, shares, state_name, *rest):
            entry, seconds = original(manifest, base, shares, state_name, *rest)
            if state_name == "f_23456":
                failed = {"status": "numerical", "certificate": None, "metrics": {}}
                return {**entry, **failed, "per_country": {}}, seconds
            return entry, seconds

        monkeypatch.setattr(sweep_mod, "_run_state", failing_f23456)
        with pytest.raises(SweepError, match="optimality"):
            run_sweep(manifest)
        ledger_path = Path(manifest.out_dir) / "ledger.json"
        failed = sweep_mod.read_ledger(ledger_path)["entries"][2]
        assert (failed["state"], failed["metrics"]) == ("f_23456", {})

        calls = []

        def counting(manifest, base, shares, state_name, *rest):
            calls.append(state_name)
            return original(manifest, base, shares, state_name, *rest)

        monkeypatch.setattr(sweep_mod, "_run_state", counting)
        resumed = resume(manifest, ledger_path)
        assert calls == ["f_23456"]
        # f_123456 keeps the cold solve it ran while its parent had failed
        fresh = run_sweep(dataclasses.replace(manifest, out_dir=str(tmp_path / "fresh")))
        assert resumed["entries"][2] == fresh["entries"][2]

    def test_other_ledger_schema_refused(self, manifest):
        ledger = run_sweep(manifest)
        assert ledger["schema"] == LEDGER_SCHEMA == "gridfactor-ledger/5"
        ledger["schema"] = "gridfactor-ledger/4"
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

    def test_run_sweep_writes_the_cli_report(self, manifest, system_dir, tmp_path):
        """A sweep run from Python writes the report that ``gridfactor sweep`` writes."""
        run_sweep(manifest)
        cli_out = tmp_path / "cli"
        result = CliRunner().invoke(
            main,
            ["sweep", str(system_dir), "--reference", "AA", "--out", str(cli_out), "--factors", "1,2"],
        )
        assert result.exit_code == 0, result.output
        report = Path(manifest.out_dir) / "interconnection_report.json"
        assert report.read_bytes() == (cli_out / "interconnection_report.json").read_bytes()
        assert json.loads(report.read_text()) == compare_interconnection(manifest)

    def test_missing_state_rejected(self, manifest):
        run_sweep(manifest)
        (Path(manifest.out_dir) / "ledger.json").write_text(
            json.dumps({"entries": [], "factors": [1, 2]})
        )
        with pytest.raises(SweepError, match="comparison needs"):
            compare_interconnection(manifest)

    def test_uncertified_state_rejected(self, manifest):
        ledger = synthetic_ledger()
        ledger["entries"][-1]["certificate"]["ok"] = False
        out = Path(manifest.out_dir)
        out.mkdir(parents=True)
        (out / "ledger.json").write_text(json.dumps(ledger))
        with pytest.raises(SweepError, match="certified optimal solve of f_123456"):
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

    def test_uncertified_state_named(self):
        ledger = synthetic_ledger()
        for entry in ledger["entries"]:
            if entry["state"] == "f_25":
                entry["certificate"]["ok"] = False
        with pytest.raises(SweepError, match="f_25 failed the optimality certificate check"):
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
