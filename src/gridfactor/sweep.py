"""Factorial scenario sweeps: enumerate, solve, persist, decompose.

A sweep derives the reference country's capacity shares once, then
builds and solves one LP per factor state. States are independent and
run under a bounded process pool; the ledger is assembled by the parent
in canonical state order, so output is invariant to the parallelism
level. Per-state artifacts are content-addressed by spec and LP hashes
for resume and audit.

Within one sweep, the blocks of isolated states are kept by
``lp_digest`` and not solved again (``_REUSE``): an isolated state is
one block per country, and a country's block repeats across states and
matches the reference country's own solve. A reused block returns its stored result,
iteration count included, so ledgers do not depend on what was reused.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .factorize import (
    FactorDecomposition,
    MetricTable,
    STORAGE_METRICS,
    extract_storage_metrics,
    shared_interactions_totals,
    write_decompositions_csv,
    write_decompositions_json,
)
from .harmonize import (
    FactorState,
    ReferenceShares,
    apply_factor_state,
    derive_reference_shares,
    enumerate_subset_states,
)
from .lp import assemble, lp_digest, write_solution_csv
from .model import GridFactorError, PowerSystemSpec
from .mps import write_mps
from .serialize import manifest_digest, read_system, system_doc
from .solve import SolveOptions, SolveResult, solve, verify_certificate

VERSION = "1.0.0"
LEDGER_SCHEMA = "gridfactor-ledger/3"


class SweepError(GridFactorError):
    pass


# lp_digest of a block -> its optimal result, for the length of one
# run_sweep; each pool worker starts from a copy of the parent's
_REUSE: dict[str, SolveResult] = {}


def _seed_reuse(results: dict[str, SolveResult]) -> None:
    """Pool initializer: start the worker's dict from the parent's."""
    _REUSE.update(results)


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce one sweep."""

    system_manifest: str  # path to the base system's manifest.json
    reference_country: str
    out_dir: str
    factors: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    fixture_label: str = "default"
    solver: SolveOptions = SolveOptions()
    workers: int = 1
    export_mps: bool = False

    def __post_init__(self):
        if self.workers < 1:
            raise SweepError("parallelism must be at least 1")
        if not Path(self.system_manifest).exists():
            raise SweepError(f"system manifest not found: {self.system_manifest}")
        bad = set(self.factors) - set(range(1, 7))
        if bad or len(set(self.factors)) != len(self.factors):
            raise SweepError("factor subset must be unique numbers in 1..6")
        if 1 not in self.factors:
            raise SweepError(
                "factor subset must include 1 (interconnection): the sweep compares "
                "interconnected and isolated states"
            )

    def digest(self) -> str:
        """Hash of the reproducibility-relevant fields.

        Excludes out_dir and workers: the same experiment run elsewhere
        or at a different parallelism must hash identically.
        """
        doc = {
            "system": manifest_digest(self.system_manifest),
            "reference_country": self.reference_country,
            "factors": sorted(self.factors),
            "fixture_label": self.fixture_label,
            "solver": asdict(self.solver),
            "export_mps": self.export_mps,
        }
        return hashlib.sha256(_canonical_json(doc)).hexdigest()


def _canonical_json(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def spec_digest(spec: PowerSystemSpec) -> str:
    """Content hash of a (possibly harmonized) in-memory system."""
    ts = spec.time_series
    h = hashlib.sha256(_canonical_json(system_doc(spec)))
    for code in sorted(ts.load):
        h.update(code.encode())
        h.update(np.ascontiguousarray(ts.load[code], dtype=float).tobytes())
    for key in sorted(ts.capacity_factors):
        h.update(repr(key).encode())
        h.update(np.ascontiguousarray(ts.capacity_factors[key], dtype=float).tobytes())
    for code in sorted(ts.reservoir_inflow):
        h.update(code.encode())
        h.update(np.ascontiguousarray(ts.reservoir_inflow[code], dtype=float).tobytes())
    return h.hexdigest()


def _state_paths(out_dir: Path, state_name: str) -> tuple[Path, Path]:
    states = out_dir / "states"
    return states / f"{state_name}.csv", states / f"{state_name}.json"


def _run_state(payload) -> dict:
    """Build, solve, and persist one factor state (process-pool task)."""
    (base, shares, state_name, solver, out_dir, export_mps) = payload
    out_dir = Path(out_dir)
    state = FactorState.parse(state_name)
    started = time.perf_counter()
    scenario = apply_factor_state(base, state, shares)
    lp, _ = assemble(scenario)
    if export_mps:
        mps_dir = out_dir / "mps"
        mps_dir.mkdir(parents=True, exist_ok=True)
        write_mps(lp, mps_dir / f"{state_name}.mps")
    # a coupled state's LP is one block that no other state repeats
    result = solve(lp, solver, None if scenario.interconnection_enabled else _REUSE)

    entry = {
        "state": state_name,
        "spec_hash": spec_digest(scenario),
        "lp_hash": lp_digest(lp),
        "status": result.status,
        "objective": float(result.objective),
        "iterations": result.iterations,
        "solver": result.method,
        "certificate": None,
        "metrics": {},
        "per_country": {},
        "utilization": {},
    }
    if result.status == "optimal":
        cert = verify_certificate(lp, result)
        entry["certificate"] = {
            "ok": bool(cert.ok),
            "primal_residual": float(cert.primal_residual),
            "duality_gap": float(cert.duality_gap),
        }
    wall = time.perf_counter() - started
    if result.status == "optimal":
        agg, by_country = extract_storage_metrics(scenario, lp, result)
        entry["metrics"] = {**agg, "objective_eur": float(result.objective)}
        entry["per_country"] = by_country
        # mean |flow| / NTC per line; a flow block's upper bound is its line's NTC
        entry["utilization"] = {
            key[1]: float(np.mean(np.abs(result.primal[cols])) / lp.ub[cols.start])
            for key, cols in lp.blocks.items()
            if key[0] == "flow" and lp.ub[cols.start] > 0
        }
        csv_path, meta_path = _state_paths(out_dir, state_name)
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        write_solution_csv(csv_path, lp, result.primal)
        meta = {
            **entry,
            "timing_seconds": wall,
            "blocks": result.blocks,
            "reused_blocks": result.reused_blocks,
        }
        meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return {**entry, "timing_seconds": wall}


def run_sweep(
    manifest: RunManifest,
    completed: dict[str, dict] | None = None,
) -> dict:
    """Execute the sweep and return the ledger document.

    ``completed`` carries already-solved entries (used by resume); only
    the remaining states are solved. On any non-optimal state the
    partial ledger is written before raising.
    """
    out_dir = Path(manifest.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = read_system(manifest.system_manifest)
    states = enumerate_subset_states(manifest.factors)
    completed = dict(completed or {})

    try:
        shares = derive_reference_shares(
            base, manifest.reference_country, manifest.solver, _REUSE
        )
        _write_shares(out_dir / "reference_shares.json", shares)

        pending = [s for s in states if s.name not in completed]
        payloads = [
            (base, shares, s.name, manifest.solver, str(out_dir), manifest.export_mps)
            for s in pending
        ]
        entries = dict(completed)
        if manifest.workers == 1 or len(payloads) <= 1:
            for payload in payloads:
                entry = _run_state(payload)
                entries[entry["state"]] = entry
        else:
            with ProcessPoolExecutor(
                max_workers=manifest.workers, initializer=_seed_reuse, initargs=(dict(_REUSE),)
            ) as pool:
                for entry in pool.map(_run_state, payloads):
                    entries[entry["state"]] = entry
    finally:
        _REUSE.clear()

    ledger = _assemble_ledger(manifest, states, entries)
    write_ledger(ledger, out_dir / "ledger.json")

    failures = [e["state"] for e in ledger["entries"] if e["status"] != "optimal"]
    if failures:
        raise SweepError(f"scenario(s) did not solve to optimality: {failures}")
    uncertified = [e["state"] for e in ledger["entries"] if not e["certificate"]["ok"]]
    if uncertified:
        raise SweepError(f"scenario(s) failed the optimality certificate check: {uncertified}")

    decomps = decompositions_from_ledger(ledger)
    write_decompositions_csv(decomps, out_dir / "decomposition.csv")
    write_decompositions_json(decomps, out_dir / "decomposition.json")
    return ledger


def _assemble_ledger(manifest: RunManifest, states, entries: dict[str, dict]) -> dict:
    ordered = []
    timing = {}
    for state in states:
        entry = dict(entries[state.name])
        timing[state.name] = entry.pop("timing_seconds", 0.0)
        ordered.append(entry)
    return {
        "schema": LEDGER_SCHEMA,
        "version": VERSION,
        "manifest_hash": manifest.digest(),
        "fixture_label": manifest.fixture_label,
        "reference_country": manifest.reference_country,
        "factors": sorted(manifest.factors),
        "entries": ordered,
        "timing": timing,
    }


def write_ledger(ledger: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")


def read_ledger(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def ledger_comparison_bytes(ledger: dict) -> bytes:
    """Canonical serialization with timing stripped, for determinism checks."""
    doc = {k: v for k, v in ledger.items() if k != "timing"}
    return json.dumps(doc, indent=2, sort_keys=True).encode()


def resume(manifest: RunManifest, ledger_path: str | Path) -> dict:
    """Finish a partial sweep; completed states are not re-solved."""
    ledger = read_ledger(ledger_path)
    if ledger.get("schema") != LEDGER_SCHEMA:
        raise SweepError(
            f"ledger schema {ledger.get('schema')!r} is not {LEDGER_SCHEMA!r}; rerun the sweep"
        )
    if ledger.get("manifest_hash") != manifest.digest():
        raise SweepError("ledger manifest hash does not match this manifest")
    out_dir = Path(manifest.out_dir)
    completed = {}
    timing = ledger.get("timing", {})
    for entry in ledger.get("entries", []):
        if entry.get("status") != "optimal" or not entry["certificate"]["ok"]:
            continue
        csv_path, meta_path = _state_paths(out_dir, entry["state"])
        if csv_path.exists() and meta_path.exists():
            completed[entry["state"]] = {
                **entry,
                "timing_seconds": timing.get(entry["state"], 0.0),
            }
    return run_sweep(manifest, completed=completed)


def _write_shares(path: Path, shares: ReferenceShares) -> None:
    doc = {
        "reference_country": shares.reference_country,
        "offshore_share": shares.offshore_share,
        "technology_shares": {
            tid: asdict(s) for tid, s in sorted(shares.technology_shares.items())
        },
        "provenance": dict(shares.provenance),
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def decompositions_from_ledger(ledger: dict) -> list[FactorDecomposition]:
    """Shared-interactions decompositions of every ledger metric.

    The ledger must hold exactly one optimal entry for each state of its
    factor design, all with the same metrics; a failed, missing or
    repeated state, or one with other metrics, raises ``SweepError``
    naming it.
    """
    factors = tuple(ledger["factors"])
    entries = ledger["entries"]
    if not entries:
        raise SweepError("empty ledger")
    metrics = sorted(entries[0]["metrics"])
    by_state: dict[str, dict] = {}
    for entry in entries:
        name = entry["state"]
        if entry["status"] != "optimal":
            raise SweepError(f"scenario {name} did not solve: {entry['status']}")
        if name in by_state:
            raise SweepError(f"ledger lists scenario {name} twice")
        got = sorted(entry["metrics"])
        if got != metrics:
            raise SweepError(f"scenario {name} has metrics {got}, not {metrics}")
        by_state[name] = entry
    states = enumerate_subset_states(factors)
    missing = [s.name for s in states if s.name not in by_state]
    if missing:
        raise SweepError(f"incomplete scenario set, missing {missing}")

    fixed = frozenset(range(1, 7)) - frozenset(factors)
    decomps = []
    for metric in metrics:
        values = {
            frozenset(s.active_factors) - fixed: float(by_state[s.name]["metrics"][metric])
            for s in states
        }
        table = MetricTable(metric=metric, factors=factors, values=values)
        decomps.append(shared_interactions_totals(table))
    return decomps


def compare_interconnection(manifest: RunManifest) -> dict:
    """Storage-metric reductions and interconnector utilization.

    Compares the all-native interconnected state (f_123456 over the full
    design, or the manifest's full varied set) against the same state
    with interconnection disabled.
    """
    ledger = read_ledger(Path(manifest.out_dir) / "ledger.json")
    full = FactorState.from_factors(set(range(1, 7))).name
    isolated = FactorState.from_factors(set(range(2, 7))).name
    by_state = {e["state"]: e for e in ledger["entries"]}
    for needed in (full, isolated):
        if needed not in by_state or by_state[needed]["status"] != "optimal":
            raise SweepError(f"comparison needs an optimal solve of {needed}")

    utilization = by_state[full]["utilization"]
    report: dict = {"metrics": {}, "per_country": {}, "utilization": utilization}
    for metric in STORAGE_METRICS:
        a = by_state[isolated]["metrics"][metric]
        b = by_state[full]["metrics"][metric]
        report["metrics"][metric] = {
            "isolated": a,
            "interconnected": b,
            "absolute_reduction": a - b,
            "relative_reduction": (a - b) / a if a else 0.0,
        }
    for code, vals in by_state[isolated]["per_country"].items():
        report["per_country"][code] = {}
        for metric in STORAGE_METRICS:
            a = vals[metric]
            b = by_state[full]["per_country"][code][metric]
            report["per_country"][code][metric] = {
                "isolated": a,
                "interconnected": b,
                "absolute_reduction": a - b,
                "relative_reduction": (a - b) / a if a else 0.0,
            }

    return report


def write_comparison(report: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
