"""Factorial scenario sweeps: enumerate, solve, persist, decompose.

A sweep derives the reference country's capacity shares once, then
builds and solves one LP per factor state. States are independent and
run under a bounded process pool; the ledger is assembled by the parent
in canonical state order, so output is invariant to the parallelism
level. Per-state artifacts are named by state; the ledger records each
state's spec and LP hashes for resume and audit.

Each state but the roots of the factor lattice starts HiGHS from the
final simplex basis of one parent state (``warm_parents``): the state
less the highest of factors 6, 4 and 3 that it has and the design
varies, else less hydro (5), else less interconnection (1). Wind (2) is
never dropped: a wind neighbour's basis saves no time and costs the
reuse of the reference country's block. So the full design's roots are
``f_0`` and ``f_2``, and they solve cold. The parent's basis is carried
to the child's LP by block key (``map_basis``): interconnection adds
flow columns, and hydro and bioenergy add or remove a country's
columns and rows where its own portfolio and the reference's differ.
A start that does not have one basic status per row goes to HiGHS as
alien and is repaired there. The edges of interconnection (1) and load
(4) run the dual simplex, every other edge and every cold solve the
primal: the variant belongs to the edge, not to an option. A state
runs as soon as its parent is done, with the parent's basis and block
maps in its payload; a child of a parent that is not optimal solves
cold. A parent state persists its basis as ``states/<name>.basis.npy``
for resume, which rebuilds the block maps by assembling the parent's
LP.

Within one sweep, the blocks of isolated states are kept by
``lp_digest``, start and simplex variant (``_REUSE``) and not solved
again: an isolated state is one block per country, and a country's
block repeats across states and matches the reference country's own
solve. HiGHS is deterministic, so a state's result depends only on its
LP, start and simplex variant: ledgers do not depend on what was
reused, on the schedule or on the worker count.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
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
from .solve import (
    SOLVER,
    ReuseKey,
    SolveOptions,
    SolveResult,
    map_basis,
    solve,
    verify_certificate,
)

VERSION = "1.0.0"
LEDGER_SCHEMA = "gridfactor-ledger/4"


class SweepError(GridFactorError):
    pass


# (lp_digest, start digest, simplex) of a block -> its optimal result, for
# the length of one run_sweep; each pool worker starts from a copy of the
# parent's
_REUSE: dict[ReuseKey, SolveResult] = {}


def _seed_reuse(results: dict[ReuseKey, SolveResult]) -> None:
    """Pool initializer: start the worker's dict from the parent's."""
    _REUSE.update(results)


# factors a state may drop to find its warm-start parent, first choice first
_WARM_FACTORS = (6, 4, 3, 5, 1)

# factors whose edges run the dual simplex
_DUAL_FACTORS = frozenset({1, 4})


def warm_parents(factors: tuple[int, ...]) -> dict[str, str | None]:
    """Each state of the design -> the state whose basis it starts from.

    The parent drops the first of factors 6, 4, 3, 5 and 1 that the
    state has and the design varies; a state with none of them is a
    root (None) and solves cold. The rule depends on names only, so
    every schedule warm-starts a state from the same parent.
    """
    parents = {}
    for state in enumerate_subset_states(factors):
        active = set(state.active_factors)
        drop = next((f for f in _WARM_FACTORS if f in active and f in factors), None)
        parents[state.name] = (
            None if drop is None else FactorState.from_factors(active - {drop}).name
        )
    return parents


def _edge_simplex(name: str, parent: str) -> str:
    """The simplex variant of the edge from state ``parent`` to state ``name``."""
    added = set(FactorState.parse(name).active_factors) - set(
        FactorState.parse(parent).active_factors
    )
    return "dual" if added & _DUAL_FACTORS else "primal"


@dataclass(frozen=True)
class _Basis:
    """A parent's final basis and the block maps of its LP."""

    statuses: np.ndarray
    blocks: dict[tuple, slice]
    row_blocks: dict[tuple, slice]


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


def _state_paths(out_dir: Path, state_name: str) -> tuple[Path, Path, Path]:
    """A state's solution CSV, its metadata JSON and its final basis."""
    states = out_dir / "states"
    return (
        states / f"{state_name}.csv",
        states / f"{state_name}.json",
        states / f"{state_name}.basis.npy",
    )


def _run_state(payload) -> tuple[dict, _Basis | None]:
    """Build, solve, and persist one factor state (process-pool task).

    Returns the ledger entry and, for a state with children
    (``keep_basis``), its final basis and block maps when optimal.
    """
    (base, shares, state_name, solver, out_dir, export_mps, warm_from, parent, keep_basis) = payload
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
    reuse = None if scenario.interconnection_enabled else _REUSE
    start, simplex = None, "primal"
    if parent is not None:
        start = map_basis(parent.statuses, parent.blocks, parent.row_blocks, lp)
        simplex = _edge_simplex(state_name, warm_from)
    result = solve(lp, solver, reuse, start, keep_basis, simplex)

    entry = {
        "state": state_name,
        "spec_hash": spec_digest(scenario),
        "lp_hash": lp_digest(lp),
        "status": result.status,
        "objective": float(result.objective),
        "iterations": result.iterations,
        "solver": SOLVER,
        "certificate": None,
        "metrics": {},
        "per_country": {},
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
        # a line lets storage sit in either country at equal cost, so an
        # interconnected state's per-country split is not determined
        if not scenario.interconnection_enabled:
            entry["per_country"] = by_country
        csv_path, meta_path, basis_path = _state_paths(out_dir, state_name)
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        write_solution_csv(csv_path, lp, result.primal)
        if keep_basis:
            np.save(basis_path, result.basis)
        meta = {
            **entry,
            "timing_seconds": wall,
            "blocks": result.blocks,
            "reused_blocks": result.reused_blocks,
            "warm_from": warm_from,
            "simplex": simplex,
            "alien_start": result.alien_start,
        }
        meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    basis = None
    if keep_basis and result.basis is not None:
        basis = _Basis(result.basis, lp.blocks, lp.row_blocks)
    return {**entry, "timing_seconds": wall}, basis


def run_sweep(manifest: RunManifest, completed: dict[str, dict] | None = None) -> dict:
    """Execute the sweep and return the ledger document.

    ``completed`` carries already-solved entries (used by resume); only
    the remaining states are solved. A completed state with children
    counts only when its ``states/<name>.basis.npy`` is there, so that
    its children start where a fresh sweep would start them. Each state
    starts from its ``warm_parents`` parent's basis and is submitted as
    soon as that parent is done; at one worker the states run in
    canonical order, which puts every parent before its children. The
    ledger is written before raising: of every state on a non-optimal
    one, of the finished states on any exception (``KeyboardInterrupt``
    too), so that ``resume`` goes on from them.
    """
    out_dir = Path(manifest.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = read_system(manifest.system_manifest)
    states = enumerate_subset_states(manifest.factors)

    entries: dict[str, dict] = {}
    try:
        shares = derive_reference_shares(
            base, manifest.reference_country, manifest.solver, _REUSE
        )
        _write_shares(out_dir / "reference_shares.json", shares)

        parents = warm_parents(manifest.factors)
        basis_states = {p for p in parents.values() if p is not None}
        bases = {}
        for name, entry in (completed or {}).items():
            if name not in basis_states or _state_paths(out_dir, name)[2].exists():
                entries[name] = entry
        pending = [s.name for s in states if s.name not in entries]
        # a completed parent's block maps come from assembling its LP again
        for name in sorted({parents[child] for child in pending} & entries.keys()):
            lp, _ = assemble(apply_factor_state(base, FactorState.parse(name), shares))
            statuses = np.load(_state_paths(out_dir, name)[2])
            bases[name] = _Basis(statuses, lp.blocks, lp.row_blocks)

        def payload(name: str):
            parent = bases.get(parents[name])
            warm_from = parents[name] if parent is not None else None
            return (
                base, shares, name, manifest.solver, str(out_dir), manifest.export_mps,
                warm_from, parent, name in basis_states,
            )

        def record(name: str, outcome: tuple[dict, _Basis | None]) -> None:
            entry, basis = outcome
            entries[name] = entry
            if basis is not None:
                bases[name] = basis

        if manifest.workers == 1 or len(pending) <= 1:
            for name in pending:
                record(name, _run_state(payload(name)))
        else:
            waiting: dict[str, list[str]] = {}
            ready = []
            for name in pending:
                if parents[name] in pending:
                    waiting.setdefault(parents[name], []).append(name)
                else:
                    ready.append(name)
            with ProcessPoolExecutor(
                max_workers=manifest.workers, initializer=_seed_reuse, initargs=(dict(_REUSE),)
            ) as pool:
                running = {pool.submit(_run_state, payload(name)): name for name in ready}
                while running:
                    done, _ = wait(running, return_when=FIRST_COMPLETED)
                    for future in done:
                        name = running.pop(future)
                        record(name, future.result())
                        for child in waiting.pop(name, ()):
                            running[pool.submit(_run_state, payload(child))] = child
    except BaseException:
        if entries:
            write_ledger(_assemble_ledger(manifest, states, entries), out_dir / "ledger.json")
        raise
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
    """The ledger of the finished states among ``states``, in their order."""
    ordered = []
    timing = {}
    for state in states:
        if state.name not in entries:
            continue
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
        name = entry["state"]
        if entry.get("status") != "optimal" or not entry["certificate"]["ok"]:
            continue
        csv_path, meta_path, _ = _state_paths(out_dir, name)
        if not (csv_path.exists() and meta_path.exists()):
            continue
        completed[name] = {**entry, "timing_seconds": timing.get(name, 0.0)}
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
    """Aggregate storage-metric reductions from interconnection.

    Compares the all-native interconnected state (f_123456 over the full
    design, or the manifest's full varied set) against the same state
    with interconnection disabled. The report holds one ``metrics``
    block: each storage metric's isolated and interconnected value and
    their absolute and relative reduction.
    """
    ledger = read_ledger(Path(manifest.out_dir) / "ledger.json")
    full = FactorState.from_factors(set(range(1, 7))).name
    isolated = FactorState.from_factors(set(range(2, 7))).name
    by_state = {e["state"]: e for e in ledger["entries"]}
    for needed in (full, isolated):
        if needed not in by_state or by_state[needed]["status"] != "optimal":
            raise SweepError(f"comparison needs an optimal solve of {needed}")

    metrics = {}
    for metric in STORAGE_METRICS:
        a = by_state[isolated]["metrics"][metric]
        b = by_state[full]["metrics"][metric]
        metrics[metric] = {
            "isolated": a,
            "interconnected": b,
            "absolute_reduction": a - b,
            "relative_reduction": (a - b) / a if a else 0.0,
        }
    return {"metrics": metrics}


def write_comparison(report: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
