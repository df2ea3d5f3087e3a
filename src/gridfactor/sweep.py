"""Factorial scenario sweeps: enumerate, solve, persist, decompose.

A sweep derives the reference country's capacity shares once, then
builds and solves one LP per factor state. States are independent and
run under a bounded process pool; the ledger is assembled by the parent
in canonical state order, so output is invariant to the parallelism
level. Per-state artifacts are named by state; the ledger records each
state's spec and LP hashes for audit.

Each state but the roots of the factor lattice starts HiGHS from the
final simplex basis of one parent state (``warm_parents``): the state
less the highest of factors 6, 4 and 3 that it has and the design
varies, else less hydro (5), else less interconnection (1). Wind (2) is
never dropped: one rule for all factors (drop the highest, so ``f_0`` is
the only root) took a seed-7 2x168 sweep at 2 workers from 21 683 to
33 269 iterations and from 1.00 to 1.32 s. So the full design's roots
are ``f_0`` and ``f_2``, and they solve cold. The
parent's basis is carried to the child's LP by block key
(``map_basis``): interconnection adds flow columns, and hydro and
bioenergy add or remove a country's columns and rows where its own
portfolio and the reference's differ.
A start that does not have one basic status per row goes to HiGHS as
alien and is repaired there. A state runs as soon as its parent is
done. A parent hands its children its final basis through its state
record ``states/<name>.json`` only: ``basis`` lists the LP's column
and then row block keys in order, each with its block's statuses as
one ASCII digit per column or row.
A child reads it only when the parent's entry, from this run or a
resumed one's completed states, is optimal and certified, so an earlier
run's files in a reused output directory are never read; a child of any
other parent solves cold. Resume keeps a completed state only when its
entry is certified, its solution CSV exists and its state record reads
back as a JSON object, one holding ``basis`` for a parent
(``_finished``); it solves every other state again.

A sweep's pool workers solve an isolated state's blocks one after
another on one thread: the pool already runs one worker per CPU, and
``solve`` starts no threads in a process that ``multiprocessing``
started. A sweep at one worker runs its states in the calling
process, so there an isolated state's blocks are solved at once.

HiGHS is deterministic, so a state's result depends only on its LP
and start: ledgers do not depend on the schedule or on the worker
count.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .factorize import (
    INTERCONNECTION,
    FactorDecomposition,
    MetricTable,
    STORAGE_METRICS,
    extract_storage_metrics,
    shared_interactions_totals,
    write_decompositions,
)
from .harmonize import (
    FACTOR_NAMES,
    FactorState,
    ReferenceShares,
    apply_factor_state,
    derive_reference_shares,
    enumerate_subset_states,
)
from .lp import LinearProgram, assemble, lp_digest, write_solution_csv
from .model import GridFactorError, PowerSystemSpec
from .mps import write_mps
from .serialize import manifest_digest, read_system, system_doc, write_json
from .solve import SOLVER, SolveOptions, solve, verify_certificate

VERSION = "1.0.0"
LEDGER_SCHEMA = "gridfactor-ledger/5"


class SweepError(GridFactorError):
    pass


# factors a state may drop to find its warm-start parent, first choice first
_WARM_FACTORS = (6, 4, 3, 5, 1)


def warm_parents(factors: tuple[int, ...]) -> dict[str, str | None]:
    """Each state of the design -> the state whose basis it starts from.

    The parent drops the first of factors 6, 4, 3, 5 and 1 that the
    state has and the design varies; a state with none of them is a
    root (None) and solves cold. The rule depends on names only, so
    every schedule warm-starts a state from the same parent.
    """
    parents = {}
    for state in enumerate_subset_states(factors):
        drop = next((f for f in _WARM_FACTORS if f in state.factors and f in factors), None)
        parents[state.name] = None if drop is None else FactorState(state.factors - {drop}).name
    return parents


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
        bad = set(self.factors) - set(FACTOR_NAMES)
        if bad or len(set(self.factors)) != len(self.factors):
            raise SweepError("factor subset must be unique numbers in 1..6")
        if INTERCONNECTION not in self.factors:
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
    named = ((ts.load, str), (ts.capacity_factors, repr), (ts.reservoir_inflow, str))
    for series, key_text in named:
        for key in sorted(series):
            h.update(key_text(key).encode())
            h.update(np.ascontiguousarray(series[key], dtype=float).tobytes())
    return h.hexdigest()


def _state_paths(out_dir: Path, state_name: str) -> tuple[Path, Path]:
    """A state's solution CSV and its state record (JSON)."""
    states = out_dir / "states"
    return states / f"{state_name}.csv", states / f"{state_name}.json"


def basis_record(lp: LinearProgram, basis: np.ndarray) -> dict:
    """``lp``'s basis by block key: each block's statuses as ASCII digits, in LP order."""
    digits = (basis + 48).astype(np.uint8).tobytes().decode()
    return {
        part: [[list(key), digits[at + b.start : at + b.stop]] for key, b in blocks.items()]
        for part, blocks, at in (("columns", lp.blocks, 0), ("rows", lp.row_blocks, lp.n_cols))
    }


def map_basis(parent_basis: dict, lp: LinearProgram) -> np.ndarray:
    """A start basis of ``lp`` from a parent's ``basis_record``.

    Both LPs come from ``assemble`` with one horizon. A column or row
    block whose key the parent has takes the parent's statuses; a new
    column starts nonbasic at its lower bound (0), a new row basic (1).
    The result may hold more or fewer basic statuses than ``lp`` has
    rows; ``solve`` hands such a start to HiGHS to repair, and refuses
    a status HiGHS does not know.
    """
    start = np.zeros(lp.n_cols + lp.n_rows, dtype=np.int8)
    start[lp.n_cols :] = 1
    for part, blocks, at in (("columns", lp.blocks, 0), ("rows", lp.row_blocks, lp.n_cols)):
        parent = {tuple(key): digits for key, digits in parent_basis[part]}
        for key, b in blocks.items():
            if key in parent:
                start[at + b.start : at + b.stop] = (
                    np.frombuffer(parent[key].encode(), np.uint8) - 48
                )
    return start


# the metrics of an optimal state's ledger entry; ``read_ledger`` checks them
ENTRY_METRICS = (*STORAGE_METRICS, "objective_eur")


def _run_state(
    manifest: RunManifest,
    base: PowerSystemSpec,
    shares: ReferenceShares,
    state_name: str,
    warm_from: str | None,
    keep_basis: bool,
) -> tuple[dict, float]:
    """Build, solve, and persist one factor state (process-pool task).

    Starts from the basis in parent ``warm_from``'s state record; with
    ``keep_basis``, an optimal state writes its own into its record.
    Returns the ledger entry and the state's seconds.
    """
    out_dir = Path(manifest.out_dir)
    state = FactorState.parse(state_name)
    started = time.perf_counter()
    scenario = apply_factor_state(base, state, shares)
    lp, _ = assemble(scenario)
    if manifest.export_mps:
        mps_dir = out_dir / "mps"
        mps_dir.mkdir(parents=True, exist_ok=True)
        write_mps(lp, mps_dir / f"{state_name}.mps")
    start = None
    if warm_from is not None:
        _, parent_path = _state_paths(out_dir, warm_from)
        start = map_basis(json.loads(parent_path.read_text())["basis"], lp)
    result = solve(lp, manifest.solver, start, keep_basis)
    optimal = result.status == "optimal"

    entry = {
        "state": state_name,
        "spec_hash": spec_digest(scenario),
        "lp_hash": lp_digest(lp),
        "status": result.status,
        "objective": result.objective if optimal else None,
        "iterations": result.iterations,
        "solver": SOLVER,
        "certificate": asdict(verify_certificate(lp, result)) if optimal else None,
        "metrics": {},
        "per_country": {},
    }
    wall = time.perf_counter() - started
    if optimal:
        agg, by_country = extract_storage_metrics(scenario, lp, result)
        entry["metrics"] = {**agg, "objective_eur": float(result.objective)}
        # a line lets storage sit in either country at equal cost, so an
        # interconnected state's per-country split is not determined
        if not scenario.interconnection_enabled:
            entry["per_country"] = by_country
        csv_path, meta_path = _state_paths(out_dir, state_name)
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        write_solution_csv(csv_path, lp, result.primal)
        meta = {
            **entry,
            "blocks": result.blocks,
            "warm_from": warm_from,
            "simplex": result.simplex,
            "alien_start": result.alien_start,
        }
        if keep_basis:
            meta["basis"] = basis_record(lp, result.basis)
        write_json(meta_path, meta)
    return entry, wall


def run_sweep(manifest: RunManifest, completed: dict | None = None) -> dict:
    """Execute the sweep, write its outputs and return the ledger document.

    Writes ``reference_shares.json``, ``states/``, ``ledger.json``, the
    ``decomposition.csv``/``.json`` pair and
    ``interconnection_report.json`` (``compare_interconnection``) to
    ``manifest.out_dir``, and ``mps/`` with ``export_mps``.
    ``completed`` is an earlier run's ledger (used by resume): of its
    entries the sweep keeps those that ``_finished`` accepts and solves
    the remaining states, with no more workers than states. A
    state is submitted as soon as its ``warm_parents`` parent is done; at
    one worker the states run in canonical order, parents first. The ledger
    of the finished states is written however the sweep ends,
    ``KeyboardInterrupt`` included, so that ``resume`` goes on from them.
    A failed state's objective is ``null``. ``decompositions_from_ledger``
    then judges the ledger: failed or uncertified states raise one
    ``SweepError`` naming them all, and nothing more is written.
    """
    base = read_system(manifest.system_manifest)
    # a reference that fails leaves no output directory behind
    shares = derive_reference_shares(base, manifest.reference_country, manifest.solver)
    out_dir = Path(manifest.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    states = enumerate_subset_states(manifest.factors)
    parents = warm_parents(manifest.factors)
    basis_states = {p for p in parents.values() if p is not None}
    completed = completed or {"entries": []}
    entries = {
        e["state"]: e
        for e in completed["entries"]
        if _finished(out_dir, e, e["state"] in basis_states)
    }
    timing = {name: completed.get("timing", {}).get(name, 0.0) for name in entries}
    pending = [s.name for s in states if s.name not in entries]

    try:
        write_json(out_dir / "reference_shares.json", asdict(shares))

        def task(name: str) -> tuple:
            """``_run_state``'s arguments for state ``name``."""
            parent = parents[name]
            certified = parent in entries and _certified(entries[parent])
            return (
                manifest, base, shares, name, parent if certified else None, name in basis_states
            )

        workers = min(manifest.workers, len(pending))
        if workers <= 1:
            for name in pending:
                entries[name], timing[name] = _run_state(*task(name))
        else:
            # a state waits for its parent when that is pending, else for None
            waiting: dict[str | None, list[str]] = {}
            for name in pending:
                parent = parents[name] if parents[name] in pending else None
                waiting.setdefault(parent, []).append(name)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                ready = waiting.pop(None, ())
                running = {pool.submit(_run_state, *task(name)): name for name in ready}
                while running:
                    done, _ = wait(running, return_when=FIRST_COMPLETED)
                    for future in done:
                        name = running.pop(future)
                        entries[name], timing[name] = future.result()
                        for child in waiting.pop(name, ()):
                            running[pool.submit(_run_state, *task(child))] = child
    finally:
        finished = [s.name for s in states if s.name in entries]
        ledger = {
            "schema": LEDGER_SCHEMA,
            "version": VERSION,
            "manifest_hash": manifest.digest(),
            "fixture_label": manifest.fixture_label,
            "reference_country": manifest.reference_country,
            "factors": sorted(manifest.factors),
            "entries": [entries[name] for name in finished],
            "timing": {name: timing[name] for name in finished},
        }
        if entries:
            write_json(out_dir / "ledger.json", ledger)

    write_decompositions(decompositions_from_ledger(ledger), out_dir / "decomposition")
    write_json(out_dir / "interconnection_report.json", compare_interconnection(manifest))
    return ledger


def _certified(entry: dict) -> bool:
    """Whether a ledger entry is optimal and passed its certificate check.

    Only such an entry's numbers are resumed, handed on as a warm start,
    decomposed or compared.
    """
    return entry.get("status") == "optimal" and bool((entry.get("certificate") or {}).get("ok"))


def _finished(out_dir: Path, entry: dict, parent: bool) -> bool:
    """Whether ``entry`` is certified, its solution CSV exists and its state
    record reads back as a JSON object, one holding ``basis`` for a ``parent``.
    """
    csv_path, meta_path = _state_paths(out_dir, entry["state"])
    if not (_certified(entry) and csv_path.exists()):
        return False
    try:
        record = json.loads(meta_path.read_text())
    except (OSError, ValueError):  # missing, not UTF-8, or not JSON
        return False
    return isinstance(record, dict) and (not parent or "basis" in record)


def read_ledger(path: str | Path) -> dict:
    """The ledger document at ``path``.

    ``SweepError`` unless it is a JSON object whose ``factors`` are
    distinct integers in 1..6, whose ``timing``, if any, holds numbers,
    and whose ``entries`` are objects, each with a string ``state`` and
    ``status``, a ``certificate`` that is null or has a boolean ``ok``,
    and ``metrics`` of finite numbers, among them every ``ENTRY_METRICS``
    name when the status is ``optimal``; a failed state's are empty.
    """
    try:
        ledger = json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise SweepError(f"ledger {path} is not valid JSON: {exc}") from None
    if not isinstance(ledger, dict):
        raise SweepError(f"ledger {path} is not a JSON object")
    factors = ledger.get("factors")
    if not (
        isinstance(factors, list)
        and all(type(f) is int and f in FACTOR_NAMES for f in factors)
        and len(set(factors)) == len(factors)
    ):
        raise SweepError(f"ledger {path}: factors must be a list of distinct integers in 1..6")
    timing = ledger.get("timing", {})
    if not (isinstance(timing, dict) and all(type(t) in (int, float) for t in timing.values())):
        raise SweepError(f"ledger {path}: timing must be an object of numbers")
    entries = ledger.get("entries")
    if not (
        isinstance(entries, list)
        and all(isinstance(e, dict) and isinstance(e.get("state"), str) for e in entries)
    ):
        raise SweepError(
            f"ledger {path}: entries must be a list of objects, each with a string state"
        )
    for entry in entries:
        where = f"ledger {path}: entry {entry['state']}"
        if not isinstance(entry.get("status"), str):
            raise SweepError(f"{where}: status must be a string")
        cert = entry.get("certificate")
        if not (cert is None or isinstance(cert, dict) and isinstance(cert.get("ok"), bool)):
            raise SweepError(f"{where}: certificate must be null or an object with a boolean ok")
        metrics = entry.get("metrics")
        if not (isinstance(metrics, dict) and all(map(_is_finite, metrics.values()))):
            raise SweepError(f"{where}: metrics must be an object of finite numbers")
        lacking = [name for name in ENTRY_METRICS if name not in metrics]
        if entry["status"] == "optimal" and lacking:
            raise SweepError(f"{where}: optimal, but its metrics lack {lacking[0]}")
    return ledger


def _is_finite(value) -> bool:
    """Whether ``value`` is a finite JSON number (not a boolean)."""
    return type(value) in (int, float) and math.isfinite(value)


def resume(manifest: RunManifest, ledger_path: str | Path) -> dict:
    """Finish the partial sweep whose ledger is at ``ledger_path``.

    ``run_sweep`` keeps each completed state that ``_finished`` accepts
    and solves the others.
    """
    digest = manifest.digest()  # a broken system is named before the ledger
    ledger = read_ledger(ledger_path)
    if ledger.get("schema") != LEDGER_SCHEMA:
        raise SweepError(
            f"ledger schema {ledger.get('schema')!r} is not {LEDGER_SCHEMA!r}; rerun the sweep"
        )
    if ledger.get("manifest_hash") != digest:
        raise SweepError("ledger manifest hash does not match this manifest")
    return run_sweep(manifest, ledger)


def decompositions_from_ledger(ledger: dict) -> list[FactorDecomposition]:
    """Shared-interactions decompositions of every ledger metric.

    The ledger must hold exactly one optimal, certified entry for each
    state of its factor design, all with the same metrics. One
    ``SweepError`` names every failed or uncertified state, in ledger
    order; a missing or repeated state, or one with other metrics,
    raises ``SweepError`` naming it.
    """
    factors = tuple(ledger["factors"])
    entries = ledger["entries"]
    if not entries:
        raise SweepError("empty ledger")
    failed = [
        f"scenario {e['state']} did not solve to optimality: {e['status']}"
        if e["status"] != "optimal"
        else f"scenario {e['state']} failed the optimality certificate check"
        for e in entries
        if not _certified(e)
    ]
    if failed:
        raise SweepError("; ".join(failed))
    metrics = sorted(entries[0]["metrics"])
    by_state: dict[str, dict] = {}
    for entry in entries:
        name = entry["state"]
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

    fixed = frozenset(FACTOR_NAMES) - frozenset(factors)
    decomps = []
    for metric in metrics:
        values = {
            s.factors - fixed: float(by_state[s.name]["metrics"][metric])
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
    full = FactorState(frozenset(FACTOR_NAMES)).name
    isolated = FactorState(frozenset(FACTOR_NAMES) - {INTERCONNECTION}).name
    by_state = {e["state"]: e for e in ledger["entries"]}
    for needed in (full, isolated):
        if needed not in by_state or not _certified(by_state[needed]):
            raise SweepError(f"comparison needs a certified optimal solve of {needed}")

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
