"""Benchmark workloads: fixtures, timed units and output checks.

Every call into the program goes through a module attribute
(``serialize.read_system``, ``lp.assemble`` ...), never through a name
bound at import time, so that ``tracing.Tracer`` can rebind those
attributes and record spans without editing the program.
"""

from __future__ import annotations

import csv
import importlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

model = importlib.import_module("gridfactor.model")
synth = importlib.import_module("gridfactor.synth")
serialize = importlib.import_module("gridfactor.serialize")
harmonize = importlib.import_module("gridfactor.harmonize")
lp_mod = importlib.import_module("gridfactor.lp")
solve_mod = importlib.import_module("gridfactor.solve")
factorize = importlib.import_module("gridfactor.factorize")
sweep = importlib.import_module("gridfactor.sweep")
residual = importlib.import_module("gridfactor.residual")

REFERENCE_COUNTRY = "AA"
CORRELATION = -0.8
REFERENCE_SEED = 7
REFERENCE_FILE = Path(__file__).with_name("reference_seed7.json")
OBJECTIVE_RTOL = 1e-6  # objectives against recorded values and against c.x
FEASIBILITY_TOL = 1e-6  # scaled by 1 + max|rhs|, as verify_certificate does
IDENTITY_TOL = 1e-9  # FactorDecomposition.identity_residual()
TINY_COEFF = 1e-12  # stored matrix entries below this count as lp.tiny_coeffs
DECOMPOSED = (*factorize.STORAGE_METRICS, "objective_eur")  # one decomposition each


@dataclass(frozen=True)
class Workload:
    """One input set: a full sweep, or a batch of single-state solves.

    ``systems`` independent synthetic systems (seeds derived from the run
    seed) are solved back to back in one timed unit, so that a run's time
    does not hinge on how hard one random system happens to be.
    """

    name: str
    kind: str  # "sweep" | "solve" | "residual"
    countries: int
    horizon: int
    systems: int = 1
    state: str = "f_123456"  # solve and residual kinds
    factors: tuple[int, ...] = (1, 2, 3, 4, 5, 6)  # sweep kind
    workers: int = 1  # sweep pool size; the run needs this many CPUs


# Why each was chosen: BENCHMARK.json and RATIONALE.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-2x168", "sweep", countries=2, horizon=168, workers=2),
        Workload("solve-3x168x12", "solve", countries=3, horizon=168, systems=12),
        Workload(
            "residual-3x168x16", "residual", countries=3, horizon=168, systems=16, state="f_23456"
        ),
    )
}


def system_seeds(workload: Workload, seed: int) -> list[int]:
    if workload.systems == 1:
        return [seed]
    return [seed * 100 + i for i in range(workload.systems)]


def write_fixtures(workload: Workload, seed: int, directory: Path) -> list[Path]:
    """Synthesize and write the workload's systems; returns manifest paths."""
    manifests = []
    for s in system_seeds(workload, seed):
        spec = synth.synthesize_system(
            seed=s,
            n_countries=workload.countries,
            horizon=workload.horizon,
            correlation=CORRELATION,
        )
        manifests.append(serialize.write_system(spec, directory / f"system-{s}"))
    return manifests


def load_reference(workload: Workload, seed: int) -> dict[str, float] | None:
    """Objectives recorded from the seed commit, or None off the default seed."""
    if seed != REFERENCE_SEED or not REFERENCE_FILE.exists():
        return None
    return json.loads(REFERENCE_FILE.read_text()).get(workload.name)


def lp_shape(lp) -> dict[str, int]:
    return {
        "cols": lp.n_cols,
        "rows": lp.n_rows,
        "nnz": int(lp.A.nnz),
        "tiny_coeffs": int(np.count_nonzero(np.abs(lp.A.data) < TINY_COEFF)),
    }


def _objective_matches(value: float, expected: float) -> bool:
    return abs(value - expected) <= OBJECTIVE_RTOL * max(1.0, abs(expected))


def _reference_problem(reference: dict[str, float] | None, label: str, value: float):
    if reference is None:
        return None
    recorded = reference.get(label)
    if recorded is None:
        return "no recorded objective"
    if not _objective_matches(value, recorded):
        return f"objective {value!r} != recorded {recorded!r}"
    return None


# --------------------------------------------------------------------------
# Single-state paths (gridfactor solve / gridfactor residual)


def state_unit(workload: Workload, manifests: list[Path], out_dir: Path) -> list[dict]:
    """Timed unit: the CLI's solve or residual path once per system."""
    state = harmonize.FactorState.parse(workload.state)
    outcomes = []
    for manifest in manifests:
        spec = serialize.read_system(manifest)
        scenario = harmonize.apply_factor_state(spec, state, None)
        lp, _ = lp_mod.assemble(scenario)
        result = solve_mod.solve(lp)
        outcome = {
            "label": f"{manifest.parent.name}/{state.name}",
            "status": result.status,
            "objective": float(result.objective),
            "shape": lp_shape(lp),
        }
        if result.status == "optimal":
            outcome["certificate_ok"] = solve_mod.verify_certificate(lp, result).ok
            factorize.extract_storage_metrics(scenario, lp, result)
            if workload.kind == "residual":
                outcome.update(
                    _residual_outputs(scenario, lp, result, out_dir / manifest.parent.name)
                )
        outcomes.append(outcome)
    return outcomes


def _residual_outputs(scenario, lp, result, out: Path) -> dict:
    caps = residual.capacities_from_result(scenario, lp, result)
    series = residual.residual_series(scenario, caps)
    out.mkdir(parents=True, exist_ok=True)
    events_csv = out / "events.csv"
    residual.write_events_csv(series, events_csv)
    residual.peak_hour_cross_section(scenario, caps)
    residual.peak_coincidence(series)
    return {"events_csv": str(events_csv)}


def check_states(outcomes: list[dict], reference: dict[str, float] | None) -> dict[str, str]:
    """The first problem found in each failed output of ``state_unit``."""
    problems = {}
    for o in outcomes:
        problem = _state_problem(o, reference)
        if problem:
            problems[o["label"]] = problem
    return problems


def _state_problem(o: dict, reference) -> str | None:
    if o["status"] != "optimal":
        return f"status {o['status']}"
    if not o["certificate_ok"]:
        return "optimality certificate failed"
    return _reference_problem(reference, o["label"], o["objective"])


def unparsed_event_values(outcomes: list[dict]) -> int:
    """Numeric fields of the events CSVs that ``float()`` cannot read.

    ``write_events_csv`` writes ``repr()`` of NumPy scalars, which under
    NumPy 2 reads ``np.float64(...)``. The count makes that format defect
    visible without failing the states, whose numbers are right.
    """
    bad = 0
    for o in outcomes:
        if "events_csv" not in o:
            continue
        with open(o["events_csv"], newline="") as fh:
            for row in csv.DictReader(fh):
                for key in ("peak_cumulative_mwh", "gross_positive_mwh"):
                    try:
                        float(row[key])
                    except ValueError:
                        bad += 1
    return bad


# --------------------------------------------------------------------------
# Sweep path (gridfactor sweep)


def sweep_manifest(workload: Workload, system: Path, out_dir: Path, workers: int):
    return sweep.RunManifest(
        system_manifest=str(system),
        reference_country=REFERENCE_COUNTRY,
        out_dir=str(out_dir),
        factors=workload.factors,
        workers=workers,
    )


def sweep_unit(run) -> str | None:
    """Timed unit: the two calls ``gridfactor sweep`` makes.

    A domain error (a non-optimal state, say) is returned, not raised,
    so that the check counts it instead of the run aborting.
    """
    try:
        sweep.run_sweep(run)
        sweep.compare_interconnection(run)
    except model.GridFactorError as exc:
        return str(exc)
    return None


def sweep_outputs(run) -> list[str]:
    """Labels of the outputs a sweep check examines."""
    states = [s.name for s in harmonize.enumerate_subset_states(run.factors)]
    return [*states, "reference_lp", *(f"decomposition:{m}" for m in DECOMPOSED), "report"]


def check_sweep(
    run, error: str | None, reference: dict[str, float] | None
) -> tuple[dict[str, str], list[dict]]:
    """First problem per failed output of a sweep, and re-assembled LP shapes.

    The outputs are every state LP, the reference LP, every
    decomposition and the interconnection report (``sweep_outputs``).
    Each optimal state is rebuilt from the persisted reference shares;
    its solution CSV must be primal-feasible with c.x equal to the
    ledger objective.
    """
    out = Path(run.out_dir)
    ledger_path = out / "ledger.json"
    if not ledger_path.exists():
        return {label: f"no ledger: {error}" for label in sweep_outputs(run)}, []
    ledger = sweep.read_ledger(ledger_path)
    by_state = {e["state"]: e for e in ledger["entries"]}
    base = serialize.read_system(run.system_manifest)
    shares = _read_shares(out / "reference_shares.json")

    problems = {}
    shapes = []
    for state in harmonize.enumerate_subset_states(run.factors):
        entry = by_state.get(state.name)
        if entry is None or entry["status"] != "optimal":
            problems[state.name] = f"status {entry['status'] if entry else 'missing'}"
            continue
        problem = _reference_problem(reference, state.name, entry["objective"])
        if problem is None and shares is None:
            problem = "no reference shares to rebuild the LP from"
        if problem is None:
            lp, _ = lp_mod.assemble(harmonize.apply_factor_state(base, state, shares))
            shapes.append(lp_shape(lp))
            csv_path = out / "states" / f"{state.name}.csv"
            problem = _solution_problem(lp, csv_path, entry["objective"])
        if problem:
            problems[state.name] = problem

    if shares is None:
        problems["reference_lp"] = "no reference_shares.json"
    else:
        problem = _reference_problem(reference, "reference_lp", shares.provenance["objective"])
        if problem:
            problems["reference_lp"] = problem

    decomps, why = {}, "metric missing from the ledger"
    try:
        decomps = {d.metric: d for d in sweep.decompositions_from_ledger(ledger)}
    except (model.GridFactorError, KeyError) as exc:
        why = repr(exc)
    for metric in DECOMPOSED:
        d = decomps.get(metric)
        if d is None:
            problems[f"decomposition:{metric}"] = f"not computed: {why}"
        elif d.identity_residual() > IDENTITY_TOL:
            problems[f"decomposition:{metric}"] = f"identity residual {d.identity_residual()!r}"

    if error is not None:
        problems["report"] = error
    return problems, shapes


def _read_shares(path: Path):
    if not path.exists():
        return None
    doc = json.loads(path.read_text())
    return harmonize.ReferenceShares(
        reference_country=doc["reference_country"],
        offshore_share=doc["offshore_share"],
        technology_shares={
            tid: harmonize.CapacityShares(**s) for tid, s in doc["technology_shares"].items()
        },
        provenance=doc["provenance"],
    )


def _solution_problem(lp, path: Path, objective: float) -> str | None:
    """Primal feasibility of a persisted solution and c.x == ledger objective."""
    if not path.exists():
        return "solution CSV missing"
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if tuple(r["column"] for r in rows) != lp.col_names:
        return "solution CSV columns differ from the re-assembled LP"
    x = np.array([float(r["value"]) for r in rows])
    slack = lp.rhs - lp.A @ x
    violation = np.where(
        lp.relations == "<", -slack, np.where(lp.relations == ">", slack, np.abs(slack))
    )
    worst = max(
        float(violation.max(initial=0.0)),
        float(np.maximum(lp.lb - x, 0.0).max(initial=0.0)),
        float(np.maximum(x - lp.ub, 0.0).max(initial=0.0)),
    )
    if worst > FEASIBILITY_TOL * (1.0 + float(np.abs(lp.rhs).max(initial=0.0))):
        return f"solution CSV is primal infeasible by {worst!r}"
    if not _objective_matches(float(lp.c @ x), objective):
        return f"c.x {float(lp.c @ x)!r} != ledger objective {objective!r}"
    return None


def clear(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
