"""Command-line surface.

Exit code contract: 0 on success, 1 on domain errors (invalid systems,
infeasible scenarios, broken ledgers) and on files that cannot be
written, 2 on usage errors (bad flags, missing input files, malformed
state strings).
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import click

from .factorize import decomposition_rows, extract_storage_metrics, write_decompositions
from .harmonize import (
    FACTOR_NUMBERS,
    FactorState,
    HarmonizeError,
    apply_factor_state,
    derive_reference_shares,
)
from .lp import assemble, write_solution_csv
from .model import GridFactorError
from .mps import write_mps
from .residual import (
    capacities_from_result,
    peak_coincidence,
    peak_hour_cross_section,
    residual_series,
    write_cross_section_csv,
    write_events_csv,
)
from .serialize import read_system, write_json, write_system
from .solve import solve_certified
from .sweep import (
    RunManifest,
    VERSION,
    decompositions_from_ledger,
    read_ledger,
    resume as resume_sweep,
    run_sweep,
)
from .synth import MAX_COUNTRIES, synthesize_system


def _state(ctx, param, value: str) -> FactorState:
    """Parse a ``--state`` value."""
    try:
        return FactorState.parse(value)
    except HarmonizeError as exc:
        raise click.BadParameter(str(exc)) from None


def _parse_factors(text: str) -> tuple[int, ...]:
    numbers = []
    for token in text.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token.isdigit() and int(token) in FACTOR_NUMBERS.values():
            numbers.append(int(token))
        elif token in FACTOR_NUMBERS:
            numbers.append(FACTOR_NUMBERS[token])
        else:
            raise click.UsageError(f"unknown factor {token!r}")
    if not numbers or len(set(numbers)) != len(numbers):
        raise click.UsageError("factors must be a non-empty unique list")
    return tuple(sorted(numbers))


def _domain_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (GridFactorError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    return wrapper


def _scenario_lp(manifest, state: FactorState, reference: str | None):
    """Read ``manifest``, apply ``state`` and assemble: the scenario and its LP."""
    spec = read_system(manifest)
    shares = None
    if state.harmonizes:
        if reference is None:
            raise click.UsageError(
                f"state {state.name} harmonizes at least one factor; --reference is required"
            )
        shares = derive_reference_shares(spec, reference)
    scenario = apply_factor_state(spec, state, shares)
    lp, _ = assemble(scenario)
    return scenario, lp


@click.group()
@click.version_option(VERSION, prog_name="gridfactor")
def main():
    """Multi-region capacity-expansion scenarios and factor attribution."""


@main.command("validate")
@click.argument("manifest", type=click.Path(exists=True, dir_okay=False))
@_domain_errors
def cmd_validate(manifest):
    """Check a system manifest against all model invariants."""
    read_system(manifest)
    click.echo("ok")


@main.command("solve")
@click.argument("manifest", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--state", callback=_state, metavar="FACTOR-STATE", default="f_123456", show_default=True
)
@click.option("--reference", default=None, help="Reference country for harmonization.")
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Solution CSV path.")
@click.option("--mps-out", type=click.Path(dir_okay=False), default=None)
@_domain_errors
def cmd_solve(manifest, state, reference, out, mps_out):
    """Build and solve one scenario; print objective and storage metrics."""
    scenario, lp = _scenario_lp(manifest, state, reference)
    if mps_out:
        write_mps(lp, mps_out)
    result = solve_certified(lp, f"scenario {state.name}")
    if out:
        write_solution_csv(out, lp, result.primal)
    click.echo(f"state {state.name}: objective {result.objective!r} EUR")
    for name, value in extract_storage_metrics(scenario, lp, result)[0].items():
        click.echo(f"  {name}: {value!r}")


@main.command("sweep")
@click.argument("manifest", type=click.Path(exists=True, dir_okay=False))
@click.option("--reference", required=True)
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--factors", default="1,2,3,4,5,6", show_default=True)
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--fixture-label", default="default", show_default=True)
@click.option("--export-mps", is_flag=True)
@click.option("--resume", "do_resume", is_flag=True, help="Continue a partial sweep.")
@_domain_errors
def cmd_sweep(manifest, reference, out_dir, factors, workers, fixture_label, export_mps, do_resume):
    """Run the factorial sweep and write ledger plus decomposition files."""
    run = RunManifest(
        system_manifest=manifest,
        reference_country=reference,
        out_dir=out_dir,
        factors=_parse_factors(factors),
        fixture_label=fixture_label,
        workers=workers,
        export_mps=export_mps,
    )
    ledger_path = Path(out_dir) / "ledger.json"
    if do_resume:
        if not ledger_path.exists():
            raise click.UsageError("--resume requires an existing ledger")
        ledger = resume_sweep(run, ledger_path)
    else:
        ledger = run_sweep(run)
    click.echo(f"sweep complete: {len(ledger['entries'])} states in {out_dir}")


@main.command("factorize")
@click.argument("ledger", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_prefix", default=None, help="Output path prefix.")
@_domain_errors
def cmd_factorize(ledger, out_prefix):
    """Decompose a completed sweep's metrics into factor contributions."""
    decomps = decompositions_from_ledger(read_ledger(ledger))
    if out_prefix:
        write_decompositions(decomps, out_prefix)
    for d in decomps:
        click.echo(f"{d.metric}: INT {d.int_value!r}")
        for row in decomposition_rows(d):
            if row["term"] == "interaction":
                continue
            share = f" (share {row['share']!r})" if row["share"] != "" else ""
            click.echo(f"  {row['term']}: {row['value']!r}{share}")


@main.command("residual")
@click.argument("manifest", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--state", callback=_state, metavar="FACTOR-STATE", default="f_23456", show_default=True
)
@click.option("--reference", default=None)
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--exclude", default="", help="Comma-separated countries to drop from events.")
@_domain_errors
def cmd_residual(manifest, state, reference, out_dir, exclude):
    """Residual-load analytics from the optimal capacities of one scenario."""
    excluded = tuple(c.strip() for c in exclude.split(",") if c.strip())
    scenario, lp = _scenario_lp(manifest, state, reference)
    unknown = sorted(set(excluded) - {c.code for c in scenario.countries})
    if unknown:
        raise click.UsageError(f"--exclude names no country of the system: {unknown}")
    result = solve_certified(lp, f"scenario {state.name}")
    caps = capacities_from_result(scenario, lp, result)
    series = residual_series(scenario, caps)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_events_csv(series, out / "events.csv", exclude=excluded)
    if len(scenario.countries) >= 2:
        write_cross_section_csv(
            peak_hour_cross_section(scenario, caps), out / "peak_cross_section.csv"
        )
    sum_peaks, system_peak = peak_coincidence(series)
    write_json(
        out / "coincidence.json",
        {
            "source_state": state.name,
            "sum_of_country_peaks_mwh": sum_peaks,
            "system_peak_mwh": system_peak,
        },
    )
    click.echo(f"residual analytics for {state.name} written to {out_dir}")


@main.command("synthesize")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option(
    "--countries", type=click.IntRange(min=1, max=MAX_COUNTRIES), default=2, show_default=True
)
@click.option("--horizon", type=click.IntRange(min=2), default=336, show_default=True)
@click.option("--correlation", type=click.FloatRange(min=-1, max=1), default=-0.8, show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@_domain_errors
def cmd_synthesize(seed, countries, horizon, correlation, out_dir):
    """Generate a seed-reproducible synthetic system on disk."""
    spec = synthesize_system(
        seed=seed, n_countries=countries, horizon=horizon, correlation=correlation
    )
    path = write_system(spec, out_dir)
    click.echo(str(path))


@main.command("export-lp")
@click.argument("manifest", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--state", callback=_state, metavar="FACTOR-STATE", default="f_123456", show_default=True
)
@click.option("--reference", default=None)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@_domain_errors
def cmd_export_lp(manifest, state, reference, out):
    """Write one scenario's LP as MPS, the model HiGHS solves."""
    _, lp = _scenario_lp(manifest, state, reference)
    write_mps(lp, out)
    click.echo(out)


if __name__ == "__main__":
    main()
