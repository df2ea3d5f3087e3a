"""gridfactor benchmark: end-to-end and per-layer metrics of three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-2x168 --seed 7 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

The program is imported from ``src/`` next to this directory; inputs are
synthesized from ``--seed`` outside the timed region. With ``--trace 0``
the timed unit repeats until ``--seconds`` have passed and the
end-to-end metrics are medians over the repetitions; times are scaled
to the host's reference speed (``calibration.py``) and the measured
ones are printed beside them. With ``--trace 1``
one untraced and one traced unit run at the same worker count and the
per-layer metrics come from the traced one. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_PROBES = 5
SAMPLE_PERIOD_S = 0.1  # a sample runs the kernel and reads each smaps_rollup, ~1 ms apiece

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}
PER_LAYER = {
    "serialize.read_system.calls": "count",
    "serialize.read_system.self_s": "s",
    "harmonize.derive_reference_shares.self_s": "s",
    "harmonize.apply_factor_state.calls": "count",
    "harmonize.apply_factor_state.self_s": "s",
    "lp.assemble.calls": "count",
    "lp.assemble.self_s": "s",
    "lp.cols": "count",
    "lp.rows": "count",
    "lp.nnz": "count",
    "lp.tiny_coeffs": "count",
    "mps.write_mps.calls": "count",
    "mps.write_mps.self_s": "s",
    "mps.write_mps.bytes": "bytes",
    "solve.solve.calls": "count",
    "solve.solve.self_s": "s",
    "solve.iterations": "count",
    "solve.nonoptimal": "count",
    "solve.verify_certificate.self_s": "s",
    "solve.cert_failures": "count",
    "factorize.extract_storage_metrics.self_s": "s",
    "factorize.decomposition.self_s": "s",
    "sweep.state.p50_s": "s",
    "sweep.state.p80_s": "s",
    "sweep.self_s": "s",
    "sweep.spec_digest.self_s": "s",
    "sweep.compare_interconnection.self_s": "s",
    "sweep.parallel_efficiency": "fraction",
    "residual.residual_series.self_s": "s",
    "residual.positive_events.self_s": "s",
    "residual.peak_hour_cross_section.self_s": "s",
    "residual.events": "count",
    "residual.events_csv_unparsed": "count",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_frac": "fraction",
}

# Time spent in a fresh interpreter to import the program and load a system.
_SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import gridfactor
gridfactor.read_system(sys.argv[2])
print(repr(time.perf_counter() - t0))
"""


def _import_program():
    """Import gridfactor from this checkout's src/ or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import gridfactor
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import gridfactor from {SRC}: {exc}")
    if Path(gridfactor.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: gridfactor resolved outside {SRC}: {gridfactor.__file__}")


def _cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _available_cpus() -> int:
    return len(os.sched_getaffinity(0))


def _pss_kib(pid: int) -> int:
    """Proportional set size: shared pages are split among their users."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:  # the process has ended
        pass
    return 0


def _children(pid: int) -> list[int]:
    kids = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:
            continue
        if int(stat.rsplit(b")", 1)[1].split()[1]) == pid:
            kids.append(int(name))
    return kids


class Sampler(threading.Thread):
    """Samples, every 0.1 s inside ``with``, memory and the host's speed.

    Memory is the summed Pss of this process and its children: forked
    pool workers share the parent's pages, and Pss charges each shared
    page once in all, where the sum of RSS would count it per process.
    Speed is the CPU time of the calibration kernel (``calibration.py``).
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.peak_kib = 0
        self.kernel_cpu: list[float] = []
        self._done = threading.Event()

    def run(self):
        pid = os.getpid()
        cpus = sorted(os.sched_getaffinity(0))
        for sample in itertools.count():
            # Each CPU in turn: pool workers run on all of them. Pid 0 is
            # this thread alone; the rest of the process keeps its CPUs.
            os.sched_setaffinity(0, {cpus[sample % len(cpus)]})
            self.kernel_cpu.append(calibration.kernel_cpu_seconds())
            pss = _pss_kib(pid) + sum(_pss_kib(kid) for kid in _children(pid))
            self.peak_kib = max(self.peak_kib, pss)
            if self._done.wait(SAMPLE_PERIOD_S):
                break

    def cpu_seconds(self) -> float:
        """The sampler's own CPU time so far, to be left out of ``cpu_s``."""
        return time.clock_gettime(time.pthread_getcpuclockid(self.ident))

    def scale(self) -> float:
        return calibration.scale(self.kernel_cpu)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self._done.set()
        self.join()


def _release_free_memory() -> None:
    """Hand memory the harness freed back to the OS before a timed unit."""
    gc.collect()
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)  # glibc only
    if trim is not None:
        trim(0)


def run_stamp(seed: int, workers: int) -> dict:
    import numpy
    import scipy

    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
    )
    sources = hashlib.sha256()
    for path in sorted((SRC / "gridfactor").glob("*.py")):
        sources.update(path.read_bytes())
    return {
        "seed": seed,
        "commit": commit.stdout.strip() if commit.returncode == 0 else None,
        "source_sha256": sources.hexdigest(),
        "cpus": _available_cpus(),
        "workers": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


class UnitTimes(NamedTuple):
    wall: float  # s, the timed region
    cpu: float  # s, this process and its pool workers, less the sampler
    peak_mb: float  # peak summed Pss
    state_seconds: float  # summed per-state seconds of the sweep ledger
    scale: float  # to seconds at the calibration kernel's reference speed


class Bench:
    """One workload's fixtures, timed units and the checks of their outputs."""

    def __init__(self, workload, seed: int, work: Path):
        import workloads

        self.w = workloads
        self.workload = workload
        self.work = work
        self.manifests = workloads.write_fixtures(workload, seed, work / "fixtures")
        self.reference = workloads.load_reference(workload, seed)
        self.attempted = 0
        self.problems: dict[str, str] = {}
        self.shapes: list[dict] = []  # LP shapes of the last unit
        self.unparsed = 0  # unreadable events-CSV values of the last unit
        self.units = 0

    def unit(self, workers: int, tracer=None) -> UnitTimes:
        """Run and check one timed unit."""
        w = self.w
        out = self.work / f"unit-{self.units}"
        self.units += 1
        sweeping = self.workload.kind == "sweep"
        if sweeping:
            run = w.sweep_manifest(self.workload, self.manifests[0], out, workers)
        _release_free_memory()
        with Sampler() as sampler:
            cpu0 = _cpu_seconds() - sampler.cpu_seconds()
            t0 = time.perf_counter()
            with tracer.installed() if tracer else contextlib.nullcontext():
                if sweeping:
                    result = w.sweep_unit(run)
                else:
                    result = w.state_unit(self.workload, self.manifests, out)
            wall = time.perf_counter() - t0
            cpu = _cpu_seconds() - sampler.cpu_seconds() - cpu0

        if sweeping:
            problems, self.shapes = w.check_sweep(run, result, self.reference)
            labels = w.sweep_outputs(run)
            ledger = out / "ledger.json"
            timing = json.loads(ledger.read_text())["timing"] if ledger.exists() else {}
            state_seconds = sum(timing.values())
        else:
            problems = w.check_states(result, self.reference)
            labels = [o["label"] for o in result]
            self.shapes = [o["shape"] for o in result]
            self.unparsed = w.unparsed_event_values(result)
            state_seconds = 0.0
        self.attempted += len(labels)
        self.problems.update({f"unit {self.units - 1} {k}": v for k, v in problems.items()})
        w.clear(out)
        return UnitTimes(wall, cpu, sampler.peak_kib / 1024.0, state_seconds, sampler.scale())

    def ok_frac(self) -> float:
        return 1.0 - len(self.problems) / self.attempted


def measure_end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Medians over the run's units, in seconds at the reference speed."""
    started = time.perf_counter()
    units = []
    while True:
        units.append(bench.unit(bench.workload.workers))
        if time.perf_counter() - started + units[-1].wall > seconds:
            break
    setups, setup_scales = [], []
    for _ in range(SETUP_PROBES):
        with Sampler() as sampler:
            setups.append(_setup_seconds(bench.manifests[0]))
        setup_scales.append(sampler.scale())
    metrics = {
        "wall_s": statistics.median(u.wall * u.scale for u in units),
        "cpu_s": statistics.median(u.cpu * u.scale for u in units),
        "setup_s": statistics.median(t * k for t, k in zip(setups, setup_scales)),
        # The first unit, as in a fresh ``gridfactor`` process; later
        # units run on a heap the earlier ones have grown.
        "peak_rss_mb": units[0].peak_mb,
        "ok_frac": bench.ok_frac(),
    }
    detail = {
        "measured": {
            "wall_s": [u.wall for u in units],
            "cpu_s": [u.cpu for u in units],
            "setup_s": setups,
        },
        "scales": {"units": [u.scale for u in units], "setups": setup_scales},
        "peaks_mb": [u.peak_mb for u in units],
    }
    return metrics, detail


def _setup_seconds(manifest: Path) -> float:
    probe = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(manifest)],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(probe.stdout.strip().splitlines()[-1])


def measure_per_layer(bench: Bench) -> tuple[dict, dict]:
    """Per-layer metrics from one traced unit, plus the tracing overhead.

    A sweep is traced at one worker so that every span stays in this
    process; its untraced comparison uses one worker too. The parallel
    efficiency comes from a separate untraced unit at the workload's
    worker count: summed per-state seconds over workers x wall seconds.
    """
    import tracing

    extra = {}
    efficiency = 0.0
    workers = bench.workload.workers
    if bench.workload.kind == "sweep":
        parallel = bench.unit(workers)
        efficiency = parallel.state_seconds / (workers * parallel.wall)
        extra["parallel_wall_s"] = parallel.wall
        workers = 1
    untraced = bench.unit(workers).wall
    tracer = tracing.Tracer()
    traced = bench.unit(workers, tracer).wall
    metrics = tracing.layer_metrics(tracer.spans)
    for key in ("cols", "rows", "nnz", "tiny_coeffs"):
        metrics[f"lp.{key}"] = sum(s[key] for s in bench.shapes)
    metrics["residual.events_csv_unparsed"] = bench.unparsed
    metrics["sweep.parallel_efficiency"] = efficiency
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.traced_wall_s"] = traced
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    return metrics, {**extra, "spans": tracer.dump()}


def run_all(args) -> int:
    """Each workload in a fresh process; one table of every metric."""
    import workloads

    units = PER_LAYER if args.trace else END_TO_END
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        cmd += ["--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            return 1
        results[name] = json.loads(lines[-1])
    width = max(len(m) for m in units)
    print(f"{'metric':<{width}}  {'unit':<8}  " + "  ".join(f"{n:>18}" for n in results))
    for metric, unit in units.items():
        values = [results[n]["metrics"][metric]["value"] for n in results]
        print(f"{metric:<{width}}  {unit:<8}  " + "  ".join(f"{v:>18.6g}" for v in values))
    fracs = [r["failed"] / r["attempted"] for r in results.values()]
    print(f"{'failed_frac':<{width}}  {'fraction':<8}  " + "  ".join(f"{f:>18.6g}" for f in fracs))
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None, catalog=None) -> int:
    _import_program()
    sys.path.insert(0, str(HERE))
    import workloads

    catalog = catalog or workloads.WORKLOADS
    args = parse_args(argv, list(catalog))
    if args.workload == "all":
        return run_all(args)
    workload = catalog[args.workload]
    if workload.workers > _available_cpus():
        sys.exit(
            f"perfbench: {workload.name} runs {workload.workers} workers"
            f" but only {_available_cpus()} CPU(s) are available"
        )
    if not Path("/proc/self/smaps_rollup").exists():
        sys.exit("perfbench: peak_rss_mb needs /proc/<pid>/smaps_rollup (Linux)")

    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        bench = Bench(workload, args.seed, work)
        if args.trace:
            metrics, detail = measure_per_layer(bench)
            units = PER_LAYER
        else:
            metrics, detail = measure_end_to_end(bench, args.seconds)
            units = END_TO_END
    finally:
        workloads.clear(work)

    stamp = run_stamp(args.seed, workload.workers)
    failed = len(bench.problems)
    record = {
        "workload": workload.name,
        "trace": args.trace,
        "stamp": stamp,
        "units": bench.units,
        "attempted": bench.attempted,
        "problems": bench.problems,
        "metrics": metrics,
        **detail,
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    print(f"workload {workload.name}: seed {args.seed}, {bench.units} unit(s), trace {args.trace}")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    for label, problem in sorted(bench.problems.items()):
        print(f"FAILED {label}: {problem}")
    for name, unit in units.items():
        print(f"  {name:<42} {metrics[name]!r} {unit}")
    for name, values in detail.get("measured", {}).items():
        print(f"  {name + ' (measured)':<42} {statistics.median(values)!r} s")
    print(f"  {'failed_frac':<42} {failed / bench.attempted!r} ({failed}/{bench.attempted})")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": bench.attempted,
                "failed": failed,
                "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
