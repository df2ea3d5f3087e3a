"""In-memory spans around the program's public functions.

``Tracer.installed()`` rebinds each traced function, in the module that
defines it and in every loaded program module that holds it under the
same name, to a wrapper that records a span. A function the program no
longer defines is skipped, so its layer reads 0. Spans live in memory
until the run ends. A ``sweep.state`` span starts a new trace id; every
other span takes its parent's id, so the spans of one factor state share
an id.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

# span name -> (defining module, attribute)
TRACED = {
    "serialize.read_system": ("serialize", "read_system"),
    "harmonize.derive_reference_shares": ("harmonize", "derive_reference_shares"),
    "harmonize.apply_factor_state": ("harmonize", "apply_factor_state"),
    "lp.assemble": ("lp", "assemble"),
    "mps.write_mps": ("mps", "write_mps"),
    "solve.solve": ("solve", "solve"),
    "solve.verify_certificate": ("solve", "verify_certificate"),
    "factorize.extract_storage_metrics": ("factorize", "extract_storage_metrics"),
    "factorize.decomposition": ("factorize", "shared_interactions_totals"),
    "sweep.run_sweep": ("sweep", "run_sweep"),
    "sweep.state": ("sweep", "_run_state"),
    "sweep.spec_digest": ("sweep", "spec_digest"),
    "sweep.compare_interconnection": ("sweep", "compare_interconnection"),
    "residual.capacities_from_result": ("residual", "capacities_from_result"),
    "residual.residual_series": ("residual", "residual_series"),
    "residual.positive_events": ("residual", "positive_events"),
    "residual.peak_hour_cross_section": ("residual", "peak_hour_cross_section"),
    "residual.peak_coincidence": ("residual", "peak_coincidence"),
    "residual.write_events_csv": ("residual", "write_events_csv"),
}


def _program_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "gridfactor"]


def _attrs(name: str, out) -> dict:
    """Counts recorded at the span boundary from the function's result."""
    if name == "solve.solve":
        return {"iterations": int(out.iterations), "status": out.status}
    if name == "solve.verify_certificate":
        return {"ok": bool(out.ok)}
    if name == "mps.write_mps":
        return {"bytes": len(out)}  # fixed-format MPS is ASCII
    if name == "residual.positive_events":
        return {"events": len(out)}
    return {}


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans, -1 for a root span
    trace: int
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._traces = 0

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            if name == "sweep.state" or parent < 0:
                self._traces += 1
                trace = self._traces
            else:
                trace = self.spans[parent].trace
            self.spans.append(Span(name, time.perf_counter(), parent, trace))
            index = len(self.spans) - 1
            self._stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.spans[index].end = time.perf_counter()
                self._stack.pop()
            self.spans[index].attrs = _attrs(name, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Rebind every traced function for the duration of the block."""
        saved = []
        try:
            for name, (home, attr) in TRACED.items():
                original = getattr(importlib.import_module(f"gridfactor.{home}"), attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(name, original)
                for module in _program_modules():
                    if getattr(module, attr, None) is original:
                        saved.append((module, attr, original))
                        setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and self times; a layer absent from the run reads 0."""
    covered = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.duration
    self_s = defaultdict(float)
    calls = Counter()
    totals = Counter()
    for i, s in enumerate(spans):
        self_s[s.name] += s.duration - covered[i]
        calls[s.name] += 1
        for key, value in s.attrs.items():
            if key == "status":
                totals[f"{s.name}.nonoptimal"] += value != "optimal"
            elif key == "ok":
                totals[f"{s.name}.failures"] += not value
            else:
                totals[f"{s.name}.{key}"] += value
    state_s = [s.duration for s in spans if s.name == "sweep.state"]
    p50 = statistics.median(state_s) if state_s else 0.0
    # With 64 states, 12 lie beyond p80: the highest percentile with ten.
    p80 = statistics.quantiles(state_s, n=10)[7] if len(state_s) >= 2 else 0.0
    return {
        "serialize.read_system.calls": calls["serialize.read_system"],
        "serialize.read_system.self_s": self_s["serialize.read_system"],
        "harmonize.derive_reference_shares.self_s": self_s["harmonize.derive_reference_shares"],
        "harmonize.apply_factor_state.calls": calls["harmonize.apply_factor_state"],
        "harmonize.apply_factor_state.self_s": self_s["harmonize.apply_factor_state"],
        "lp.assemble.calls": calls["lp.assemble"],
        "lp.assemble.self_s": self_s["lp.assemble"],
        "mps.write_mps.calls": calls["mps.write_mps"],
        "mps.write_mps.self_s": self_s["mps.write_mps"],
        "mps.write_mps.bytes": totals["mps.write_mps.bytes"],
        "solve.solve.calls": calls["solve.solve"],
        "solve.solve.self_s": self_s["solve.solve"],
        "solve.iterations": totals["solve.solve.iterations"],
        "solve.nonoptimal": totals["solve.solve.nonoptimal"],
        "solve.verify_certificate.self_s": self_s["solve.verify_certificate"],
        "solve.cert_failures": totals["solve.verify_certificate.failures"],
        "factorize.extract_storage_metrics.self_s": self_s["factorize.extract_storage_metrics"],
        "factorize.decomposition.self_s": self_s["factorize.decomposition"],
        "sweep.state.p50_s": p50,
        "sweep.state.p80_s": p80,
        "sweep.self_s": self_s["sweep.run_sweep"] + self_s["sweep.state"],
        "sweep.spec_digest.self_s": self_s["sweep.spec_digest"],
        "sweep.compare_interconnection.self_s": self_s["sweep.compare_interconnection"],
        "residual.residual_series.self_s": self_s["residual.residual_series"],
        "residual.positive_events.self_s": self_s["residual.positive_events"],
        "residual.peak_hour_cross_section.self_s": self_s["residual.peak_hour_cross_section"],
        "residual.events": totals["residual.positive_events.events"],
    }
