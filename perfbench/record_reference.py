"""Record the objectives that runs at the default seed are checked against.

Run once from the repository root on the commit whose outputs are the
reference, then commit the file it writes:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def record(workload, directory: Path) -> dict[str, float]:
    manifests = workloads.write_fixtures(workload, workloads.REFERENCE_SEED, directory)
    out = directory / "out"
    if workload.kind != "sweep":
        outcomes = workloads.state_unit(workload, manifests, out)
        return {o["label"]: o["objective"] for o in outcomes if o["status"] == "optimal"}
    run = workloads.sweep_manifest(workload, manifests[0], out, workers=1)
    error = workloads.sweep_unit(run)
    if error is not None:
        raise SystemExit(f"{workload.name}: {error}")
    ledger = json.loads((out / "ledger.json").read_text())
    shares = json.loads((out / "reference_shares.json").read_text())
    objectives = {e["state"]: e["objective"] for e in ledger["entries"]}
    return {**objectives, "reference_lp": shares["provenance"]["objective"]}


def main() -> None:
    doc = {}
    for workload in workloads.WORKLOADS.values():
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            doc[workload.name] = record(workload, Path(tmp))
    workloads.REFERENCE_FILE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
