"""Self-test of the benchmark at toy size (2 countries x 24 hours).

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import calibration  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Workload  # noqa: E402

TOY = {
    w.name: w
    for w in (
        Workload("sweep-toy", "sweep", countries=2, horizon=24, factors=(1, 2), workers=2),
        Workload("solve-toy", "solve", countries=2, horizon=24, systems=2),
        Workload("residual-toy", "residual", countries=2, horizon=24, systems=2, state="f_23456"),
    )
}
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _result(capsys, *argv) -> tuple[dict, str]:
    assert run.main(list(argv), TOY) == 0
    out = capsys.readouterr().out
    return json.loads(out.strip().splitlines()[-1]), out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TOY))
def test_every_metric_is_printed_with_its_unit(capsys, name, trace):
    result, out = _result(capsys, "--workload", name, "--seconds", "0.1", "--trace", str(trace))
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        n: m["unit"] for n, m in result["metrics"].items()
    }
    for m in declared:
        assert f"{m['name']} " in out
    assert "failed_frac" in out
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if not trace:
        assert result["metrics"]["peak_rss_mb"]["value"] > 0


def test_benchmark_json_lists_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_counts_repeat_exactly(capsys):
    counts = ("lp.assemble.calls", "solve.iterations", "lp.nnz", "lp.tiny_coeffs")
    first, _ = _result(capsys, "--workload", "sweep-toy", "--trace", "1")
    second, _ = _result(capsys, "--workload", "sweep-toy", "--trace", "1")
    assert [first["metrics"][c] for c in counts] == [second["metrics"][c] for c in counts]
    assert first["metrics"]["solve.solve.calls"]["value"] == 5  # 4 states + reference


def test_corrupted_ledger_objective_counts_as_failed(capsys, monkeypatch):
    real_unit = workloads.sweep_unit

    def corrupting_unit(manifest):
        error = real_unit(manifest)
        path = Path(manifest.out_dir) / "ledger.json"
        ledger = json.loads(path.read_text())
        ledger["entries"][1]["objective"] *= 1.01
        path.write_text(json.dumps(ledger))
        return error

    monkeypatch.setattr(workloads, "sweep_unit", corrupting_unit)
    result, out = _result(capsys, "--workload", "sweep-toy", "--seconds", "0.1")
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] == 11
    assert result["metrics"]["ok_frac"]["value"] == pytest.approx(10 / 11)
    assert "FAILED unit 0 f_13456: c.x" in out


def test_times_are_scaled_by_the_kernel_samples():
    with run.Sampler() as sampler:
        pass  # a block shorter than one period still takes a sample
    assert len(sampler.kernel_cpu) >= 1
    assert sampler.scale() == pytest.approx(
        calibration.REFERENCE_S * len(sampler.kernel_cpu) / sum(sampler.kernel_cpu)
    )
    slow = [2 * calibration.REFERENCE_S] * 3
    assert calibration.scale(slow) == pytest.approx(0.5)


def test_refuses_more_workers_than_cpus():
    cpus = len(os.sched_getaffinity(0))
    greedy = Workload("sweep-greedy", "sweep", countries=2, horizon=24, workers=cpus + 1)
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", greedy.name], {greedy.name: greedy})
    assert "CPU(s) are available" in str(exc.value.code)


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("_work", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "solve-3x168x12", "--seed", "1"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
