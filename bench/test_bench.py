"""Tests of the benchmark itself: python3 -m pytest -q bench/test_bench.py

They are not part of the package's test suite (pytest collects only tests/
by default); they keep the benchmark from rotting and show that its output
checks catch wrong numbers.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _results(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def test_smoke_mode_runs_every_workload_clean():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke", "--seed", "3"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    results = _results(proc.stdout)
    assert len(results) == 2 * len(workloads.WHY)
    for result in results:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WHY)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.metric_names()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep-pure",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert _results(proc.stdout) == []


@pytest.fixture(scope="module")
def smoke_outputs(tmp_path_factory):
    """Every smoke-size command's output, written by the CLI in this process."""
    modules = run._load_program()
    outputs = {}
    for name in workloads.WHY:
        workload = workloads.build(name, 7, "smoke")
        bench = run.Bench(workload, tmp_path_factory.mktemp(name), modules)
        for cmd in workload.commands:
            assert modules["cli"].main(bench._argv(cmd)) == 0
            text = (bench.workdir / f"{cmd.name}.out").read_text()
            outputs[cmd.name] = (text, cmd, bench.reference)
    return outputs


def _bump_csv_cell(text: str, row: int, col: int, delta: float) -> str:
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _bump_probability(text: str) -> str:
    doc = json.loads(text)
    doc["branches"][0]["probability"] *= 1.001
    return json.dumps(doc)


def _one_label(text: str) -> str:
    lines = text.splitlines()
    first = lines[1].split(",")[1]
    return "\n".join([lines[0]] + [f"{i},{first}" for i in range(len(lines) - 1)]) + "\n"


CORRUPTIONS = {
    "reflectance": lambda t: _bump_csv_cell(t, 2, 4, 1e-9),       # r_hot_re
    "protocol-scheme-b": _bump_probability,
    "protocol-ghz6": _bump_probability,                           # density-matrix JSON
    "sweep-transfer-sp": lambda t: _bump_csv_cell(t, 1, 3, 1e-6),  # a probability
    "sweep-ghz4": lambda t: _bump_csv_cell(t, 1, 4, 1e-6),         # a fidelity
    "sample": _one_label,
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_checks_pass_real_output_and_reject_corrupted_output(smoke_outputs, name):
    text, cmd, reference = smoke_outputs[name]
    assert checks.check(text, cmd, reference) == []
    assert checks.check(CORRUPTIONS[name](text), cmd, reference) != []
