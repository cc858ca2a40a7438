"""Smoke test of the benchmark itself, at a tiny sample count.

It is not part of the tier-1 suite (pytest collects ``tests/`` only);
run it with

    python3 -m pytest benchmarks/test_smoke.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEEDS = (1, 2)
TINY = 2000


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_generated_inputs_pass_the_gate(workload, seed):
    commands = workloads.generate(workload, seed, TINY)
    assert commands == workloads.generate(workload, seed, TINY)
    cli = run.load_cli()
    gate = run.Gate(commands)
    _, results = run.run_pass(cli.main, commands, keep_text=True)
    gate.first(results)
    assert gate.errors == []
    assert gate.rows == sum(command.row_count for command in commands) > 0


def test_seeds_give_different_inputs():
    assert workloads.generate("mc-models", SEEDS[0]) != workloads.generate("mc-models", SEEDS[1])


def test_benchmark_workloads_exist():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "battery", "--seed", str(SEEDS[1]),
         "--seconds", "0", "--trace", str(trace), "--samples", str(TINY)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == expected
