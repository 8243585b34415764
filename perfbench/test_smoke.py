"""Smoke test of the benchmark at the smallest size of each workload.

    python3 -m pytest perfbench

Checks that an untraced run prints every end-to-end metric and a traced
run every per-layer metric named in BENCHMARK.json, each with its unit.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace, capsys):
    result = run.run(workload, seed=0, seconds=0.0, trace=bool(trace), smallest=True)
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[-1]) == result
    assert result["correct"], lines
    assert result["attempted"] >= run.MIN_OPS
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(
            line.startswith(f"{m['name']} = ") and line.split()[3] == m["unit"] for line in lines
        ), m["name"]
