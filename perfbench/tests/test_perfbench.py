"""The benchmark's own tests: metrics, seeding, repeatability, failing checks.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
Every run uses ``--tiny`` sweeps so the whole file takes well under a minute.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import child  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def bench(*args, cwd=ROOT, check=True):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tiny(workload, seed=1, trace=0, *extra):
    return bench("--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                 "--trace", str(trace), "--tiny", *extra)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == layers.LAYER_METRICS
    from repro.core.theorems import REGISTRY

    assert tuple(sorted(REGISTRY)) == layers.REGISTRY_IDS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_workload_emits_every_metric_with_its_unit(workload, trace):
    proc = tiny(workload, 1, trace)
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    assert "perfbench env " in proc.stdout
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_another_seed_changes_the_extension_cells_and_is_recorded():
    first = child.extension_cells(1, tiny=True)
    other = next(s for s in range(2, 100) if child.extension_cells(s, tiny=True) != first)
    notes = []
    for seed in (1, other):
        proc = tiny("audit-tape", seed)
        env = json.loads(proc.stdout.split("perfbench env ", 1)[1].splitlines()[0])
        assert env["seed"] == seed
        (note,) = [l for l in proc.stdout.splitlines() if "extension cells" in l]
        notes.append(note)
    assert notes[0] != notes[1]
    assert str([list(c) for c in first]) in notes[0]


@pytest.mark.parametrize("workload", ["audit-charge", "audit-tape", "audit-warm"])
def test_count_valued_layer_metrics_repeat_exactly(workload):
    counts = [
        {
            name: m["value"]
            for name, m in result_of(tiny(workload, 3, 1))["metrics"].items()
            if m["unit"] in ("count", "bit")
        }
        for _ in range(2)
    ]
    assert counts[0] == counts[1]
    assert any(counts[0].values())


@pytest.mark.parametrize("workload", ["audit-tape", "audit-warm", "registry"])
def test_a_corrupted_layer_result_is_counted_as_failed(workload):
    result = result_of(tiny(workload, 1, 0, "--corrupt"))
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["ok_frac"]["value"] < 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "registry", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, check=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_is_the_nearest_rank_p90_for_every_sample_count():
    assert run.tail(list(range(1, 1001))) == (900, 90.0, 1000)
    assert run.tail(list(range(1, 41))) == (36, 90.0, 40)
    assert run.tail(list(range(1, 20))) == (18, 100.0 * 18 / 19, 19)
    assert run.tail(list(range(1, 12))) == (10, 100.0 * 10 / 11, 11)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    for n in range(2, 120):
        assert run.tail(range(1, n + 1))[0] > statistics.median(range(1, n + 1))
