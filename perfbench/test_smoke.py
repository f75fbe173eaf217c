"""Smoke test of the benchmark: tiny inputs through the same command.

    python3 -m pytest perfbench/test_smoke.py -q

Each case starts its own Ray session (about 15 s each).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)


@pytest.fixture
def scratch():
    """A fresh dir inside the checkout's ignored state dir."""
    d = os.path.join(ROOT, ".perfbench", f"smoke-{os.getpid()}")
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    yield d
    shutil.rmtree(d, ignore_errors=True)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result(p: subprocess.CompletedProcess) -> dict:
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    return res


def assert_metrics(p: subprocess.CompletedProcess, section: str) -> None:
    res = result(p)
    want = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    lines = [line.split() for line in p.stdout.splitlines()]
    for name, unit in want.items():  # and the report prints each by name
        assert [name, unit] in [[w[0], w[-1]] for w in lines if len(w) == 3], name


@pytest.mark.parametrize("workload", ["replay", "tail_mixed", "fragmented_read",
                                      "compacted_read"])
def test_every_end_to_end_metric_prints_with_its_unit(workload):
    p = bench("--workload", workload, "--seed", "3", "--seconds", "1",
              "--trace", "0", "--size", "tiny")
    assert p.returncode == 0, p.stdout[-3000:] + p.stderr[-3000:]
    res = result(p)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert_metrics(p, "end_to_end")
    assert all(m["value"] > 0 for m in res["metrics"].values()), res["metrics"]


def test_traced_run_prints_every_layer_metric():
    p = bench("--workload", "fragmented_read", "--seed", "3", "--seconds", "1",
              "--trace", "1", "--size", "tiny")
    assert p.returncode == 0, p.stdout[-3000:] + p.stderr[-3000:]
    assert result(p)["correct"]
    assert_metrics(p, "per_layer")
    assert "exec.overhead_s" in p.stdout and "vs op wall" in p.stdout


def test_gate_trips_on_a_planted_wrong_row():
    p = bench("--workload", "replay", "--seed", "3", "--seconds", "1",
              "--trace", "0", "--size", "tiny", "--plant-wrong-row")
    res = result(p)
    assert p.returncode == 1
    assert not res["correct"] and res["failed"] >= 1
    assert "FAILED: compacted lake != oracle" in p.stdout


def test_refuses_to_run_without_the_package(scratch):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(scratch, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = bench("--workload", "replay", "--seed", "1", "--seconds", "1",
              "--trace", "0", cwd=scratch)
    assert p.returncode != 0 and p.stdout.strip() == ""


def test_compare_refuses_results_of_different_configs(scratch):
    base = {"metrics": {"setup_s": {"value": 1.0, "unit": "s"}},
            "config": {"workload": "replay", "seed": 1, "ray_num_cpus": 4,
                       "wal_params": {"n_events": 10, "seed": 1}}}
    other_seed = json.loads(json.dumps(base))
    other_seed["config"]["seed"] = other_seed["config"]["wal_params"]["seed"] = 2
    other_cpus = json.loads(json.dumps(base))
    other_cpus["config"]["ray_num_cpus"] = 32
    paths = []
    for i, r in enumerate([base, other_seed, other_cpus]):
        paths.append(os.path.join(scratch, f"r{i}.json"))
        with open(paths[-1], "w") as f:
            json.dump(r, f)
    assert bench("--compare", paths[0], paths[1]).returncode == 0
    p = bench("--compare", paths[0], paths[2])
    assert p.returncode == 3 and "ray_num_cpus" in p.stdout
