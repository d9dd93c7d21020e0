"""Self-test of the benchmark at tiny size.

    python3 -m pytest -q perfbench

Runs every workload once per mode, and checks that a corrupted output is
counted as a failed op.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import child  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

WORKLOADS = sorted(gen.SIZES)


def benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_what_run_reports():
    spec = benchmark()
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == spans.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_present_finite_and_no_failed_op(workload, trace):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    expected = benchmark()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
        assert math.isfinite(value["value"]), m["name"]


def _corrupt_gram(path):
    with open(path) as handle:
        lines = handle.read().splitlines()
    tokens = lines[2].split(",")  # header, cols, first row
    tokens[2] = repr(float(tokens[2]) * 0.5)
    lines[2] = ",".join(tokens)
    _write(path, "\n".join(lines) + "\n")


def _corrupt_pooled(path):
    with open(path) as handle:
        lines = handle.read().splitlines()
    tokens = lines[1].split(",")
    lines[1] = ",".join([tokens[0], *(repr(2 * float(t)) for t in tokens[1:])])
    _write(path, "\n".join(lines) + "\n")


def _drop_first_class(path):
    with open(path) as handle:
        lines = handle.read().splitlines()
    _write(path, "\n".join(lines[:1] + lines[2:]) + "\n")


def _append_comment(path):
    with open(path, "a") as handle:
        handle.write("# touched\n")


def _write(path, text):
    with open(path, "w") as handle:
        handle.write(text)


@pytest.mark.parametrize("workload, op, name, corrupt", [
    ("taxonomy_reorg", "bottomup_4k", "bu4k.map", _drop_first_class),
    ("event_kernel", "kernel_train", "gram.csv", _corrupt_gram),
    ("event_encode", "pool", "pooled.csv", _corrupt_pooled),
    # comment lines break no invariant: only the digest catches these
    ("taxonomy_reorg", "export_trainlist", "trainlist.tsv", _append_comment),
    ("event_kernel", "eval", "eval.txt", _append_comment),
    ("event_encode", "vlad_test", "vlad_test.csv", _append_comment),
])
def test_corrupted_output_is_a_failed_op(tmp_path, monkeypatch, workload, op,
                                         name, corrupt):
    meta = gen.generate(workload, "tiny", str(tmp_path / "in"), 0)
    monkeypatch.chdir(tmp_path)
    os.makedirs("chains")
    os.makedirs("logs")
    ops = run.chains.chain(workload, meta)
    ran = [child.run_chain(ops, i, None) for i in range(2)]
    assert run.check_chains(workload, meta, str(tmp_path), ran, None)[1] == 0

    corrupt(str(tmp_path / "chains" / "1" / name))
    attempted, failed, problems = run.check_chains(
        workload, meta, str(tmp_path), ran, None)
    # later ops that read the corrupted file may fail too
    assert attempted == 2 * len(ops) and failed >= 1
    assert problems[0].startswith(f"chain 1 {op}:")


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
