"""The scripts in scripts/ run to completion on the current API."""

import os
import subprocess
import sys

import hierkit
from hierkit.cli import main

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts")


def _script(name, *argv):
    src = os.path.dirname(os.path.dirname(hierkit.__file__))
    return subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, name), *argv],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src},
    )


def test_demo_pipeline_runs():
    done = _script("run_demo_pipeline.py", "--seed", "0")
    assert done.returncode == 0, done.stderr
    assert "fused" in done.stdout


def test_toy_metadata_validates_and_reorganizes(tmp_path):
    done = _script("make_toy_metadata.py", "--outdir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    taxonomy = ["--isa", str(tmp_path / "is_a.tsv"),
                "--counts", str(tmp_path / "counts.tsv"),
                "--names", str(tmp_path / "words.tsv")]
    assert main(["validate", *taxonomy, "--out", str(tmp_path / "v.txt")]) == 0
    assert "ok=1" in (tmp_path / "v.txt").read_text()
    assert main(["reorg-bottomup", *taxonomy, "--preset", "bottomup-4k",
                 "--out", str(tmp_path / "map.tsv")]) == 0
    assert (tmp_path / "map.tsv").stat().st_size > 0
