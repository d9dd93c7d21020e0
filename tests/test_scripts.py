"""The scripts in scripts/ run to completion on the current API."""

import hashlib
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


def test_topdown_stderr_on_toy_metadata(tmp_path, capsys):
    """reorg-topdown's stderr on a 3,000-synset toy tree, byte for byte:
    one warning per short class in class id order, then the class count."""
    done = _script("make_toy_metadata.py", "--outdir", str(tmp_path),
                   "--nodes", "3000", "--seed", "1")
    assert done.returncode == 0, done.stderr
    assert main(["reorg-topdown", "--isa", str(tmp_path / "is_a.tsv"),
                 "--counts", str(tmp_path / "counts.tsv"),
                 "--preset", "topdown-4k",
                 "--out", str(tmp_path / "map.tsv")]) == 0
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 534 and lines[-1] == "classes=835"
    assert all(line.startswith("warning: class ") for line in lines[:-1])
    assert hashlib.sha256(err.encode()).hexdigest() == (
        "a4db919ac7e983f9ca8bd0cbb92bea9384b301014d2c1c5d34559611267021f5"
    )
