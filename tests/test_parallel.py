"""Row chunks on several processes: same results, same errors, same bytes."""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import hierkit
import hierkit.parallel as parallel
from hierkit.cli import main
from hierkit.io import write_vectors_csv
from hierkit.parallel import map_chunks


def _unit_edges(end):
    def split(parts):
        return np.linspace(0, end, parts + 1).round().astype(int).tolist()
    return split


def _pid_span(lo, hi):
    return os.getpid(), lo, hi


class TestMapChunks:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_one_process_per_chunk_results_in_order(self, shard_across,
                                                    workers):
        shard_across(workers)
        results = map_chunks(_pid_span, 1, _unit_edges(7))
        assert [(lo, hi) for _, lo, hi in results] == list(zip(
            _unit_edges(7)(workers), _unit_edges(7)(workers)[1:]))
        pids = [pid for pid, _, _ in results]
        assert pids[0] == os.getpid()
        assert len(set(pids)) == workers

    def test_empty_chunks_are_dropped(self, shard_across):
        shard_across(3)
        results = map_chunks(_pid_span, 1, lambda parts: [0, 0, 2, 2, 2])
        assert [(lo, hi) for _, lo, hi in results] == [(0, 2)]
        assert results[0][0] == os.getpid()
        assert map_chunks(_pid_span, 1, lambda parts: [0, 0]) == []

    def test_small_work_stays_in_process(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        below = parallel.MIN_PARALLEL_WORK - 1
        results = map_chunks(_pid_span, below, _unit_edges(6))
        assert results == [(os.getpid(), 0, 6)]
        assert len(map_chunks(_pid_span, below + 1, _unit_edges(6))) == 3

    def test_other_threads_keep_work_in_process(self, shard_across):
        shard_across(2)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            results = map_chunks(_pid_span, 1, _unit_edges(4))
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert results == [(os.getpid(), 0, 4)]

    def test_daemonic_caller_stays_in_process(self, shard_across,
                                              monkeypatch):
        import multiprocessing
        shard_across(2)
        daemon = multiprocessing.current_process()
        monkeypatch.setattr(daemon, "_config",
                            {**daemon._config, "daemon": True})
        assert map_chunks(_pid_span, 1, _unit_edges(4)) == [
            (os.getpid(), 0, 4)
        ]

    def test_failed_child_chunk_raises_in_the_caller(self, shard_across):
        shard_across(3)
        parent = os.getpid()

        def fn(lo, hi):
            if lo == 2:
                raise ValueError(f"chunk {lo}..{hi} in {os.getpid()}")
            return lo

        with pytest.raises(ValueError, match=f"chunk 2..4 in {parent}$"):
            map_chunks(fn, 1, _unit_edges(6))

    def test_dead_child_chunk_is_recomputed(self, shard_across):
        shard_across(3)
        parent = os.getpid()

        def fn(lo, hi):
            if os.getpid() != parent:
                os._exit(1)
            return lo, hi

        assert map_chunks(fn, 1, _unit_edges(6)) == [(0, 2), (2, 4), (4, 6)]


def _vectors(path, seed, n, d):
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(d), size=n)
    rows[rng.random((n, d)) < 0.2] = 0.0
    path.write_text(write_vectors_csv([f"v{seed}_{i}" for i in range(n)],
                                      rows, header="test"))
    return str(path)


def test_kernel_bytes_do_not_depend_on_worker_count(tmp_path, shard_across):
    x = _vectors(tmp_path / "x.csv", 1, 7, 40)
    y = _vectors(tmp_path / "y.csv", 2, 5, 40)
    commands = {
        "gram": ["kernel", "--x", x],
        "rows": ["kernel", "--x", y, "--y", x, "--gamma", "0.3"],
        "gram with gamma": ["kernel", "--x", x, "--gamma", "0.3"],
    }
    out = str(tmp_path / "out.csv")

    def outputs():
        result = {}
        for name, argv in commands.items():
            assert main(argv + ["--out", out]) == 0
            with open(out, "rb") as handle:
                result[name] = handle.read()
        return result

    serial = outputs()
    for workers in (1, 2, 3):
        shard_across(workers)
        assert outputs() == serial


def test_import_starts_no_multiprocessing():
    src = os.path.dirname(os.path.dirname(hierkit.__file__))
    code = ("import sys, hierkit, hierkit.cli; "
            "print('multiprocessing' in sys.modules)")
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60,
    )
    assert done.stdout.strip() == "False"
