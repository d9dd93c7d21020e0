"""Fixtures shared by the test modules."""

import os

import pytest

import hierkit.parallel as parallel


@pytest.fixture
def shard_across(monkeypatch):
    """``shard_across(k)`` makes every ``map_chunks`` job split into k
    chunks, one per process: no size threshold, k CPUs in the affinity
    mask."""
    def force(workers):
        monkeypatch.setattr(parallel, "MIN_PARALLEL_WORK", 0)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(workers)))
    return force
