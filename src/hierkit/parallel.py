"""Row chunks computed on several CPUs: chi-squared rows and vector-CSV lines.

``map_chunks`` cuts work into one contiguous chunk per CPU this process may
run on (``os.sched_getaffinity``). The calling process computes the first
chunk and one forked child computes each other one. Children see the
caller's arrays and text through fork's copy-on-write pages; only their
results travel back, pickled. A chunk's result is the same bytes whichever
process computes it, so output never depends on the number of CPUs.
"""

from __future__ import annotations

import os
import threading

# Work (chi-squared terms, or characters of CSV text) below which the
# calling process does everything: a forked child costs about 7 ms to
# start, feed and reap. Measured on a 2-vCPU Xeon with a 60 MB parent,
# sharding broke even near 3.5M terms for symmetric chi2 at d=4000 and near
# 0.7M characters for vector-CSV parsing. 2**21 sits between the two: chi2
# just above it runs at most ~4 ms slower, CSV parsing already gains.
MIN_PARALLEL_WORK = 1 << 21


def _processes(work: int) -> int:
    """How many processes should share ``work``: 1 for small work, where
    ``os.fork`` or ``os.sched_getaffinity`` is missing, in a daemonic
    worker (which may not fork) or beside other Python threads (a fork
    copies their locks mid-use)."""
    if (work < MIN_PARALLEL_WORK or not hasattr(os, "fork")
            or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    import multiprocessing
    if multiprocessing.current_process().daemon:
        return 1
    return len(os.sched_getaffinity(0))


def _send_chunk(send, fn, lo: int, hi: int) -> None:
    """Child side: send ``fn(lo, hi)``, or nothing if it raised; the parent
    then recomputes the chunk and raises the error itself."""
    try:
        result = fn(lo, hi)
    except Exception:
        return
    send.send(result)


def map_chunks(fn, work: int, split) -> list:
    """``[fn(lo, hi) for each chunk]``, in chunk order.

    ``split(parts)`` returns ascending edges ``[0, ..., end]`` that cut the
    work into at most ``parts`` chunks; empty chunks are dropped. ``work``
    sizes the job in the units of ``MIN_PARALLEL_WORK``. A chunk whose child
    failed or died is recomputed in the calling process, so any exception
    is the one a serial run raises.
    """
    edges = split(_processes(work))
    chunks = [(lo, hi) for lo, hi in zip(edges, edges[1:]) if lo < hi]
    if len(chunks) < 2:
        return [fn(lo, hi) for lo, hi in chunks]
    import multiprocessing
    ctx = multiprocessing.get_context("fork")
    children = []
    try:
        for lo, hi in chunks[1:]:
            receive, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_send_chunk, args=(send, fn, lo, hi),
                                daemon=True)
            child.start()
            send.close()
            children.append((child, receive))
        results = [fn(*chunks[0])]
        for (lo, hi), (_, receive) in zip(chunks[1:], children):
            try:
                results.append(receive.recv())
            except EOFError:
                results.append(fn(lo, hi))
        return results
    finally:
        for child, receive in children:
            receive.close()
            if child.is_alive():
                child.terminate()
            child.join()
