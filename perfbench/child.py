"""Run one workload's CLI chain repeatedly in this process, for a set time.

Started by run.py in a fresh process per benchmark run, with the work dir
as its cwd and ``src`` on ``PYTHONPATH``. Each chain writes to ``out/``,
which is then renamed ``chains/<i>`` for run.py to check. With tracing on,
untraced and traced chains alternate, so both kinds see the same machine
state; the traced chains' spans go to a JSON-lines file at the end.

Prints one JSON object: the chains (ops, exit codes, wall and CPU times)
and the process's peak RSS at the end of its first chain.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import traceback
from time import perf_counter, process_time

import hierkit.cli

from chains import chain
from spans import Tracer


def run_chain(ops, index: int, tracer: Tracer | None) -> dict:
    os.makedirs("out")
    results = []
    first = last = None
    cpu = process_time()
    if tracer:
        tracer.install()
    try:
        for op in ops:
            argv = op.argv() if callable(op.argv) else op.argv
            with open(f"logs/{index}_{op.name}.log", "w") as log, \
                    contextlib.redirect_stdout(log), \
                    contextlib.redirect_stderr(log):
                start = perf_counter()
                try:
                    code = hierkit.cli.main(argv)
                except Exception:  # a traceback is a failed op, not a crash
                    traceback.print_exc()
                    code = -1
                last = perf_counter()
            first = start if first is None else first
            results.append({"op": op.name, "code": code, "s": last - start})
            if code != 0:
                break
    finally:
        if tracer:
            tracer.uninstall()
    cpu = process_time() - cpu
    os.rename("out", f"chains/{index}")
    return {"index": index, "traced": tracer is not None,
            "wall_s": last - first, "cpu_s": cpu, "ops": results}


def main() -> int:
    with open(sys.argv[1]) as handle:
        params = json.load(handle)
    ops = chain(params["workload"], params["meta"])
    os.makedirs("chains")
    os.makedirs("logs")
    chains, tracers = [], []
    deadline = perf_counter() + params["seconds"]
    index = 0
    while True:
        traced = params["trace"] and index % 2 == 1
        tracer = Tracer(f"{params['run_id']}-c{index}") if traced else None
        chains.append(run_chain(ops, index, tracer))
        if index == 0:
            # what a user running the chain once sees; later chains add
            # allocator fragmentation that varies from run to run
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer:
            tracers.append(tracer)
        index += 1
        # stop before a chain that would overrun, but a traced run needs at
        # least one chain of each kind
        if (perf_counter() + chains[-1]["wall_s"] > deadline
                and (not params["trace"] or index >= 2)):
            break
    if tracers:
        with open(params["trace_file"], "w") as handle:
            for tracer in tracers:
                tracer.dump(handle)
    print(json.dumps({"chains": chains, "peak_rss_mb": peak_kb / 1024}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
