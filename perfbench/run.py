#!/usr/bin/env python3
"""hierkit batch-chain benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a hierkit checkout (it needs ``src/hierkit``). One run:

1. set-up, three times: generate the workload's inputs from ``--seed`` and
   time ``import hierkit`` in a fresh interpreter; the inputs must come out
   byte-identical each time. ``setup_s`` is the median.
2. one fresh child process runs the workload's CLI chain in-process, over
   and over, for ``--seconds`` (child.py). With ``--trace 1`` untraced and
   traced chains alternate.
3. every op of every chain is checked (chains.py); the last stdout line is
   the JSON result. ``--trace 0`` reports the end-to-end metrics,
   ``--trace 1`` the per-layer ones from the span file.

Scratch files live in ``.perfbench/`` at the checkout root; the work dir is
removed at the end, the last trace file of each workload and seed is kept.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, SRC)
try:
    import chains
except ModuleNotFoundError as exc:
    sys.exit(f"cannot import hierkit from {SRC} ({exc}): run this from the "
             "root of a hierkit checkout")
import gen
import spans

SCRATCH = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference_digests.json")

SETUP_REPS = 3
CHILD_TIMEOUT_S = 150
# One BLAS thread: the chains are single-threaded numpy, and a second
# thread only adds scheduling noise on a shared 2-core machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import hierkit; "
                "print(time.perf_counter() - t)")

END_TO_END = {
    "wall_s": "s",
    "items_per_s": "items/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "map": "ratio",
    "imbalance": "ratio",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def setup(workload: str, size: str, seed: int, in_dir: str,
          env: dict[str, str]) -> tuple[dict, float]:
    """Generate the inputs SETUP_REPS times; the median set-up time."""
    times, first = [], None
    for _ in range(SETUP_REPS):
        shutil.rmtree(in_dir, ignore_errors=True)
        start = perf_counter()
        meta = gen.generate(workload, size, in_dir, seed)
        generated = perf_counter() - start
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                               capture_output=True, text=True, timeout=60,
                               check=True)
        times.append(generated + float(probe.stdout))
        digests = input_digests(in_dir)
        if first is None:
            first = digests
        elif digests != first:
            raise RuntimeError("the same seed generated different inputs")
    return meta, statistics.median(times)


def input_digests(in_dir: str) -> dict[str, str]:
    return {os.path.relpath(os.path.join(d, f), in_dir):
            chains.digest(os.path.join(d, f))
            for d, _, files in os.walk(in_dir) for f in files}


def output_digests(ops: list, out: str) -> dict[str, str]:
    """sha256 of every output that exists in a chain's dir ``out``."""
    paths = {rel: os.path.join(out, rel.split("/", 1)[1])
             for op in ops for rel in op.outputs}
    return {rel: chains.digest(p) for rel, p in paths.items()
            if os.path.exists(p)}


def check_op(workload: str, op, meta: dict, work: str, out: str,
             digests: dict[str, str], expected: dict[str, str] | None,
             against: str) -> str | None:
    try:
        problem = chains.check_op(workload, op.name, meta, out,
                                  os.path.join(work, "in"))
    except Exception as exc:  # unreadable output fails the op
        problem = f"output unreadable: {exc!r}"
    for rel in op.outputs:
        if problem is None and expected and digests.get(rel) != expected.get(rel):
            problem = f"{rel} differs from {against}"
    return problem


def check_chains(workload: str, meta: dict, work: str, ran: list[dict],
                 reference: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, failure messages) over every op of every chain.

    The first chain's outputs are checked against the invariants and the
    reference digests. Every later chain must reproduce them byte for byte;
    one that does gets the first chain's verdicts, since the invariants are
    a function of those bytes, and one that does not is checked in full.
    """
    ops = chains.chain(workload, meta)
    attempted = failed = 0
    problems: list[str] = []
    first: tuple[dict, dict] | None = None
    for run in ran:
        out = os.path.join(work, "chains", str(run["index"]))
        codes = {r["op"]: r["code"] for r in run["ops"]}
        digests = output_digests(ops, out)
        verdicts: dict[str, str | None] = {}
        for op in ops:
            if op.name not in codes:
                problem = "not run: an earlier op failed"
            elif codes[op.name] != 0:
                problem = f"exit code {codes[op.name]}"
            elif first is not None and digests == first[0]:
                problem = first[1][op.name]
            elif first is not None:
                problem = check_op(workload, op, meta, work, out, digests,
                                   first[0], "the first chain")
            else:
                problem = check_op(workload, op, meta, work, out, digests,
                                   reference, "the reference digest")
            verdicts[op.name] = problem
            attempted += 1
            if problem:
                failed += 1
                problems.append(f"chain {run['index']} {op.name}: {problem}")
        if first is None:
            first = (digests, verdicts)
    return attempted, failed, problems


def median_wall(ran: list[dict], traced: bool) -> float:
    """Median wall time of the run's traced or untraced chains. The first
    chain warms the page cache and the allocator; it counts only when no
    other chain of its kind ran."""
    kind = [r for r in ran if r["traced"] == traced]
    return statistics.median(r["wall_s"] for r in kind[1:] or kind)


def per_layer(workload: str, meta: dict, trace_file: str,
              ran: list[dict]) -> dict[str, float]:
    needed = chains.needed_chi2_terms(workload, meta)
    per_chain = [spans.layer_metrics(s, c, needed)
                 for s, c in spans.read_runs(trace_file).values()]
    metrics = spans.median_metrics(per_chain[1:] or per_chain)
    metrics["trace_overhead_s"] = median_wall(ran, True) - median_wall(ran, False)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the self-test")
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's output digests as the "
                             "reference for its workload, size and seed")
    args = parser.parse_args(argv)
    # a terminated run still stops its child and removes its work dir
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    key = f"{args.workload}/{args.size}/seed{args.seed}"
    with open(REFERENCE) as handle:
        references = json.load(handle)
    run_id = f"{args.workload}-{args.size}-s{args.seed}"
    work = os.path.join(SCRATCH, f"work-{os.getpid()}")
    trace_file = os.path.join(SCRATCH, f"trace-{run_id}.jsonl")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        env = child_env()
        meta, setup_s = setup(args.workload, args.size, args.seed,
                              os.path.join(work, "in"), env)
        with open(os.path.join(work, "params.json"), "w") as handle:
            json.dump({"workload": args.workload, "meta": meta,
                       "seconds": args.seconds, "trace": bool(args.trace),
                       "run_id": run_id, "trace_file": trace_file}, handle)
        child = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), "params.json"],
            cwd=work, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S, check=True)
        report = json.loads(child.stdout.strip().splitlines()[-1])
        ran = report["chains"]
        with open(os.path.join(SCRATCH, f"chains-{run_id}.json"), "w") as handle:
            json.dump(ran, handle)

        if args.record_digests:
            references[key] = output_digests(
                chains.chain(args.workload, meta),
                os.path.join(work, "chains", "0"))
            with open(REFERENCE, "w") as handle:
                json.dump(references, handle, indent=1, sort_keys=True)
                handle.write("\n")
        attempted, failed, problems = check_chains(
            args.workload, meta, work, ran, references.get(key))
        for problem in problems:
            print(f"failed op: {problem}", file=sys.stderr)

        if args.trace:
            values = per_layer(args.workload, meta, trace_file, ran)
            units = {name: unit for name, (unit, _) in spans.PER_LAYER.items()}
        else:
            wall = median_wall(ran, False)
            values = {
                "wall_s": wall,
                "items_per_s": chains.items(args.workload, meta) / wall,
                "peak_rss_mb": report["peak_rss_mb"],
                "setup_s": setup_s,
                **chains.quality(args.workload, meta,
                                 os.path.join(work, "chains", "0")),
            }
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = " ".join(f"{r['wall_s']:.3f}/{r['cpu_s']:.3f}{'t' if r['traced'] else ''}"
                     for r in ran)
    print(f"{args.workload} chain wall_s/cpu_s (t = traced): {walls}",
          file=sys.stderr)
    for name, unit in units.items():
        print(f"{args.workload} {name} = {values[name]:.6g} {unit}",
              file=sys.stderr)
    print(f"{args.workload} error_rate = {failed / attempted:.6g} "
          f"({failed} of {attempted} ops, {len(ran)} chains)", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
