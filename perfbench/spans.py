"""Spans and counters recorded from outside the package, and the per-layer
metrics derived from them.

``Tracer.install`` replaces every public function of every hierkit module
(plus the CLI's ``_cmd_*`` handlers) with a timing wrapper, in the defining
module and in every module that imported it by name, so calls made inside
the package are captured as well as the CLI's own. ``uninstall`` puts the
originals back. Nothing under ``src/`` knows about this.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import tracemalloc
import types
from time import perf_counter

import numpy as np

LAYERS = ("taxonomy", "bottomup", "topdown", "labelmap", "encoding", "svm",
          "evaluation", "io", "cli")

# Called once per float while writing CSV; a span each would swamp the run.
UNTRACED = {"io.fmt"}

IO_READERS = {f"io.{n}" for n in (
    "read_frames_csv", "read_frames_bin", "read_frames_file",
    "read_vectors_csv", "read_gram_csv", "read_scores_csv",
    "read_labels_csv", "read_codebook", "read_model")}
IO_WRITERS = {f"io.{n}" for n in (
    "write_frames_csv", "write_frames_bin", "write_vectors_csv",
    "write_gram_csv", "write_scores_csv", "write_codebook", "write_model",
    "atomic_write_bytes", "atomic_write_text")}

SUBCOMMANDS = ("validate", "stats", "reorg_bottomup", "reorg_topdown",
               "export_trainlist", "pool", "vlad", "kernel", "train_svm",
               "score", "fuse", "eval")

# name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER = {
    "svm.chi2_s": ("s", "lower"),
    "svm.chi2_terms": ("count", "lower"),
    "svm.chi2_terms_per_s": ("1/s", "higher"),
    "svm.chi2_redundancy": ("ratio", "lower"),
    "svm.kernel_calls": ("count", "lower"),
    "svm.gamma_s": ("s", "lower"),
    "svm.train_s": ("s", "lower"),
    "svm.score_s": ("s", "lower"),
    "svm.score_calls": ("count", "lower"),
    "encoding.kmeans_s": ("s", "lower"),
    "encoding.kmeans_peak_mb": ("MB", "lower"),
    "encoding.vlad_s": ("s", "lower"),
    "encoding.pool_s": ("s", "lower"),
    "encoding.frames": ("count", "higher"),
    "encoding.frames_per_s": ("1/s", "higher"),
    "io.read_s": ("s", "lower"),
    "io.write_s": ("s", "lower"),
    "io.bytes_read": ("bytes", "lower"),
    "io.bytes_written": ("bytes", "lower"),
    "io.read_mb_per_s": ("MB/s", "higher"),
    "io.write_mb_per_s": ("MB/s", "higher"),
    "taxonomy.parse_s": ("s", "lower"),
    "taxonomy.build_s": ("s", "lower"),
    "taxonomy.stats_s": ("s", "lower"),
    "taxonomy.synsets": ("count", "higher"),
    "bottomup.roll_s": ("s", "lower"),
    "bottomup.bind_s": ("s", "lower"),
    "bottomup.promote_s": ("s", "lower"),
    "bottomup.subsample_s": ("s", "lower"),
    "bottomup.pipeline_s": ("s", "lower"),
    "bottomup.merges": ("count", "higher"),
    "bottomup.images_moved": ("count", "higher"),
    "topdown.select_s": ("s", "lower"),
    "topdown.assign_s": ("s", "lower"),
    "topdown.classes_selected": ("count", "higher"),
    "topdown.short_classes": ("count", "lower"),
    "labelmap.read_s": ("s", "lower"),
    "labelmap.write_s": ("s", "lower"),
    "labelmap.classes": ("count", "higher"),
    "evaluation.map_s": ("s", "lower"),
    "evaluation.fuse_s": ("s", "lower"),
    **{f"cli.{sub}_s": ("s", "lower") for sub in SUBCOMMANDS},
    "cli.self_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS if layer != "cli"},
    "trace_overhead_s": ("s", "lower"),
}

# per-layer metric -> the function spans whose inclusive time it sums
FUNCTION_TIMES = {
    "svm.gamma_s": {"svm.mean_chi2_gamma"},
    "svm.train_s": {"svm.train_kernel_svm"},
    "svm.score_s": {"svm.svm_score"},
    "encoding.kmeans_s": {"encoding.kmeans_fit"},
    "encoding.vlad_s": {"encoding.vlad_encode"},
    "encoding.pool_s": {"encoding.average_pool"},
    "io.read_s": IO_READERS,
    "io.write_s": IO_WRITERS,
    "taxonomy.parse_s": {"taxonomy.parse_isa_edges", "taxonomy.parse_counts",
                         "taxonomy.parse_names"},
    "taxonomy.build_s": {"taxonomy.build_taxonomy"},
    "taxonomy.stats_s": {"taxonomy.stats"},
    "bottomup.roll_s": {"bottomup.roll"},
    "bottomup.bind_s": {"bottomup.bind"},
    "bottomup.promote_s": {"bottomup.promote"},
    "bottomup.subsample_s": {"bottomup.subsample_plan",
                             "bottomup.selected_indices"},
    "bottomup.pipeline_s": {"bottomup.bottom_up_pipeline"},
    "topdown.select_s": {"topdown.top_down_select"},
    "topdown.assign_s": {"topdown.assign_to_selected"},
    "labelmap.read_s": {"labelmap.read_label_map"},
    "labelmap.write_s": {"labelmap.write_label_map"},
    "evaluation.map_s": {"evaluation.mean_average_precision"},
    "evaluation.fuse_s": {"evaluation.late_fuse"},
    **{f"cli.{sub}_s": {f"cli._cmd_{sub}"} for sub in SUBCOMMANDS},
}


def _rows(arr) -> int:
    return 1 if np.ndim(arr) == 1 else int(np.shape(arr)[0])


def _count_chi2(counters, args, kwargs, result):
    x = args[0]
    y = args[1] if len(args) > 1 else kwargs.get("y")
    y = x if y is None else y
    counters["svm.chi2_terms"] += _rows(x) * _rows(y) * int(np.shape(x)[-1])


def _count_merges(counters, args, kwargs, result):
    log = result[1]
    counters["bottomup.merges"] += len(log)
    counters["bottomup.images_moved"] += sum(r.images_moved for r in log)


def _count_bytes_in(counters, args, kwargs, result):
    counters["io.bytes_read"] += len(args[0])


def _count_file_in(counters, args, kwargs, result):
    counters["io.bytes_read"] += os.path.getsize(args[0])


def _counter(key, value_of):
    def hook(counters, args, kwargs, result):
        counters[key] += value_of(args, result)
    return hook


def _count_synsets(counters, args, kwargs, result):
    counters["taxonomy.synsets"] = max(counters["taxonomy.synsets"],
                                       len(result.nodes))


COUNTER_HOOKS = {
    "svm.chi2_distances": _count_chi2,
    "svm.chi2_kernel": _counter("svm.kernel_calls", lambda a, r: 1),
    "svm.svm_score": _counter("svm.score_calls", lambda a, r: 1),
    "encoding.average_pool": _counter("encoding.frames", lambda a, r: _rows(a[0])),
    "encoding.vlad_encode": _counter("encoding.frames", lambda a, r: _rows(a[0])),
    "io.atomic_write_bytes": _counter("io.bytes_written", lambda a, r: len(a[1])),
    "bottomup.roll": _count_merges,
    "bottomup.bind": _count_merges,
    "bottomup.promote": _count_merges,
    "topdown.top_down_select": _counter(
        "topdown.classes_selected", lambda a, r: len(r.selected)),
    "topdown.assign_to_selected": _counter(
        "topdown.short_classes", lambda a, r: len(r[2])),
    "labelmap.write_label_map": _counter(
        "labelmap.classes", lambda a, r: len(a[0].classes)),
    "taxonomy.build_taxonomy": _count_synsets,
}
# readers count their input once, at the outermost io call
BYTES_IN_HOOKS = {name: _count_bytes_in for name in IO_READERS}
BYTES_IN_HOOKS["io.read_frames_file"] = _count_file_in

COUNTERS = ("svm.chi2_terms", "svm.kernel_calls", "svm.score_calls",
            "encoding.frames", "encoding.kmeans_peak_mb", "io.bytes_read",
            "io.bytes_written", "bottomup.merges", "bottomup.images_moved",
            "topdown.classes_selected", "topdown.short_classes",
            "labelmap.classes", "taxonomy.synsets")


class Tracer:
    """In-memory spans ``[id, parent, name, start, end]`` plus counters for
    one traced chain; ``dump`` appends both to a JSON-lines file."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        hook = COUNTER_HOOKS.get(name)
        bytes_hook = BYTES_IN_HOOKS.get(name)
        watch_memory = name == "encoding.kmeans_fit"
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            record = [len(spans), parent, name, 0.0, 0.0]
            spans.append(record)
            stack.append(record[0])
            if watch_memory:
                tracemalloc.start()
            record[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = perf_counter()
                stack.pop()
                if watch_memory:
                    peak = tracemalloc.get_traced_memory()[1] / 1e6
                    tracemalloc.stop()
                    counters["encoding.kmeans_peak_mb"] = max(
                        counters["encoding.kmeans_peak_mb"], peak)
            if hook:
                hook(counters, args, kwargs, result)
            if bytes_hook and (parent is None
                               or spans[parent][2] not in IO_READERS):
                bytes_hook(counters, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(f"hierkit.{layer}")
                   for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                public = not attr.startswith("_") or attr.startswith("_cmd_")
                if (isinstance(obj, types.FunctionType) and public
                        and obj.__module__ == module.__name__
                        and name not in UNTRACED):
                    wrappers[obj] = self._wrap(name, obj)
        for module in modules + [importlib.import_module("hierkit")]:
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def dump(self, handle) -> None:
        for sid, parent, name, start, end in self.spans:
            handle.write(json.dumps({"run": self.run_id, "span": sid,
                                     "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
        handle.write(json.dumps({"run": self.run_id,
                                 "counters": self.counters}) + "\n")


def read_runs(path: str) -> dict[str, tuple[list[dict], dict]]:
    """Spans and counters of every run in a trace file, keyed by run id."""
    runs: dict[str, tuple[list[dict], dict]] = {}
    with open(path) as handle:
        for line in handle:
            entry = json.loads(line)
            spans, _ = runs.setdefault(entry["run"], ([], {}))
            if "counters" in entry:
                runs[entry["run"]] = (spans, entry["counters"])
            else:
                spans.append(entry)
    return runs


def layer_metrics(spans: list[dict], counters: dict,
                  needed_chi2_terms: int) -> dict[str, float]:
    """Per-layer metrics of one traced chain (all but trace_overhead_s).

    A span's self time is its duration minus the durations of its direct
    children; a layer's self time sums the self times of its spans.
    """
    by_id = {s["span"]: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                       + s["end"] - s["start"])
    self_s = dict.fromkeys(LAYERS, 0.0)
    inclusive: dict[str, float] = {}
    for s in spans:
        duration = s["end"] - s["start"]
        self_s[s["name"].split(".")[0]] += duration - child_time.get(s["span"], 0.0)
        parent = by_id.get(s["parent"])
        # nested calls of the same group (atomic_write_text ->
        # atomic_write_bytes) count once, at the outermost
        for metric, names in FUNCTION_TIMES.items():
            if s["name"] in names and not (parent and parent["name"] in names):
                inclusive[metric] = inclusive.get(metric, 0.0) + duration

    def ratio(amount, base):
        return amount / base if base > 0 else 0.0

    out = {metric: inclusive.get(metric, 0.0) for metric in FUNCTION_TIMES}
    out.update({k: float(v) for k, v in counters.items()})
    chi2_s = sum(s["end"] - s["start"] for s in spans
                 if s["name"] == "svm.chi2_distances")
    out["svm.chi2_s"] = chi2_s
    out["svm.chi2_terms_per_s"] = ratio(counters["svm.chi2_terms"], chi2_s)
    out["svm.chi2_redundancy"] = ratio(counters["svm.chi2_terms"],
                                       needed_chi2_terms)
    out["encoding.frames_per_s"] = ratio(
        counters["encoding.frames"],
        out["encoding.pool_s"] + out["encoding.vlad_s"])
    out["io.read_mb_per_s"] = ratio(counters["io.bytes_read"] / 1e6,
                                    out["io.read_s"])
    out["io.write_mb_per_s"] = ratio(counters["io.bytes_written"] / 1e6,
                                     out["io.write_s"])
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    return out


def median_metrics(per_chain: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_chain) for k in per_chain[0]}
