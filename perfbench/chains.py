"""The CLI chain of each workload and the checks on its outputs.

A chain is a list of ops; an op is one ``hierkit.cli.main`` call. Every path
is relative to the chain's work dir, so the ``# hierkit ...`` provenance
lines, and with them the output bytes, are the same on every run.

An op fails when its exit code is not 0, when one of its outputs breaks an
invariant that holds for any seed, or when an output's digest differs from
the committed reference (default seed) or from the run's first chain.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass
from typing import Callable

import numpy as np

from hierkit.evaluation import ScoredList, mean_average_precision
from hierkit.io import read_codebook, read_model
from hierkit.svm import KKT_TOL, kkt_violation

# the paper's bottom-up presets and top-down budget, as the CLI defines them
TP = {"bottomup-4k": 1250, "bottomup-13k": 200}
TS = 2000
TOPDOWN_BUDGET = 4000
VLAD_SEED = "0"
UNIT_TOL = 1e-9


@dataclass
class Op:
    name: str
    argv: list[str] | Callable[[], list[str]]
    outputs: tuple[str, ...]


def _gram_gamma(path: str) -> str:
    """The gamma the kernel step recorded, as the next step must reuse it."""
    with open(path) as handle:
        header = handle.readline()
    return header.rsplit("gamma=", 1)[1].strip()


def chain(workload: str, meta: dict) -> list[Op]:
    if workload == "taxonomy_reorg":
        tax = ["--isa", "in/is_a.tsv", "--counts", "in/counts.tsv",
               "--names", "in/words.tsv"]
        return [
            Op("validate", ["validate", *tax, "--out", "out/validate.txt"],
               ("out/validate.txt",)),
            Op("stats", ["stats", *tax, "--out", "out/stats.txt"],
               ("out/stats.txt",)),
            *(Op(f"bottomup_{size}",
                 ["reorg-bottomup", *tax, "--preset", f"bottomup-{size}",
                  "--out", f"out/bu{size}.map", "--plan-out", f"out/bu{size}.plan"],
                 (f"out/bu{size}.map", f"out/bu{size}.plan"))
              for size in ("4k", "13k")),
            Op("topdown_4k", ["reorg-topdown", *tax, "--preset", "topdown-4k",
                              "--out", "out/td4k.map"], ("out/td4k.map",)),
            Op("export_trainlist",
               ["export-trainlist", "--labelmap", "out/bu4k.map",
                "--plan", "out/bu4k.plan", "--images", "in/images.tsv",
                "--out", "out/trainlist.tsv"], ("out/trainlist.tsv",)),
        ]
    if workload == "event_kernel":
        events = range(meta["events"])
        ops = [
            Op("kernel_train", ["kernel", "--x", "in/train.csv",
                                "--out", "out/gram.csv"], ("out/gram.csv",)),
            Op("kernel_test", lambda: [
                "kernel", "--x", "in/test.csv", "--y", "in/train.csv",
                "--gamma", _gram_gamma("out/gram.csv"),
                "--out", "out/test_rows.csv"], ("out/test_rows.csv",)),
        ]
        for e in events:
            ops.append(Op(f"train_svm_e{e}",
                          ["train-svm", "--gram", "out/gram.csv",
                           "--labels", f"in/labels_e{e}.csv",
                           "--out", f"out/model_e{e}.hksv"],
                          (f"out/model_e{e}.hksv",)))
            ops.append(Op(f"score_e{e}",
                          ["score", "--model", f"out/model_e{e}.hksv",
                           "--gram-rows", "out/test_rows.csv",
                           "--out", f"out/scores_e{e}.csv"],
                          (f"out/scores_e{e}.csv",)))
        pairs = [a for e in events for a in (
            "--scores", f"out/scores_e{e}.csv", "--labels", f"in/labels_e{e}.csv")]
        ops.append(Op("eval", ["eval", *pairs, "--events",
                               ",".join(f"e{e}" for e in events),
                               "--out", "out/eval.txt"], ("out/eval.txt",)))
        return ops
    if workload == "event_encode":
        def frames(names):
            return ["--frames", *(f"in/videos/{n}" for n in names), "--format", "bin"]
        return [
            Op("pool", ["pool", *frames(meta["videos"]), "--out", "out/pooled.csv"],
               ("out/pooled.csv",)),
            Op("vlad_train", ["vlad", *frames(meta["train"]), "--k", str(meta["k"]),
                              "--seed", VLAD_SEED, "--save-codebook",
                              "out/codebook.hkcb", "--out", "out/vlad_train.csv"],
               ("out/codebook.hkcb", "out/vlad_train.csv")),
            Op("vlad_test", ["vlad", *frames(meta["test"]), "--codebook",
                             "out/codebook.hkcb", "--out", "out/vlad_test.csv"],
               ("out/vlad_test.csv",)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def items(workload: str, meta: dict) -> int:
    """The stated input size behind items_per_s."""
    if workload == "taxonomy_reorg":
        return meta["synsets"]
    if workload == "event_kernel":
        return len(meta["train_ids"]) + len(meta["test_ids"])
    return len(meta["videos"]) * meta["frames"]


def needed_chi2_terms(workload: str, meta: dict) -> int:
    """Chi2 terms the chain's outputs need: one triangle of the symmetric
    training Gram plus every test row."""
    if workload != "event_kernel":
        return 0
    n, m = len(meta["train_ids"]), len(meta["test_ids"])
    return (n * (n - 1) // 2 + m * n) * meta["dim"]


def digest(path: str) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()


# -- output readers, independent of hierkit's own parsers ------------------

def _lines(path: str) -> list[str]:
    with open(path) as handle:
        return [ln for ln in handle.read().splitlines()
                if ln and not ln.startswith("#")]


def _keyvals(path: str) -> dict[str, str]:
    return dict(ln.split("=", 1) for ln in _lines(path))


def _table(path: str) -> tuple[list[str], np.ndarray]:
    ids, rows = [], []
    for ln in _lines(path):
        tokens = ln.split(",")
        ids.append(tokens[0])
        rows.append([float(t) for t in tokens[1:]])
    return ids, np.array(rows)


def _gram(path: str) -> tuple[list[str], list[str], np.ndarray]:
    lines = _lines(path)
    cols = lines[0].split(",")[1:]
    ids, rows = [], []
    for ln in lines[1:]:
        tokens = ln.split(",")
        ids.append(tokens[0])
        rows.append([float(t) for t in tokens[1:]])
    return ids, cols, np.array(rows)


def _label_map(path: str) -> tuple[list[tuple[int, int, list[str]]], int]:
    """(class_id, assigned, members) per class, and the unassigned total."""
    classes, unassigned, tail = [], 0, False
    with open(path) as handle:
        lines = handle.read().splitlines()[1:]
    for ln in lines:
        if ln == "#UNASSIGNED":
            tail = True
        elif tail:
            unassigned += int(ln.split("\t")[1])
        else:
            cid, _, count, members = ln.split("\t")
            classes.append((int(cid), int(count), members.split(",")))
    return classes, unassigned


def _plan(path: str) -> dict[int, int]:
    return {int(ln.split("\t")[0]): int(ln.split("\t")[1]) for ln in _lines(path)}


def _ids(names: list[str]) -> list[str]:
    return [n.rsplit(".", 1)[0] for n in names]


# -- invariants, one function per op kind; each returns a failure or None --

def _check_taxonomy_report(path: str, meta: dict, count_key: str) -> str | None:
    report = _keyvals(path)
    if int(report[count_key]) != meta["synsets"]:
        return f"{count_key}={report[count_key]}, generated {meta['synsets']}"
    if int(report["total_images"]) != meta["total_images"]:
        return "total_images differs from the generated counts"
    return None


def _check_label_map(path: str, meta: dict, floor: int = 0,
                     max_classes: int | None = None) -> str | None:
    classes, unassigned = _label_map(path)
    if sum(c for _, c, _ in classes) + unassigned != meta["total_images"]:
        return "images are neither assigned nor listed as unassigned"
    short = [cid for cid, c, _ in classes if c < floor]
    if short:
        return f"{len(short)} classes below t_p={floor}"
    if max_classes is not None and len(classes) > max_classes:
        return f"{len(classes)} classes exceed the budget {max_classes}"
    return None


def _check_bottomup(map_path: str, plan_path: str, meta: dict,
                    floor: int) -> str | None:
    problem = _check_label_map(map_path, meta, floor=floor)
    if problem:
        return problem
    expected = {cid: min(c, TS) for cid, c, _ in _label_map(map_path)[0]}
    if _plan(plan_path) != expected:
        return "plan targets are not min(assigned, t_s) per class"
    return None


def _check_trainlist(path: str, map_path: str, plan_path: str,
                     meta: dict) -> str | None:
    targets = _plan(plan_path)
    available: dict[int, int] = {}
    for cid, _, members in _label_map(map_path)[0]:
        available[cid] = sum(meta["sampled_images"].get(m, 0) for m in members)
    lines: dict[int, int] = {}
    seen: set[str] = set()
    for ln in _lines(path):
        image, cid = ln.split("\t")
        if image in seen:
            return f"image {image} listed twice"
        seen.add(image)
        lines[int(cid)] = lines.get(int(cid), 0) + 1
    over = [c for c, n in lines.items() if n > targets.get(c, -1)]
    if over:
        return f"{len(over)} classes exceed their plan target"
    expected = {c: min(targets[c], a) for c, a in available.items() if a}
    if lines != expected:
        return "per-class line counts differ from min(target, available)"
    return None


def _check_gram(path: str, meta: dict) -> str | None:
    rows, cols, k = _gram(path)
    if rows != meta["train_ids"] or cols != meta["train_ids"]:
        return "gram ids differ from the training ids"
    if not np.all(np.abs(k - k.T) <= 1e-12):
        return "training gram is not symmetric"
    if not np.all(np.diag(k) == 1.0):
        return "training gram diagonal is not 1"
    return None


def _check_gram_rows(path: str, meta: dict) -> str | None:
    rows, cols, k = _gram(path)
    if rows != meta["test_ids"] or cols != meta["train_ids"]:
        return "test rows have the wrong ids"
    if not np.all((k > 0) & (k <= 1)):
        return "kernel values outside (0, 1]"
    return None


def _check_model(path: str, gram_path: str, meta: dict) -> str | None:
    with open(path, "rb") as handle:
        model, _ = read_model(handle.read())
    if model.train_ids != meta["train_ids"]:
        return "model training ids differ"
    gap = kkt_violation(model, _gram(gram_path)[2])
    if not gap <= KKT_TOL:
        return f"kkt_violation {gap} > {KKT_TOL}"
    return None


def _check_scores(path: str, meta: dict) -> str | None:
    ids, values = _table(path)
    if ids != meta["test_ids"] or not np.all(np.isfinite(values)):
        return "scores missing, misordered or non-finite"
    return None


def _check_eval(path: str, score_paths: list[str], label_paths: list[str],
                meta: dict) -> str | None:
    events = []
    for e, (spath, lpath) in enumerate(zip(score_paths, label_paths)):
        ids, values = _table(spath)
        positives = {ln.split(",")[0] for ln in _lines(lpath)
                     if ln.endswith(",1")}
        events.append(ScoredList(scores=list(zip(ids, values[:, 0].tolist())),
                                 positives=positives, event=f"e{e}"))
    expected = mean_average_precision(events).mean_ap
    reported = float(_keyvals(path)["map"])
    if reported != expected:
        return f"map={reported} but the score files give {expected}"
    return None


def _check_unit_rows(path: str, ids: list[str], norm: Callable) -> str | None:
    got, rows = _table(path)
    if got != ids:
        return "rows have the wrong ids"
    if not np.all(np.abs(norm(rows) - 1.0) <= UNIT_TOL):
        return "rows do not have unit norm"
    return None


def _l1(rows):
    if np.any(rows < 0):
        return np.full(len(rows), np.inf)
    return rows.sum(axis=1)


def _l2(rows):
    return np.sqrt((rows * rows).sum(axis=1))


def _check_codebook(path: str, meta: dict) -> str | None:
    with open(path, "rb") as handle:
        codebook, _ = read_codebook(handle.read())
    if (codebook.k, codebook.dim) != (meta["k"], meta["dim"]):
        return f"codebook is {codebook.k}x{codebook.dim}"
    return None


def check_op(workload: str, op: str, meta: dict, out: str,
             inp: str) -> str | None:
    """The invariant ``op``'s outputs in dir ``out`` break, or None.

    ``out`` holds what the chain wrote to ``out/``; ``inp`` its inputs.
    """
    def p(rel):
        top, name = rel.split("/", 1)
        return f"{out if top == 'out' else inp}/{name}"
    if workload == "taxonomy_reorg":
        if op == "validate":
            if _keyvals(p("out/validate.txt")).get("ok") != "1":
                return "validate did not report ok=1"
            return _check_taxonomy_report(p("out/validate.txt"), meta, "nodes")
        if op == "stats":
            return _check_taxonomy_report(p("out/stats.txt"), meta, "class_count")
        if op.startswith("bottomup_"):
            size = op.split("_")[1]
            return _check_bottomup(p(f"out/bu{size}.map"), p(f"out/bu{size}.plan"),
                                   meta, TP[f"bottomup-{size}"])
        if op == "topdown_4k":
            return _check_label_map(p("out/td4k.map"), meta,
                                    max_classes=TOPDOWN_BUDGET)
        return _check_trainlist(p("out/trainlist.tsv"), p("out/bu4k.map"),
                                p("out/bu4k.plan"), meta)
    if workload == "event_kernel":
        if op == "kernel_train":
            return _check_gram(p("out/gram.csv"), meta)
        if op == "kernel_test":
            return _check_gram_rows(p("out/test_rows.csv"), meta)
        if op.startswith("train_svm_"):
            e = op.rsplit("_", 1)[1]
            return _check_model(p(f"out/model_{e}.hksv"), p("out/gram.csv"), meta)
        if op.startswith("score_"):
            return _check_scores(p(f"out/scores_{op.split('_')[1]}.csv"), meta)
        events = range(meta["events"])
        return _check_eval(p("out/eval.txt"),
                           [p(f"out/scores_e{e}.csv") for e in events],
                           [p(f"in/labels_e{e}.csv") for e in events], meta)
    if op == "pool":
        return _check_unit_rows(p("out/pooled.csv"), _ids(meta["videos"]), _l1)
    if op == "vlad_train":
        return (_check_codebook(p("out/codebook.hkcb"), meta)
                or _check_unit_rows(p("out/vlad_train.csv"),
                                    _ids(meta["train"]), _l2))
    return _check_unit_rows(p("out/vlad_test.csv"), _ids(meta["test"]), _l2)


def quality(workload: str, meta: dict, out: str) -> dict[str, float]:
    """``map`` and ``imbalance`` of one chain's outputs in dir ``out``.

    ``imbalance`` is the 99th-percentile class image count (nearest rank)
    over the median one, in the bottom-up 4k label map. The single largest
    class swings by a third between seeds; the 99th percentile by a few
    percent.

    A workload whose chain has no ranking (``map``) or no label map
    (``imbalance``) reports 1.0, the value of a perfect result.
    """
    result = {"map": 1.0, "imbalance": 1.0}
    if workload == "event_kernel":
        result["map"] = float(_keyvals(f"{out}/eval.txt")["map"])
    elif workload == "taxonomy_reorg":
        counts = sorted(c for _, c, _ in _label_map(f"{out}/bu4k.map")[0])
        p99 = counts[math.ceil(0.99 * len(counts)) - 1]
        result["imbalance"] = p99 / statistics.median(counts)
    if not all(math.isfinite(v) for v in result.values()):
        raise ValueError(f"non-finite quality metric {result}")
    return result
