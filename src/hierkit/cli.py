"""Command-line entry point exposing every pipeline stage.

Exit codes: 0 success, 1 usage error, 2 input parse error, 3 contract
violation. All file outputs are written atomically (temp file + rename), and
re-running a subcommand with identical inputs produces byte-identical files.
The provenance ``hierkit <version> <subcommand> <flags>`` is recorded as
follows: text reports, train lists, vector, Gram and score CSVs start with
``# <provenance>`` (a Gram appends `` | gamma=<value>``); label maps carry it
inside their ``# hierkit-labelmap v1`` header; codebooks and models hold it
in a length-prefixed field; subsample plans have only their own header.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .bottomup import (
    ReorgConfig,
    bottom_up_pipeline,
    read_plan,
    selected_indices,
    write_plan,
)
from .encoding import average_pool, kmeans_fit, vlad_encode
from .errors import ContractViolation, HierkitError, ParseError
from .evaluation import ScoredList, late_fuse, mean_average_precision
from .io import (
    _read_bytes,
    _read_text,
    _records,
    atomic_write_bytes,
    atomic_write_text,
    fmt,
    read_codebook,
    read_frames_file,
    read_gram_csv,
    read_labels_csv,
    read_model,
    read_scores_csv,
    read_vectors_csv,
    write_codebook,
    write_gram_csv,
    write_model,
    write_scores_csv,
    write_vectors_csv,
)
from .labelmap import read_label_map, write_label_map
from .svm import chi2_kernel, svm_score, train_kernel_svm
from .taxonomy import build_taxonomy, parse_counts, parse_isa_edges, parse_names, stats
from .topdown import TopDownConfig, top_down_pipeline

PRESETS = {
    "bottomup-4k": {"tb": 7000, "tp": 1250, "ts": 2000},
    "bottomup-8k": {"tb": 7000, "tp": 500, "ts": 2000},
    "bottomup-13k": {"tb": 3000, "tp": 200, "ts": 2000},
    "topdown-4k": {"tt": 1200, "budget": 4000},
}


class UsageError(HierkitError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2)
        raise UsageError(message)


def _emit(path: str | None, text: str) -> None:
    if path:
        atomic_write_text(path, text)
    else:
        sys.stdout.write(text)


def _load_taxonomy(ns):
    edges, duplicates = parse_isa_edges(_read_text(ns.isa))
    counts = parse_counts(_read_text(ns.counts))
    names = parse_names(_read_text(ns.names)) if ns.names else None
    return build_taxonomy(edges, counts, names), duplicates


def _frame_ids(paths: list[str]) -> list[str]:
    ids = [os.path.splitext(os.path.basename(p))[0] for p in paths]
    if len(set(ids)) != len(ids):
        raise ContractViolation("frame file basenames collide")
    return ids


def _frame_matrices(ns):
    """Each ``--frames`` file's matrix, in order; all share one dimension."""
    dim = None
    for path in ns.frames:
        frames = read_frames_file(path, ns.format)
        if dim is None:
            dim = frames.shape[1]
        elif frames.shape[1] != dim:
            raise ContractViolation(
                f"{path}: frame dimension {frames.shape[1]} differs from "
                f"{dim} in {ns.frames[0]}"
            )
        yield frames


def _apply_preset(ns, keys: dict[str, str]) -> None:
    if not ns.preset:
        missing = [flag for attr, flag in keys.items() if getattr(ns, attr) is None]
        if missing:
            raise UsageError(
                "missing " + ", ".join(missing) + " (or use --preset)"
            )
        return
    for attr, value in PRESETS[ns.preset].items():
        if attr in keys and getattr(ns, attr) is None:
            setattr(ns, attr, value)


# -- subcommand handlers ----------------------------------------------------

def _cmd_validate(ns, prov: str) -> int:
    taxonomy, duplicates = _load_taxonomy(ns)
    lines = [
        f"# {prov}",
        f"nodes={len(taxonomy.nodes)}",
        f"root={taxonomy.root}",
        f"synthetic_root={int(taxonomy.synthetic_root)}",
        f"dropped_edges={len(taxonomy.dropped_edges)}",
        f"orphans={len(taxonomy.orphans)}",
        f"duplicate_edges={duplicates}",
        f"total_images={taxonomy.total_images()}",
        "ok=1",
    ]
    _emit(getattr(ns, "out", None), "\n".join(lines) + "\n")
    return 0


def _cmd_stats(ns, prov: str) -> int:
    taxonomy, _ = _load_taxonomy(ns)
    report = stats(taxonomy)
    lines = [
        f"# {prov}",
        f"class_count={report.class_count}",
        f"total_images={report.total_images}",
        f"singleton_classes={report.singleton_classes}",
        f"single_child_chain_count={report.single_child_chain_count}",
        f"max_count_class={report.max_count_class[0]}",
        f"max_count_images={report.max_count_class[1]}",
    ]
    lines.extend(
        f"histogram_{bound}={count}" for bound, count in report.count_histogram
    )
    lines.extend(
        f"depth_{depth}={count}"
        for depth, count in enumerate(report.per_depth_class_counts)
    )
    _emit(ns.out, "\n".join(lines) + "\n")
    return 0


def _cmd_reorg_bottomup(ns, prov: str) -> int:
    _apply_preset(ns, {"tb": "--tb", "tp": "--tp", "ts": "--ts"})
    taxonomy, _ = _load_taxonomy(ns)
    config = ReorgConfig(t_b=ns.tb, t_p=ns.tp, t_s=ns.ts, seed=ns.seed)
    label_map, plan = bottom_up_pipeline(taxonomy, config)
    label_map.provenance = f"{prov} | {label_map.provenance}"
    atomic_write_text(ns.out, write_label_map(label_map))
    if ns.plan_out:
        atomic_write_text(ns.plan_out, write_plan(plan))
    print(f"classes={len(label_map.classes)}", file=sys.stderr)
    return 0


def _cmd_reorg_topdown(ns, prov: str) -> int:
    _apply_preset(ns, {"tt": "--tt", "budget": "--budget"})
    taxonomy, _ = _load_taxonomy(ns)
    config = TopDownConfig(t_t=ns.tt, budget=ns.budget)
    label_map, warnings = top_down_pipeline(taxonomy, config)
    label_map.provenance = f"{prov} | {label_map.provenance}"
    atomic_write_text(ns.out, write_label_map(label_map))
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"classes={len(label_map.classes)}", file=sys.stderr)
    return 0


def _cmd_export_trainlist(ns, prov: str) -> int:
    label_map = read_label_map(_read_text(ns.labelmap))
    plan = read_plan(_read_text(ns.plan)) if ns.plan else None
    targets = None
    if plan:
        targets = {entry.class_id: entry.target_count for entry in plan.entries}
        stray = targets.keys() ^ {cls.class_id for cls in label_map.classes}
        if stray:
            raise ContractViolation(
                f"class {min(stray)} is in only one of the plan and the "
                "label map"
            )

    class_of = label_map.class_of_synset().get
    per_class: dict[int, list[str]] = {}
    for lineno, raw, fields in _records(_read_text(ns.images), "\t"):
        if len(fields) != 2:
            raise ParseError(
                f"expected 'image_id<TAB>synset_id', got {raw!r}", line=lineno
            )
        class_id = class_of(fields[1])
        if class_id is not None:
            try:
                per_class[class_id].append(fields[0])
            except KeyError:
                per_class[class_id] = [fields[0]]

    lines = [f"# {prov}"]
    for class_id in sorted(per_class):
        images = per_class[class_id]
        if targets is None:
            keep = range(len(images))
        else:
            target = min(targets[class_id], len(images))
            keep = selected_indices(plan.seed, class_id, len(images), target)
        suffix = f"\t{class_id}"
        lines.extend([images[i] + suffix for i in keep])
    atomic_write_text(ns.out, "\n".join(lines) + "\n")
    return 0


def _cmd_pool(ns, prov: str) -> int:
    ids = _frame_ids(ns.frames)
    vectors = [average_pool(frames) for frames in _frame_matrices(ns)]
    atomic_write_text(ns.out, write_vectors_csv(ids, np.vstack(vectors), header=prov))
    return 0


def _cmd_vlad(ns, prov: str) -> int:
    if ns.codebook and (
        ns.k is not None or ns.seed is not None or ns.save_codebook
    ):
        raise UsageError("--codebook excludes --k, --seed and --save-codebook")
    if not ns.codebook and ns.k is None:
        raise UsageError("need --codebook or --k to build one")
    ids = _frame_ids(ns.frames)
    matrices = list(_frame_matrices(ns))
    if ns.codebook:
        codebook, _ = read_codebook(_read_bytes(ns.codebook))
    else:
        codebook = kmeans_fit(np.vstack(matrices), ns.k, ns.seed or 0)
        if ns.save_codebook:
            atomic_write_bytes(
                ns.save_codebook, write_codebook(codebook, provenance=prov)
            )
    encodings = [vlad_encode(arr, codebook) for arr in matrices]
    atomic_write_text(ns.out, write_vectors_csv(ids, np.vstack(encodings), header=prov))
    return 0


def _cmd_kernel(ns, prov: str) -> int:
    if ns.y and ns.gamma is None:
        raise UsageError(
            "--gamma is required with --y; reuse the value recorded "
            "in the training gram header"
        )
    x_ids, x_vectors = read_vectors_csv(_read_text(ns.x))
    y_ids, y_vectors = (
        read_vectors_csv(_read_text(ns.y)) if ns.y else (x_ids, None)
    )
    gram, gamma = chi2_kernel(x_vectors, y_vectors, gamma=ns.gamma)
    text = write_gram_csv(
        x_ids, y_ids, gram, header=f"{prov} | gamma={fmt(gamma)}"
    )
    atomic_write_text(ns.out, text)
    return 0


def _cmd_train_svm(ns, prov: str) -> int:
    row_ids, col_ids, gram = read_gram_csv(_read_text(ns.gram))
    if row_ids != col_ids:
        raise ContractViolation("training gram must have matching row/col ids")
    labels01 = read_labels_csv(_read_text(ns.labels))
    missing = [i for i in row_ids if i not in labels01]
    if missing:
        raise ContractViolation(
            f"labels missing for {len(missing)} items, e.g. {missing[0]!r}"
        )
    labels = np.array([1.0 if labels01[i] else -1.0 for i in row_ids])
    model = train_kernel_svm(gram, labels, C=ns.c, train_ids=row_ids)
    atomic_write_bytes(ns.out, write_model(model, provenance=prov))
    return 0


def _cmd_score(ns, prov: str) -> int:
    model, _ = read_model(_read_bytes(ns.model))
    row_ids, col_ids, rows = read_gram_csv(_read_text(ns.gram_rows))
    if model.train_ids and col_ids != model.train_ids:
        raise ContractViolation(
            "gram-rows columns do not match the model's training items"
        )
    scores = svm_score(model, rows).tolist()
    atomic_write_text(
        ns.out, write_scores_csv(list(zip(row_ids, scores)), header=prov)
    )
    return 0


def _cmd_fuse(ns, prov: str) -> int:
    channels = [
        ScoredList(scores=read_scores_csv(_read_text(path)))
        for path in ns.scores
    ]
    fused = late_fuse(channels)
    atomic_write_text(ns.out, write_scores_csv(fused.scores, header=prov))
    return 0


def _cmd_eval(ns, prov: str) -> int:
    if len(ns.scores) != len(ns.labels):
        raise UsageError("--scores and --labels must be paired")
    event_names = (
        ns.events.split(",") if ns.events
        else [str(i) for i in range(len(ns.scores))]
    )
    if len(event_names) != len(ns.scores):
        raise UsageError("--events count must match --scores count")
    events = []
    for name, score_path, label_path in zip(event_names, ns.scores, ns.labels):
        scores = read_scores_csv(_read_text(score_path))
        labels01 = read_labels_csv(_read_text(label_path))
        unknown = [i for i, _ in scores if i not in labels01]
        if unknown:
            raise ContractViolation(
                f"no label for item {unknown[0]!r} in event {name}"
            )
        positives = {i for i, _ in scores if labels01[i] == 1}
        events.append(ScoredList(scores=scores, positives=positives, event=name))
    result = mean_average_precision(events)
    lines = [f"# {prov}"]
    lines.extend(f"ap.{name}={fmt(ap)}" for name, ap in result.per_event)
    lines.append(f"map={fmt(result.mean_ap)}")
    _emit(ns.out, "\n".join(lines) + "\n")
    return 0


# -- parser -----------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="hierkit", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    def add(name, handler, configure):
        p = sub.add_parser(name)
        configure(p)
        p.set_defaults(handler=handler)
        return p

    def taxonomy_inputs(p):
        p.add_argument("--isa", required=True, help="is_a.tsv: parent child per line")
        p.add_argument("--counts", required=True, help="counts.tsv: synset count per line")
        p.add_argument("--names", help="words.tsv: synset<TAB>name per line")

    def p_validate(p):
        taxonomy_inputs(p)
        p.add_argument("--out")

    def p_stats(p):
        taxonomy_inputs(p)
        p.add_argument("--out")

    def p_bottomup(p):
        taxonomy_inputs(p)
        p.add_argument("--tb", type=int)
        p.add_argument("--tp", type=int)
        p.add_argument("--ts", type=int)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--preset", choices=[k for k in PRESETS if k.startswith("bottomup")])
        p.add_argument("--out", required=True)
        p.add_argument("--plan-out", dest="plan_out")

    def p_topdown(p):
        taxonomy_inputs(p)
        p.add_argument("--tt", type=int)
        p.add_argument("--budget", type=int)
        p.add_argument("--preset", choices=["topdown-4k"])
        p.add_argument("--out", required=True)

    def p_trainlist(p):
        p.add_argument("--labelmap", required=True)
        p.add_argument("--images", required=True, help="image_id<TAB>synset_id per line")
        p.add_argument("--plan")
        p.add_argument("--out", required=True)

    def frames_args(p):
        p.add_argument("--frames", nargs="+", required=True)
        p.add_argument("--format", choices=["csv", "bin"])
        p.add_argument("--out", required=True)

    def p_vlad(p):
        frames_args(p)
        p.add_argument("--codebook")
        p.add_argument("--k", type=int)
        p.add_argument("--seed", type=int, help="k-means seed (default 0)")
        p.add_argument("--save-codebook", dest="save_codebook")

    def p_kernel(p):
        p.add_argument("--x", required=True)
        p.add_argument("--y")
        p.add_argument("--gamma", type=float)
        p.add_argument("--out", required=True)

    def p_train(p):
        p.add_argument("--gram", required=True)
        p.add_argument("--labels", required=True)
        p.add_argument("--c", type=float, default=100.0)
        p.add_argument("--out", required=True)

    def p_score(p):
        p.add_argument("--model", required=True)
        p.add_argument("--gram-rows", dest="gram_rows", required=True)
        p.add_argument("--out", required=True)

    def p_fuse(p):
        p.add_argument("--scores", action="append", required=True)
        p.add_argument("--out", required=True)

    def p_eval(p):
        p.add_argument("--scores", action="append", required=True)
        p.add_argument("--labels", action="append", required=True)
        p.add_argument("--events")
        p.add_argument("--out")

    add("validate", _cmd_validate, p_validate)
    add("stats", _cmd_stats, p_stats)
    add("reorg-bottomup", _cmd_reorg_bottomup, p_bottomup)
    add("reorg-topdown", _cmd_reorg_topdown, p_topdown)
    add("export-trainlist", _cmd_export_trainlist, p_trainlist)
    add("pool", _cmd_pool, frames_args)
    add("vlad", _cmd_vlad, p_vlad)
    add("kernel", _cmd_kernel, p_kernel)
    add("train-svm", _cmd_train_svm, p_train)
    add("score", _cmd_score, p_score)
    add("fuse", _cmd_fuse, p_fuse)
    add("eval", _cmd_eval, p_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        if not getattr(ns, "handler", None):
            raise UsageError("a subcommand is required")
        prov = f"hierkit {__version__} " + " ".join(argv)
        return ns.handler(ns, prov)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ContractViolation as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:  # argparse --help/--version
        return int(exc.code or 0)


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
