"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL/SKIP
line per criterion. Criterion 3 needs real hierarchy metadata and is skipped
unless HIERKIT_IMAGENET_DIR points at a directory containing ``is_a.tsv``
and ``counts.tsv`` restricted to image-bearing synsets.
"""

import itertools
import os
import random
import time

import numpy as np
import pytest

from hierkit import bottomup
from hierkit.bottomup import ReorgConfig, bottom_up_pipeline
from hierkit.cli import main
from hierkit.encoding import average_pool, kmeans_fit, vlad_encode
from hierkit.evaluation import (
    ScoredList,
    average_precision,
    late_fuse,
    mean_average_precision,
)
from hierkit.labelmap import LabelMap, write_label_map
from hierkit.svm import chi2_kernel, kkt_violation, svm_score, train_kernel_svm
from hierkit.taxonomy import (
    build_taxonomy,
    parse_counts,
    parse_isa_edges,
    stats,
    subtree_counts,
)
from hierkit.topdown import TopDownConfig, top_down_pipeline

from gen import random_reorg_params, random_taxonomy, random_topdown_params
from oracles import (
    oracle_assign,
    oracle_average_precision,
    oracle_bottom_up,
    oracle_svm_dual,
    oracle_top_down_select,
    oracle_write_frames_csv,
)

N_TAXONOMIES = 1000


def _report(criterion: str) -> None:
    print(f"\n[acceptance] {criterion}: PASS")


def test_criterion_1_reorg_invariants():
    """Conservation, roll fixpoint, promote floor, bind maximality; < 60 s."""
    started = time.monotonic()
    for seed in range(N_TAXONOMIES):
        taxonomy = random_taxonomy(seed, max_nodes=200, max_count=10_000)
        total = taxonomy.total_images()
        t_b, t_p, _ = random_reorg_params(seed)

        # the pipeline's three in-place steps, chained on one copy
        tree = bottomup._working_copy(taxonomy)
        bottomup._roll(tree)
        assert tree.total_images() == total
        assert all(len(n.children) != 1 for n in tree.nodes.values())
        rolled_nodes = set(tree.nodes)
        bottomup._roll(tree)
        assert set(tree.nodes) == rolled_nodes

        bottomup._bind(tree, t_b)
        assert tree.total_images() == total
        bound_sums = subtree_counts(tree)
        assert all(
            bound_sums[node_id] >= t_b
            for node_id, node in tree.nodes.items()
            if node.children
        )

        bottomup._promote(tree, t_p)
        assert tree.total_images() == total
        assert all(
            node.direct_count >= t_p
            for node_id, node in tree.nodes.items()
            if node_id != tree.root
        )
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"invariant suite took {elapsed:.1f}s"
    _report(f"criterion 1 reorg invariants ({elapsed:.1f}s)")


def test_criterion_2_oracle_equivalence():
    """Naive roll/bind/promote/top-down agree with the library byte-for-byte."""
    for seed in range(N_TAXONOMIES):
        taxonomy = random_taxonomy(seed, max_nodes=200, max_count=10_000)
        t_b, t_p, t_s = random_reorg_params(seed)

        label_map, _ = bottom_up_pipeline(
            taxonomy, ReorgConfig(t_b=t_b, t_p=t_p, t_s=t_s, seed=seed)
        )
        expected = oracle_bottom_up(taxonomy, t_b, t_p, label_map.provenance)
        assert write_label_map(label_map) == write_label_map(expected)

        t_t, budget = random_topdown_params(seed)
        td_map, _ = top_down_pipeline(
            taxonomy, TopDownConfig(t_t=t_t, budget=budget)
        )
        selected = oracle_top_down_select(taxonomy, t_t, budget)
        if selected:
            td_expected = oracle_assign(taxonomy, selected, td_map.provenance)
        else:
            td_expected = LabelMap(
                classes=[],
                unassigned=sorted(
                    (node_id, node.direct_count)
                    for node_id, node in taxonomy.nodes.items()
                    if node.direct_count > 0
                ),
                provenance=td_map.provenance,
            )
        assert write_label_map(td_map) == write_label_map(td_expected)
    _report(f"criterion 2 oracle equivalence ({N_TAXONOMIES} taxonomies)")


def test_criterion_3_imagenet_metadata():
    """Preset class counts and stats on real metadata, when available."""
    directory = os.environ.get("HIERKIT_IMAGENET_DIR")
    if not directory:
        pytest.skip(
            "[acceptance] criterion 3 imagenet metadata: SKIP "
            "(set HIERKIT_IMAGENET_DIR to run)"
        )
    started = time.monotonic()
    with open(os.path.join(directory, "is_a.tsv"), encoding="utf-8") as fh:
        edges, _ = parse_isa_edges(fh.read())
    with open(os.path.join(directory, "counts.tsv"), encoding="utf-8") as fh:
        counts = parse_counts(fh.read())
    taxonomy = build_taxonomy(edges, counts)

    report = stats(taxonomy)
    assert abs(report.class_count - 21_814) <= 0.002 * 21_814
    assert abs(report.singleton_classes - 296) <= 0.05 * 296

    expectations = {
        (7000, 1250): 4437,
        (7000, 500): 8201,
        (3000, 200): 12_988,
    }
    for (t_b, t_p), expected in expectations.items():
        label_map, _ = bottom_up_pipeline(
            taxonomy, ReorgConfig(t_b=t_b, t_p=t_p, t_s=2000, seed=0)
        )
        assert abs(len(label_map.classes) - expected) <= 0.05 * expected

    td_map, _ = top_down_pipeline(
        taxonomy, TopDownConfig(t_t=1200, budget=4000)
    )
    assert len(td_map.classes) == 4000

    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"metadata checks took {elapsed:.1f}s"
    _report(f"criterion 3 imagenet metadata ({elapsed:.1f}s)")


def test_criterion_4_encoding_properties():
    """VLAD dimensions, permutation invariance, kernel diagonal, PSD floor."""
    rng = np.random.default_rng(77)

    frames = rng.normal(size=(40, 1024))
    codebook = kmeans_fit(frames, k=10, seed=1)
    assert vlad_encode(frames, codebook).shape == (10_240,)

    for k, d in ((1, 3), (4, 2), (7, 16)):
        sample = rng.normal(size=(k + 9, d))
        book = kmeans_fit(sample, k=k, seed=2)
        assert vlad_encode(sample, book).shape == (k * d,)

    small = rng.normal(size=(30, 8))
    book = kmeans_fit(small, k=5, seed=3)
    pooled_base = average_pool(np.abs(small))
    vlad_base = vlad_encode(small, book)
    for _ in range(100):
        perm = rng.permutation(len(small))
        np.testing.assert_array_equal(
            average_pool(np.abs(small)[perm]), pooled_base
        )
        np.testing.assert_array_equal(
            vlad_encode(small[perm], book), vlad_base
        )

    histograms = rng.dirichlet(np.ones(12), size=25)
    gram, _ = chi2_kernel(histograms, gamma=0.8)
    np.testing.assert_array_equal(np.diag(gram), np.ones(25))

    for trial in range(50):
        x = rng.dirichlet(np.ones(6), size=int(rng.integers(2, 20)))
        g, _ = chi2_kernel(x, gamma=float(rng.uniform(0.05, 4.0)))
        assert np.linalg.eigvalsh(g).min() >= -1e-8
    _report("criterion 4 encoding properties")


def test_criterion_5_average_precision_oracle():
    """Exact agreement with the brute-force AP.

    Exhaustive over every labeling and permutation for up to 7 items. At 8
    items, AP of distinct scores depends only on which ranks hold positives,
    so the default run checks every positive-rank pattern exactly (the full
    outcome space) plus 2,000 seeded random permutation/labeling/tie
    combinations; set HIERKIT_EXHAUSTIVE_AP=1 to sweep the entire
    permutation x labeling product at n=8 as well (~3 minutes, verified to
    pass).
    """
    def check(scores, positives):
        got = average_precision(
            ScoredList(scores=scores, positives=positives)
        )
        want = oracle_average_precision(scores, positives)
        assert abs(got - float(want)) < 1e-12

    full_sweep_limit = (
        9 if os.environ.get("HIERKIT_EXHAUSTIVE_AP") == "1" else 8
    )
    for n in range(1, full_sweep_limit):
        ids = [chr(ord("a") + i) for i in range(n)]
        labelings = [
            {ids[i] for i in range(n) if (bits >> i) & 1}
            for bits in range(1, 2**n)
        ]
        for perm in itertools.permutations(range(1, n + 1)):
            scores = list(zip(ids, map(float, perm)))
            for positives in labelings:
                check(scores, positives)

    n = 8
    ids = [chr(ord("a") + i) for i in range(n)]
    labelings = [
        {ids[i] for i in range(n) if (bits >> i) & 1}
        for bits in range(1, 2**n)
    ]
    identity = list(zip(ids, map(float, range(n, 0, -1))))
    for positives in labelings:
        check(identity, positives)
    rng = random.Random(4242)
    for _ in range(2000):
        values = [float(rng.randint(1, 4)) for _ in range(n)]  # heavy ties
        rng.shuffle(values)
        scores = list(zip(ids, values))
        check(scores, rng.choice(labelings))
    _report("criterion 5 average precision oracle")


def test_criterion_6_svm_verification():
    """Separable 20-point set, C=100: accuracy, KKT, constraints, QP oracle."""
    rng = np.random.default_rng(2025)
    pos = rng.dirichlet([80.0, 20.0], size=10)
    neg = rng.dirichlet([20.0, 80.0], size=10)
    x = np.vstack([pos, neg])
    y = np.array([1.0] * 10 + [-1.0] * 10)

    gram, _ = chi2_kernel(x, gamma=1.0)
    model = train_kernel_svm(gram, y, C=100.0)

    scores = svm_score(model, gram)
    assert np.all(np.sign(scores) == y)
    assert kkt_violation(model, gram) < 1e-3
    assert np.all(model.alpha >= 0.0) and np.all(model.alpha <= 100.0)
    assert abs(float(np.sum(model.alpha * model.labels))) <= 1e-6

    alpha_star, bias_star = oracle_svm_dual(gram, y, C=100.0)
    oracle_scores = gram @ (alpha_star * y) + bias_star
    np.testing.assert_allclose(scores, oracle_scores, atol=1e-3)
    _report("criterion 6 svm verification")


def test_criterion_7_fusion_sanity():
    """Fused mAP beats both half-informative channels; self-fusion is stable."""
    rng = random.Random(31337)
    n_events, n_items, n_pos = 20, 100, 10

    def channel(informative):
        events = []
        for e in range(n_events):
            ids = [f"v{i}" for i in range(n_items)]
            positives = set(ids[:n_pos])
            scores = []
            for item in ids:
                if e in informative:
                    lo, hi = (0.9, 1.0) if item in positives else (0.0, 0.1)
                    scores.append((item, rng.uniform(lo, hi)))
                else:
                    scores.append((item, rng.uniform(0.0, 1.0)))
            events.append(
                ScoredList(scores=scores, positives=positives, event=f"e{e}")
            )
        return events

    first = channel(set(range(10)))
    second = channel(set(range(10, 20)))
    fused = [late_fuse([a, b]) for a, b in zip(first, second)]
    map_first = mean_average_precision(first).mean_ap
    map_second = mean_average_precision(second).mean_ap
    map_fused = mean_average_precision(fused).mean_ap
    assert map_fused >= max(map_first, map_second)

    one = first[0]
    assert late_fuse([one, one]).ranking() == one.ranking()
    _report(
        "criterion 7 fusion sanity "
        f"(fused {map_fused:.3f} vs {map_first:.3f}/{map_second:.3f})"
    )


def test_criterion_8_cli_determinism(tmp_path):
    """Every subcommand re-runs byte-identically."""
    isa = tmp_path / "is_a.tsv"
    counts = tmp_path / "counts.tsv"
    isa.write_text("R A\nR B\nR C\nA A1\nA A2\nB B1\nB1 B2\n")
    counts.write_text("A 10\nA1 3\nA2 4\nB 1\nB1 2\nB2 5\nC 100\n")
    images = tmp_path / "images.tsv"
    images.write_text(
        "".join(f"imgA{i}\tA\n" for i in range(8))
        + "".join(f"imgC{i}\tC\n" for i in range(4))
    )

    rng = np.random.default_rng(9)
    frame_paths = []
    for i in range(4):
        alphas = [12, 2, 1] if i < 2 else [1, 2, 12]
        path = tmp_path / f"vid{i}.csv"
        frames = rng.dirichlet(alphas, size=10)
        path.write_text(oracle_write_frames_csv(frames))
        frame_paths.append(str(path))
    labels = tmp_path / "labels.csv"
    labels.write_text("vid0,1\nvid1,1\nvid2,0\nvid3,0\n")

    out = {
        name: str(tmp_path / name)
        for name in (
            "validate.txt", "stats.txt", "bottomup.tsv", "plan.tsv",
            "topdown.tsv", "train.tsv", "pooled.csv", "vlad.csv",
            "codebook.bin", "gram.csv", "model.bin", "scores.csv",
            "fused.csv", "report.txt",
        )
    }
    commands = [
        ["validate", "--isa", str(isa), "--counts", str(counts),
         "--out", out["validate.txt"]],
        ["stats", "--isa", str(isa), "--counts", str(counts),
         "--out", out["stats.txt"]],
        ["reorg-bottomup", "--isa", str(isa), "--counts", str(counts),
         "--tb", "20", "--tp", "10", "--ts", "3", "--seed", "5",
         "--out", out["bottomup.tsv"], "--plan-out", out["plan.tsv"]],
        ["reorg-topdown", "--isa", str(isa), "--counts", str(counts),
         "--tt", "5", "--budget", "3", "--out", out["topdown.tsv"]],
        ["export-trainlist", "--labelmap", out["bottomup.tsv"],
         "--images", str(images), "--plan", out["plan.tsv"],
         "--out", out["train.tsv"]],
        ["pool", "--frames", *frame_paths, "--out", out["pooled.csv"]],
        ["vlad", "--frames", *frame_paths, "--k", "3", "--seed", "2",
         "--save-codebook", out["codebook.bin"], "--out", out["vlad.csv"]],
        ["kernel", "--x", out["pooled.csv"], "--out", out["gram.csv"]],
        ["train-svm", "--gram", out["gram.csv"], "--labels", str(labels),
         "--c", "100", "--out", out["model.bin"]],
        ["score", "--model", out["model.bin"], "--gram-rows", out["gram.csv"],
         "--out", out["scores.csv"]],
        ["fuse", "--scores", out["scores.csv"], "--scores", out["scores.csv"],
         "--out", out["fused.csv"]],
        ["eval", "--scores", out["scores.csv"], "--labels", str(labels),
         "--events", "toy", "--out", out["report.txt"]],
    ]

    produced: dict[str, bytes] = {}
    for argv in commands:
        assert main(list(argv)) == 0, argv
        target = argv[argv.index("--out") + 1]
        produced[target] = open(target, "rb").read()

    for argv in commands:
        assert main(list(argv)) == 0, argv
        target = argv[argv.index("--out") + 1]
        assert open(target, "rb").read() == produced[target], argv[0]
    _report("criterion 8 cli determinism")
