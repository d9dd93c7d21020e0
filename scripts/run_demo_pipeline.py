#!/usr/bin/env python3
"""End-to-end demo at desk scale.

Part 1 reorganizes a synthetic long-tailed hierarchy at several threshold
settings and reports the resulting class counts. Part 2 builds a two-channel
event detector: synthetic videos are encoded by average pooling and by VLAD,
each channel is scored with a chi-squared kernel SVM, and the channels are
fused late. Per-event AP and mAP are printed for both channels and the
fusion.
"""

import argparse

import numpy as np

from hierkit import (
    ReorgConfig,
    ScoredList,
    TopDownConfig,
    average_pool,
    bottom_up_pipeline,
    build_taxonomy,
    chi2_kernel,
    kmeans_fit,
    late_fuse,
    mean_average_precision,
    stats,
    svm_score,
    train_kernel_svm,
    vlad_encode,
)
from hierkit.topdown import top_down_pipeline
from make_toy_metadata import synthetic_hierarchy


def reorg_report(seed: int) -> None:
    taxonomy = build_taxonomy(*synthetic_hierarchy(seed))
    report = stats(taxonomy)
    print(
        f"hierarchy: {report.class_count} classes, "
        f"{report.total_images} images, "
        f"{report.singleton_classes} singletons, "
        f"{report.single_child_chain_count} single-child links"
    )
    print(f"{'variant':<28}{'classes':>8}{'unassigned':>12}")
    for t_b, t_p in ((800, 150), (800, 60), (300, 25)):
        label_map, _ = bottom_up_pipeline(
            taxonomy, ReorgConfig(t_b=t_b, t_p=t_p, t_s=2000, seed=seed)
        )
        name = f"bottom-up t_b={t_b} t_p={t_p}"
        print(f"{name:<28}{len(label_map.classes):>8}{label_map.total_unassigned():>12}")
    for t_t, budget in ((150, 40), (60, 120)):
        label_map, _ = top_down_pipeline(
            taxonomy, TopDownConfig(t_t=t_t, budget=budget)
        )
        name = f"top-down t_t={t_t} n={budget}"
        print(f"{name:<28}{len(label_map.classes):>8}{label_map.total_unassigned():>12}")


def synthetic_videos(rng, n_events, n_train_pos, n_train_neg, n_test, dim=16):
    """Frame stacks where only a fraction of a positive's frames carry signal."""
    events = []
    for event in range(n_events):
        signal = np.ones(dim)
        signal[event % dim] = 9.0
        signal[(event + 5) % dim] = 5.0
        background = np.ones(dim) * 1.5

        def make_video(positive):
            n_frames = int(rng.integers(8, 20))
            hit_rate = 0.35 if positive else 0.10
            rows = [
                rng.dirichlet(signal if rng.random() < hit_rate else background)
                for _ in range(n_frames)
            ]
            return np.vstack(rows)

        train = [(make_video(True), 1.0) for _ in range(n_train_pos)]
        train += [(make_video(False), -1.0) for _ in range(n_train_neg)]
        test = [
            (f"ev{event}_t{j}", make_video(j < n_test // 3), j < n_test // 3)
            for j in range(n_test)
        ]
        events.append((train, test))
    return events


def event_detection_report(seed: int) -> None:
    rng = np.random.default_rng(seed)
    events = synthetic_videos(
        rng, n_events=6, n_train_pos=8, n_train_neg=16, n_test=30
    )
    channels: dict[str, list[ScoredList]] = {"pooled": [], "vlad": []}
    for event_idx, (train, test) in enumerate(events):
        train_frames = [frames for frames, _ in train]
        labels = np.array([label for _, label in train])
        positives_frames = [f for f, lab in train if lab > 0]
        codebook = kmeans_fit(
            np.vstack(positives_frames), k=10, seed=seed + event_idx
        )

        for channel, encode in (
            ("pooled", average_pool),
            ("vlad", lambda f: np.abs(vlad_encode(f, codebook))),
        ):
            train_x = np.vstack([encode(f) for f in train_frames])
            # gamma = 1 / mean training chi2 distance, from the Gram's own pass
            gram, gamma = chi2_kernel(train_x)
            model = train_kernel_svm(gram, labels, C=100.0)

            test_x = np.vstack([encode(f) for _, f, _ in test])
            rows, _ = chi2_kernel(test_x, train_x, gamma=gamma)
            decision = svm_score(model, rows)
            scored = ScoredList(
                scores=[(test[j][0], float(decision[j])) for j in range(len(test))],
                positives={item_id for item_id, _, pos in test if pos},
                event=f"e{event_idx}",
            )
            channels[channel].append(scored)

    fused = [
        late_fuse([a, b])
        for a, b in zip(channels["pooled"], channels["vlad"])
    ]
    print(f"\n{'channel':<12}" + "".join(f"{f'e{i}':>8}" for i in range(6)) + f"{'mAP':>8}")
    for name, lists in (
        ("pooled", channels["pooled"]),
        ("vlad", channels["vlad"]),
        ("fused", fused),
    ):
        result = mean_average_precision(lists)
        row = "".join(f"{ap:>8.3f}" for _, ap in result.per_event)
        print(f"{name:<12}{row}{result.mean_ap:>8.3f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    reorg_report(args.seed)
    event_detection_report(args.seed)


if __name__ == "__main__":
    main()
