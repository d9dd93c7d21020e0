"""Seeded input generators for the three benchmark workloads.

Each generator writes the files one workload's CLI chain reads into a
directory and returns a small JSON-able ``meta`` dict with the facts the
output checks need (totals, ids, per-synset image counts). The same seed
always gives byte-identical files. The program under test only ever sees
the files; ``meta`` stays with the benchmark.
"""

from __future__ import annotations

import os
import random

import numpy as np

# Input sizes per workload. "full" is what the benchmark measures; "tiny" is
# for the self-test, which has to finish in seconds.
SIZES = {
    "taxonomy_reorg": {
        # fall-2011 ImageNet has 21,814 synsets with images
        "full": {"synsets": 21814, "image_share": 0.125},
        "tiny": {"synsets": 600, "image_share": 0.5},
    },
    "event_kernel": {
        "full": {"train": 160, "test": 80, "dim": 4000, "events": 5},
        "tiny": {"train": 24, "test": 16, "dim": 64, "events": 2},
    },
    "event_encode": {
        "full": {"videos": 24, "frames": 400, "dim": 128, "k": 64},
        "tiny": {"videos": 12, "frames": 10, "dim": 16, "k": 4},
    },
}


# Extra concept mass of a positive video, over gamma(0.3) noise per concept.
# 0.4 puts mAP near 0.98 with a spread of about 2% over seeds; 0.5 pins it
# at 1.0, where it could not show a loss, and 0.3 spreads it by 6%.
EVENT_SIGNAL = 0.4
# word scale over frame noise in event_encode
WORD_SEPARATION = 100.0


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _write(path: str, data: str | bytes) -> None:
    mode = "wb" if isinstance(data, bytes) else "w"
    with open(path, mode) as handle:
        handle.write(data)


def taxonomy_reorg(outdir: str, seed: int, synsets: int,
                   image_share: float) -> dict:
    """Long-tailed hierarchy in the shape of scripts/make_toy_metadata.py.

    One in four nodes extends a single-child chain; the rest hang under a
    random earlier node, which gives small sibling clusters. Counts are 25%
    empty, 15% singletons, 52% small (2-400) and 8% heavy (2k-6k images).
    ``images.tsv`` lists every image of ``image_share`` of the non-empty
    synsets of each kind, so the train-list export stays comparable in cost
    to the tree steps instead of hiding them.
    """
    rng = random.Random(seed)
    ids = [f"n{i:08d}" for i in range(synsets)]
    rng.shuffle(ids)
    edges = []
    for i in range(1, synsets):
        parent = ids[i - 1] if rng.random() < 0.25 else ids[rng.randrange(i)]
        edges.append((parent, ids[i]))
    # exact stratum sizes, shuffled over the nodes, so totals (and with
    # them run time and memory) vary little from seed to seed
    strata = ([0] * (synsets * 25 // 100) + [1] * (synsets * 15 // 100)
              + [3] * (synsets * 8 // 100))
    strata += [2] * (synsets - len(strata))
    rng.shuffle(strata)
    draw = {0: lambda: 0, 1: lambda: 1, 2: lambda: rng.randint(2, 400),
            3: lambda: rng.randint(2_000, 6_000)}
    counts = {node_id: draw[stratum]() for node_id, stratum in zip(ids, strata)}
    ordered = sorted(ids)
    sampled = {}
    for stratum in (1, 2, 3):
        members = [n for n, kind in zip(ids, strata) if kind == stratum]
        sampled.update((n, counts[n]) for n in rng.sample(
            members, round(image_share * len(members))))
    sampled = dict(sorted(sampled.items()))

    _write(os.path.join(outdir, "is_a.tsv"),
           "".join(f"{p} {c}\n" for p, c in edges))
    _write(os.path.join(outdir, "counts.tsv"),
           "".join(f"{s} {counts[s]}\n" for s in ordered))
    _write(os.path.join(outdir, "words.tsv"),
           "".join(f"{s}\tconcept {i}\n" for i, s in enumerate(ordered)))
    _write(os.path.join(outdir, "images.tsv"), "".join(
        f"{s}_img{j:05d}\t{s}\n" for s, c in sampled.items() for j in range(c)
    ))
    return {
        "synsets": synsets,
        "total_images": sum(counts.values()),
        "sampled_images": sampled,
    }


def _l1_rows(arr: np.ndarray) -> np.ndarray:
    return arr / arr.sum(axis=1, keepdims=True)


def _vectors_csv(ids: list[str], rows: np.ndarray) -> str:
    return "".join(
        item + "," + ",".join(repr(float(v)) for v in row) + "\n"
        for item, row in zip(ids, rows)
    )


def event_kernel(outdir: str, seed: int, train: int, test: int, dim: int,
                 events: int) -> dict:
    """MED-style concept-detector vectors with a few target events.

    Half of each split is background; the other half is spread evenly over
    the events. A positive video gets extra mass on its event's own 5% of
    the concepts, on top of heavy-tailed gamma noise. Rows are
    l1-normalized and non-negative, as the chi-squared kernel requires.
    """
    rng = _rng(seed)
    signatures = [rng.choice(dim, size=max(1, dim // 20), replace=False)
                  for _ in range(events)]

    def split(prefix: str, n: int):
        per_event = n // (2 * events)
        event_of = [e for e in range(events) for _ in range(per_event)]
        event_of += [-1] * (n - len(event_of))
        rows = rng.gamma(0.3, size=(n, dim))
        for row, event in zip(rows, event_of):
            if event >= 0:
                row[signatures[event]] += EVENT_SIGNAL * rng.gamma(
                    0.6, size=len(signatures[event]))
        return [f"{prefix}{i:04d}" for i in range(n)], _l1_rows(rows), event_of

    train_ids, train_rows, train_events = split("tr", train)
    test_ids, test_rows, test_events = split("te", test)
    _write(os.path.join(outdir, "train.csv"), _vectors_csv(train_ids, train_rows))
    _write(os.path.join(outdir, "test.csv"), _vectors_csv(test_ids, test_rows))
    all_ids = train_ids + test_ids
    all_events = train_events + test_events
    for event in range(events):
        _write(os.path.join(outdir, f"labels_e{event}.csv"), "".join(
            f"{item},{int(e == event)}\n" for item, e in zip(all_ids, all_events)
        ))
    return {"train_ids": train_ids, "test_ids": test_ids, "events": events,
            "dim": dim}


def event_encode(outdir: str, seed: int, videos: int, frames: int, dim: int,
                 k: int) -> dict:
    """Per-video frame stacks in the ``bin`` format (u32 n, u32 d, f32 rows).

    Frames are noisy copies of k well-separated visual words, and each video
    draws its words from its own Dirichlet mixture. With one word per
    centroid, Lloyd's iterations settle in two rounds for every seed, so the
    k-means cost depends on n, k and d rather than on the seed's luck. Rows
    are l1-normalized and non-negative.
    """
    rng = _rng(seed)
    words = rng.gamma(0.5, size=(k, dim)) * WORD_SEPARATION
    vdir = os.path.join(outdir, "videos")
    os.makedirs(vdir, exist_ok=True)
    names = []
    for v in range(videos):
        mixture = rng.dirichlet(np.ones(k))
        rows = (words[rng.choice(k, size=frames, p=mixture)]
                + rng.gamma(0.5, size=(frames, dim)))
        name = f"v{v:04d}.bin"
        _write(os.path.join(vdir, name),
               np.array([frames, dim], dtype="<u4").tobytes()
               + _l1_rows(rows).astype("<f4").tobytes())
        names.append(name)
    return {"videos": names, "train": names[: videos // 2],
            "test": names[videos // 2:], "frames": frames, "dim": dim, "k": k}


GENERATORS = {
    "taxonomy_reorg": taxonomy_reorg,
    "event_kernel": event_kernel,
    "event_encode": event_encode,
}


def generate(workload: str, size: str, outdir: str, seed: int) -> dict:
    os.makedirs(outdir, exist_ok=True)
    return GENERATORS[workload](outdir, seed, **SIZES[workload][size])
