#!/usr/bin/env python3
"""Generate a synthetic long-tailed class hierarchy for CLI experiments.

Writes is_a.tsv, counts.tsv, words.tsv, and images.tsv into --outdir. The
shape mimics the pathologies the reorganization targets: deep single-child
chains, small sibling clusters, a few over-populated classes, and many
near-empty ones.
"""

import argparse
import os
import random


def synthetic_hierarchy(seed: int, n: int = 400):
    """Is-a edges ``(parent, child)`` and image counts of ``n`` synsets;
    the same seed gives the same hierarchy."""
    rng = random.Random(seed)
    ids = [f"n{i:08d}" for i in range(n)]
    rng.shuffle(ids)

    edges = []
    for i in range(1, n):
        if rng.random() < 0.25:
            # extend a chain: attach to the most recently added node
            parent = ids[i - 1]
        else:
            parent = ids[rng.randrange(0, i)]
        edges.append((parent, ids[i]))

    counts = {}
    for node_id in ids:
        roll = rng.random()
        if roll < 0.25:
            counts[node_id] = 0
        elif roll < 0.40:
            counts[node_id] = 1
        elif roll < 0.92:
            counts[node_id] = rng.randint(2, 400)
        else:
            counts[node_id] = rng.randint(2_000, 6_000)
    return edges, counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="toy_metadata")
    parser.add_argument("--nodes", type=int, default=400)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    edges, counts = synthetic_hierarchy(args.seed, args.nodes)
    ids = sorted(counts)
    os.makedirs(args.outdir, exist_ok=True)
    with open(os.path.join(args.outdir, "is_a.tsv"), "w") as fh:
        fh.writelines(f"{p} {c}\n" for p, c in edges)
    with open(os.path.join(args.outdir, "counts.tsv"), "w") as fh:
        fh.writelines(f"{s} {c}\n" for s, c in sorted(counts.items()))
    with open(os.path.join(args.outdir, "words.tsv"), "w") as fh:
        fh.writelines(f"{s}\tconcept {i}\n" for i, s in enumerate(ids))
    with open(os.path.join(args.outdir, "images.tsv"), "w") as fh:
        for synset in ids:
            for j in range(counts[synset]):
                fh.write(f"{synset}_img{j:05d}\t{synset}\n")

    total = sum(counts.values())
    print(f"wrote {args.outdir}: {len(ids)} synsets, {len(edges)} edges, {total} images")


if __name__ == "__main__":
    main()
