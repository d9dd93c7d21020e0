"""Seeded generators for random test inputs, and writers for the input
files that hierkit reads but never writes."""

from __future__ import annotations

import random
import struct

import numpy as np

from hierkit.taxonomy import Taxonomy, build_taxonomy


def random_taxonomy(
    seed: int, max_nodes: int = 200, max_count: int = 10_000
) -> Taxonomy:
    """A random rooted tree with long-tailed image counts.

    Ids are shuffled relative to the topology so lexicographic tie-breaks
    get exercised; counts mix zeros, small classes, and heavy classes.
    """
    rng = random.Random(seed)
    n = rng.randint(2, max_nodes)
    ids = [f"n{i:05d}" for i in range(n)]
    rng.shuffle(ids)
    edges = [
        (ids[rng.randrange(0, i)], ids[i])
        for i in range(1, n)
    ]
    counts = {}
    for node_id in ids:
        roll = rng.random()
        if roll < 0.30:
            counts[node_id] = 0
        elif roll < 0.65:
            counts[node_id] = rng.randint(1, 20)
        else:
            counts[node_id] = rng.randint(1, max_count)
    return build_taxonomy(edges, counts)


def random_reorg_params(seed: int) -> tuple[int, int, int]:
    """(t_b, t_p, t_s) drawn from ranges that hit all interesting regimes."""
    rng = random.Random(seed ^ 0x5EED)
    t_b = rng.choice([0, 1, 5, 20, 100, 1_000, 20_000])
    t_p = rng.choice([0, 1, 3, 10, 50, 500, 15_000])
    t_s = rng.choice([1, 10, 100, 2_000])
    return t_b, t_p, t_s


def random_topdown_params(seed: int) -> tuple[int, int]:
    rng = random.Random(seed ^ 0x70BD)
    t_t = rng.choice([0, 1, 5, 20, 100, 1_000, 20_000])
    budget = rng.choice([1, 2, 5, 20, 100, 10_000])
    return t_t, budget


def serialize_isa_edges(taxonomy: Taxonomy) -> str:
    """Inverse of ``parse_isa_edges`` for the kept tree edges."""
    lines = []
    for node_id in sorted(taxonomy.nodes):
        for child in taxonomy.nodes[node_id].children:
            lines.append(f"{node_id} {child}")
    return "\n".join(lines) + ("\n" if lines else "")


def serialize_counts(taxonomy: Taxonomy) -> str:
    lines = [
        f"{node_id} {taxonomy.nodes[node_id].direct_count}"
        for node_id in sorted(taxonomy.nodes)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_frames_bin(frames: np.ndarray) -> bytes:
    """A binary frame file: ``u32 frame_count, u32 dim``, then row-major
    little-endian f32."""
    arr = np.asarray(frames, dtype=np.float64)
    header = struct.pack("<II", arr.shape[0], arr.shape[1])
    return header + arr.astype("<f4").tobytes(order="C")
