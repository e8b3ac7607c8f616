"""Fig. 9 — b-tree search time vs. fanout under remote swap.

A b-tree of N random keys lives in remote-swapped memory; the local
frame pool holds only a fraction of it. Sweeping the number of
children per node traces the paper's U-shape:

* few children -> deep tree -> a fresh page fault per level;
* many children -> nodes span several pages and the in-node binary
  search hops between them;
* the optimum sits where one node fills one page (the paper measured
  ~168 children for their layout; the exact value is implementation-
  dependent, as the paper notes).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.apps.btree import BTree
from repro.config import ClusterConfig
from repro.harness.experiments import ExperimentResult, register
from repro.mem.backing import BackingStore
from repro.model.fastsim import SwapAccessor
from repro.model.latency import LatencyModel
from repro.sim.rng import stream
from repro.swap.remoteswap import RemoteSwap
from repro.units import PAGE_SIZE

__all__ = ["run", "build_keys", "make_tree"]

DEFAULT_FANOUTS = (8, 16, 32, 64, 128, 168, 256, 512, 1024, 2048, 4096)


def build_keys(num_keys: int, seed: int = 0) -> np.ndarray:
    """N distinct random u64 keys, sorted (for bulk load)."""
    rng = stream(seed, "btree_keys")
    keys = rng.choice(
        np.arange(1, num_keys * 8, dtype=np.uint64),
        size=num_keys,
        replace=False,
    )
    keys.sort()
    return keys


def make_tree(accessor, children: int, keys: np.ndarray) -> BTree:
    tree = BTree(accessor, children=children)
    tree.bulk_load(keys)
    return tree


@register("fig09")
def run(
    num_keys: int = 1_000_000,
    searches: int = 1_500,
    fanouts: Sequence[int] = DEFAULT_FANOUTS,
    resident_pages: int = 256,  # 1 MiB of local frames: the tree must
    # dwarf local memory at every fanout, or big nodes win simply by
    # having fewer leaves (partial-residency regime)
    config: Optional[ClusterConfig] = None,
    seed: int = 0,
    scale: float = 1.0,
) -> ExperimentResult:
    num_keys = max(10_000, int(num_keys * scale))
    searches = max(200, int(searches * scale))
    cfg = config if config is not None else ClusterConfig()
    latency = LatencyModel.from_config(cfg)
    keys = build_keys(num_keys, seed)
    rng = stream(seed, "btree_queries")
    queries = rng.integers(1, num_keys * 8, size=searches, dtype=np.uint64)

    result = ExperimentResult(
        exp_id="fig09",
        title="b-tree search time vs. children per node (remote swap)",
        columns=[
            "children",
            "node_bytes",
            "height",
            "us_per_search",
            "faults_per_search",
        ],
        notes=(
            f"{num_keys} keys, {searches} random searches, "
            f"{resident_pages} local page frames"
        ),
    )
    for children in fanouts:
        backing = BackingStore(_arena_bytes(num_keys, children))
        swap = RemoteSwap(cfg.swap, resident_pages=resident_pages)
        accessor = SwapAccessor(latency, backing, swap)
        tree = make_tree(accessor, children, keys)
        # settle the LRU pool before measuring (steady state)
        warm = stream(seed, "fig09_warm", children).integers(
            1, num_keys * 8, size=min(500, searches), dtype=np.uint64
        )
        for q in warm:
            tree.search(int(q))
        accessor.reset_clock()
        faults0 = swap.stats.faults
        for q in queries:
            tree.search(int(q))
        result.rows.append(
            {
                "children": children,
                "node_bytes": tree.node_bytes,
                "height": tree.height,
                "us_per_search": accessor.time_ns / searches / 1e3,
                "faults_per_search": (swap.stats.faults - faults0) / searches,
            }
        )
    return result


def _arena_bytes(num_keys: int, children: int) -> int:
    node_bytes = 16 + 8 * (2 * children - 1)
    nodes = num_keys // (children - 1) + num_keys // max(1, (children - 1) ** 2) + 8
    per_node = max(node_bytes, PAGE_SIZE)
    return max(1 << 22, 2 * nodes * per_node)
