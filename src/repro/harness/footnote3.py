"""Footnote 3 of Section V-B — the hash-index advantage, measured.

"In-memory databases usually implement hash indexes": the paper
handicaps itself by using b-trees in Figs. 9-10. This driver measures
what the handicap costs — a linear-probing hash index and a b-tree
(168 children, the paper's optimum) answering the same lookups on
remote memory, next to the same b-tree under remote swap.
"""

from __future__ import annotations

import numpy as np

from repro.apps.btree import BTree
from repro.apps.hashindex import HashIndex
from repro.config import ClusterConfig
from repro.harness.experiments import ExperimentResult, register
from repro.mem.backing import BackingStore
from repro.model.fastsim import RemoteMemAccessor, SwapAccessor
from repro.model.latency import LatencyModel
from repro.sim.rng import stream
from repro.swap.remoteswap import RemoteSwap
from repro.units import mib

__all__ = ["run"]


#: the paper's optimal fanout (Fig. 9)
_CHILDREN = 168
#: local frames of the swap baseline
_RESIDENT_PAGES = 512


@register("footnote3")
def run(seed: int = 0, scale: float = 1.0) -> ExperimentResult:
    num_keys = max(20_000, int(120_000 * scale))
    lookups = max(300, int(1_500 * scale))
    cfg = ClusterConfig()
    latency = LatencyModel.from_config(cfg)
    keys = np.arange(1, num_keys + 1, dtype=np.uint64)
    queries = stream(seed, "footnote3").integers(
        1, num_keys + 1, size=lookups, dtype=np.uint64
    )

    def hash_index(acc):
        index = HashIndex(acc, capacity=num_keys)
        index.bulk_insert(keys, keys)
        return index.lookup

    def btree(acc):
        tree = BTree(acc, children=_CHILDREN)
        tree.bulk_load(keys)
        return tree.search

    structures = [
        ("hash", "remote memory", hash_index,
         lambda: RemoteMemAccessor(latency, BackingStore(mib(128)))),
        ("b-tree", "remote memory", btree,
         lambda: RemoteMemAccessor(latency, BackingStore(mib(128)))),
        ("b-tree", "remote swap", btree,
         lambda: SwapAccessor(latency, BackingStore(mib(128)),
                              RemoteSwap(cfg.swap, _RESIDENT_PAGES))),
    ]

    result = ExperimentResult(
        exp_id="footnote3",
        title="hash index vs. b-tree on remote memory (footnote 3)",
        columns=["index", "memory_system", "ns_per_lookup"],
        notes=(
            f"{num_keys} keys, {lookups} random lookups; b-tree with "
            f"{_CHILDREN} children; swap keeps {_RESIDENT_PAGES} local pages"
        ),
    )
    for index, memory_system, build, make in structures:
        acc = make()
        lookup = build(acc)
        t0 = acc.time_ns
        for q in queries:
            lookup(int(q))
        result.rows.append(
            {
                "index": index,
                "memory_system": memory_system,
                "ns_per_lookup": (acc.time_ns - t0) / lookups,
            }
        )
    return result
