#!/usr/bin/env python3
"""Dynamic memory-region management (Section III-A, Fig. 1).

Recreates the paper's Fig. 1 scenario on a 5-node cluster:

* region 1 stays confined to its node (the default),
* region 3 grows into nodes B and D,
* region 5 grows into node D as well,

then shrinks region 3 again, showing that regions are non-overlapping
at every step, that donated memory returns to its owner, and that the
amount of memory in a region is decoupled from its processor count.

Run:  python examples/region_rebalance.py
"""

from repro import Cluster, ClusterConfig
from repro.config import NetworkConfig
from repro.units import fmt_size, gib, mib

A, B, C, D, E = 1, 2, 3, 4, 5  # the five nodes of Fig. 1


def show_regions(cluster) -> None:
    for node_id in sorted(cluster.regions.regions):
        region = cluster.regions.region_of(node_id)
        donors = (
            f" (+ {fmt_size(region.remote_bytes)} from nodes "
            f"{region.donor_nodes})"
            if region.remote_bytes
            else ""
        )
        print(
            f"  region {node_id}: {fmt_size(region.total_bytes)}{donors}"
        )
    cluster.regions.check_invariants()
    print("  [non-overlap invariant verified]\n")


def main() -> None:
    cluster = Cluster(
        ClusterConfig(network=NetworkConfig(topology="line", dims=(5, 1)))
    )
    print("initial state — every region confined to its node (Fig. 1, region 1):")
    show_regions(cluster)

    print(f"growing region {C} with memory from its neighbors {B} and {D}:")
    app_c = cluster.session(C)
    lease_cb = app_c.borrow_remote(B, gib(2))
    lease_cd = app_c.borrow_remote(D, gib(2))
    show_regions(cluster)

    print(f"growing region {E} into node {D} too (three regions coexist on D):")
    app_e = cluster.session(E)
    app_e.borrow_remote(D, gib(1))
    show_regions(cluster)

    print("the donated memory is real — region 3 writes to both donors:")
    from repro import Placement

    ptr = app_c.malloc(mib(8), Placement.REMOTE)
    app_c.write_u64(ptr, 111)
    big = app_c.malloc(gib(2), Placement.REMOTE)  # exhausts B's lease
    app_c.write_u64(big, 222)
    owners = {
        cluster.amap.node_of(app_c.aspace.translate(p).phys_addr)
        for p in (ptr, big)
    }
    print(f"  allocations landed on donor nodes {sorted(owners)}")
    assert app_c.read_u64(ptr) == 111 and app_c.read_u64(big) == 222
    print()

    print(f"shrinking region {C}: returning the lease on node {B}:")
    app_c.free(ptr)
    app_c.free(big)
    cluster.give_back(C, lease_cb)
    cluster.give_back(C, lease_cd)
    show_regions(cluster)
    # the returned ranges are gone from region 3's allocator too
    assert app_c.allocator.remote_free_bytes == 0

    donor_os = cluster.node(B).os
    print(
        f"node {B}'s donation pool is whole again: "
        f"{fmt_size(donor_os.donated_free_bytes)} free"
    )


if __name__ == "__main__":
    main()
