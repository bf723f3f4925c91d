#!/usr/bin/env python
"""Quickstart: DisC-diversify a query result and zoom.

Covers the library's core loop in ~40 lines:

1. generate a dataset (stand-in for a query result),
2. compute an r-DisC diverse subset — every object is within r of a
   selected object, selected objects are pairwise farther than r,
3. verify the two Definition 1 conditions,
4. zoom in (more, finer-grained results) and out (fewer, coarser).

Run:  python examples/quickstart.py
"""

from repro import DiscSession, uniform_dataset

def main() -> None:
    # 1. A "query result": 2000 points uniform in [0,1]^2.
    data = uniform_dataset(n=2000, dim=2, seed=7)
    print(f"dataset: {data}")

    # 2. Index once (M-tree, the paper's substrate), then select.
    session = DiscSession(data)
    result = session.select(radius=0.1)
    print(f"\nr=0.10  ->  {result.size} diverse objects "
          f"({result.algorithm}, {result.node_accesses} node accesses)")

    # 3. Both DisC conditions hold by construction; verify anyway.
    report = session.verify()
    print(f"verification: {report}")

    # 4a. Zoom in: the user wants more detail.  All previous selections
    #     are kept (Lemma 5(i)); new representatives fill the gaps.
    finer = session.zoom_in(0.05)
    kept = set(result.selected) <= set(finer.selected)
    print(f"\nzoom-in to r=0.05  ->  {finer.size} objects "
          f"(previous solution kept: {kept}, "
          f"{finer.node_accesses} node accesses)")

    # 4b. Zoom out: back to a coarse overview.
    coarser = session.zoom_out(0.2)
    overlap = len(set(coarser.selected) & set(finer.selected))
    print(f"zoom-out to r=0.20 ->  {coarser.size} objects "
          f"({overlap} shared with the previous view)")
    print(f"verification: {session.verify()}")

    # 5. The same loop as a multi-user HTTP service (shared dataset
    #    registry, cross-session adjacency cache, request coalescing):
    #
    #        python -m repro serve --datasets uniform,cities
    #        curl -s localhost:8722/select -d \
    #            '{"dataset": "uniform", "radius": 0.1}'
    #
    #    See repro.service; `python3 perfbench/run.py` times it.


if __name__ == "__main__":
    main()
