"""Generators for the bundled oracle families.

Families indexed by n:

* complete-cycle: cycle matroid of the complete graph on n+1 nodes,
  normalized by its rank n;
* gf-space: the full linear space over GF(q) in dimension n (all q**n
  vectors, zero included), normalized by n;
* example51: node count n; a path tree for odd n, the edge-disjoint
  union of two fixed spanning trees for even n >= 4, normalized by the
  node count.  This is the family whose partition profiles oscillate;
* cutcap-blowup / tau-blowup: cut-capacity (resp. motif-deletion)
  setfunctions of the n-fold blow-up of a base graph.

Builders check the ground size an index implies against GROUND_SIZE_CAP
before building anything.
"""

from __future__ import annotations

from .graphs import (
    CutNormalization,
    SimpleGraph,
    blow_up,
    cut_capacity_oracle,
    shifted_tau_oracle,
)
from . import config
from .errors import check_cap
from .gfq import field
from .matroid import GraphicMatroid, LinearMatroid
from .setfn import SetFunctionOracle, check_ground_size

MOTIFS = {
    "K2": SimpleGraph.complete(2),
    "K3": SimpleGraph.complete(3),
    "K4": SimpleGraph.complete(4),
    "P3": SimpleGraph.path(3),
    "P4": SimpleGraph.path(4),
    "C4": SimpleGraph.cycle(4),
    "C5": SimpleGraph.cycle(5),
}


def example51_graph(n: int) -> SimpleGraph:
    """Member n of the oscillating family: a tree for odd n, two trees for even n.

    Odd members are the path 0-1-...-(n-1).  Even members (n >= 4) add a
    second, edge-disjoint spanning tree: the star 0-2, 0-3, ..., 0-(n-1)
    plus the edge 1-(n-1).  Fixing one concrete pair keeps runs
    reproducible; any edge-disjoint pair exhibits the same behavior.
    """
    if n < 1:
        raise ValueError("family index must be positive")
    if n == 1:
        return SimpleGraph.make(1, [], name="ex51[1]")
    if n == 2:
        return SimpleGraph.make(2, [(0, 1)], name="ex51[2]")
    path = [(i, i + 1) for i in range(n - 1)]
    if n % 2 == 1:
        return SimpleGraph.make(n, path, name=f"ex51[{n}]")
    second = [(0, j) for j in range(2, n)] + [(1, n - 1)]
    return SimpleGraph.make(n, path + second, name=f"ex51[{n}]")


def example51_trees(n: int) -> tuple[int, int]:
    """Edge masks of the two spanning trees inside an even member."""
    if n < 4 or n % 2:
        raise ValueError("two-tree members exist for even n >= 4")
    g = example51_graph(n)
    index = g.edge_index()
    path_mask = 0
    for i in range(n - 1):
        path_mask |= 1 << index[(i, i + 1)]
    star_mask = 0
    for j in range(2, n):
        star_mask |= 1 << index[(0, j)]
    star_mask |= 1 << index[(1, n - 1)]
    return path_mask, star_mask


def example51_oracle(n: int) -> SetFunctionOracle:
    # odd members and n = 2 are paths with n - 1 edges, even n >= 4 add a second tree;
    # example51_graph rejects n < 1
    check_ground_size(max(n - 1 if n % 2 or n < 4 else 2 * (n - 1), 0))
    g = example51_graph(n)
    matroid = GraphicMatroid(g)
    return matroid.normalized_rank_oracle(denominator=n, label=f"rho(ex51[{n}])")


def complete_cycle_oracle(n: int) -> SetFunctionOracle:
    """Normalized rank of the cycle matroid of the complete graph on n+1 nodes."""
    if n < 1:
        raise ValueError("family index must be positive")
    check_ground_size(n * (n + 1) // 2)
    matroid = GraphicMatroid(SimpleGraph.complete(n + 1))
    return matroid.normalized_rank_oracle(denominator=n, label=f"rho(cycle:K{n + 1})")


def gf_space_oracle(q: int, n: int) -> SetFunctionOracle:
    if n < 1:
        raise ValueError("family index must be positive")
    if q <= config.GROUND_SIZE_CAP:
        field(q)  # rejects q that is not a prime power; a larger q fails the cap unbuilt
    # q >= 2 here, so gf(q)^n has more elements than its dimension: a
    # dimension above the cap fails it before any power is taken
    needed, what = (n, "dimension") if n > config.GROUND_SIZE_CAP else (q**n, "ground set")
    check_cap("GROUND_SIZE_CAP", needed, f"gf({q})^{n} {what}")
    matroid = LinearMatroid.full_space(q, n)
    return matroid.normalized_rank_oracle(denominator=n, label=f"rho(gf({q})^{n})")


def cutcap_blowup_oracle(
    base: SimpleGraph, n: int, norm: str = CutNormalization.EDGES
) -> SetFunctionOracle:
    check_ground_size(base.node_count * max(n, 0))  # blow_up rejects n < 1
    return cut_capacity_oracle(blow_up(base, n), norm)


def tau_blowup_oracle(motif: SimpleGraph, base: SimpleGraph, n: int) -> SetFunctionOracle:
    """Rebased motif-deletion function of the n-fold blow-up.

    The raw function does not vanish on the empty set, so the profiled
    family subtracts that base value (see shifted_tau_oracle).
    """
    check_ground_size(base.edge_count * n * n if n > 0 else 0)  # blow_up rejects n < 1
    check_cap("HOM_TARGET_NODE_CAP", base.node_count * n, "homomorphism target")
    return shifted_tau_oracle(motif, blow_up(base, n))


def family_metadata(family: str, n: int) -> dict:
    """Extra generator facts worth echoing in reports.

    For even members of the oscillating family this is the certificate:
    the edge indices of the two edge-disjoint spanning trees.
    """
    if family == "example51" and n >= 4 and n % 2 == 0:
        t1, t2 = example51_trees(n)
        trees = [sorted(e for e in range(2 * (n - 1)) if mask >> e & 1) for mask in (t1, t2)]
        return {"spanning_tree_edge_indices": trees}
    return {}
