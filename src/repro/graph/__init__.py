"""Graph-theoretic view of DisC diversity (Section 2.2) and exact
solvers for small instances."""

from repro.graph.blocked import (
    BlockedNeighborhood,
    build_blocked_grid,
    build_grid_auto,
)
from repro.graph.csr import CSRNeighborhood, build_csr_grid, build_csr_pairwise
from repro.graph.incremental import IncrementalNeighborhood
from repro.graph.build import (
    build_neighborhood_graph,
    is_dominating_set,
    is_independent_dominating_set,
    is_independent_set,
    max_degree,
)
from repro.graph.exact import (
    minimum_dominating_set,
    minimum_independent_dominating_set,
)

__all__ = [
    "BlockedNeighborhood",
    "CSRNeighborhood",
    "IncrementalNeighborhood",
    "build_blocked_grid",
    "build_csr_grid",
    "build_csr_pairwise",
    "build_grid_auto",
    "build_neighborhood_graph",
    "is_independent_set",
    "is_dominating_set",
    "is_independent_dominating_set",
    "max_degree",
    "minimum_independent_dominating_set",
    "minimum_dominating_set",
]
