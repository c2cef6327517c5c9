"""Group-fair PageRank on node-colored directed graphs.

Two families of algorithms make a PageRank allocate a chosen share
``phi`` of its mass to a protected node group: jump-vector optimization
(closest fair scores reachable by re-weighting the teleport distribution)
and locally fair transitions (every node splits its own outgoing
probability ``phi``-fairly, which also yields personalized fairness).
"""

__version__ = "0.1.0"
