"""Exact domination-theory invariants and certificate-producing constructions
for small graphs: gamma, alpha, inverse gamma (and its strong variant) and
the largest induced-bipartite order, with the inverse-domination
constructions whose certificates re-check the paper's bounds.

The package exports the north-star solvers, the four constructions, the
certificate types, ``Graph`` and the graph6 codec; everything else is
reached through its module.
"""

from .certificates import DominationCertificate, InverseCertificate
from .graph import Graph
from .graph6 import parse_graph6, write_graph6
from .solvers import alpha, gamma, inverse_pass, max_induced_bipartite
from .constructions import (
    bipartite_inverse_construct,
    gamma5_construct,
    inddom_construct,
    theorem_main_construct,
)

__version__ = "0.1.0"
