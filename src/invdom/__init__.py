"""Exact domination-theory invariants and certificate-producing constructions
for small graphs: gamma, alpha, inverse gamma (and its strong variant), the
largest induced-bipartite order, standard partitions, independent systems of
representatives, and the inverse-domination constructions built on them.
"""

from .certificates import DominationCertificate, InverseCertificate
from .graph import Graph, bits, disjoint_union, mask_of, to_sorted
from .graph6 import parse_edge_list, parse_graph6, write_graph6
from .solvers import (
    alpha,
    alpha_within,
    enumerate_min_dominating_sets,
    gamma,
    inverse_gamma,
    inverse_pass,
    max_induced_bipartite,
    min_dominating_within,
    optimal_dominating_set,
    strong_inverse_gamma,
)
from .generate import pad_with_k2
from .constructions import (
    TrichotomyOutcome,
    biglemma_trichotomy,
    bipartite_inverse_construct,
    expand_to_maximal_independent,
    find_isr,
    find_special_independent,
    gamma5_construct,
    inddom_construct,
    isr_cells,
    lemma41_check,
    max_partial_isr,
    standard_partition,
    superisrs,
    theorem_main_construct,
    two_partial_isrs,
)

__version__ = "0.1.0"
