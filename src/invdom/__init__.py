"""Exact domination-theory invariants and certificate-producing constructions
for small graphs: gamma, alpha, inverse gamma (and its strong variant) and
the largest induced-bipartite order, with the inverse-domination
constructions whose certificates re-check the paper's bounds.

The package root exports nothing: each name is reached through its module,
so importing one module loads only what that module needs.  The certificate
checker, ``invdom.certificates``, loads no solver.
"""

__version__ = "0.1.0"
