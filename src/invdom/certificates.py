"""Certificate value objects and the independent re-verification checker.

The checker deliberately uses only primitive graph operations (no solver
calls) so a broken solver cannot vouch for its own output.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, to_sorted

BOUND_KINDS = ("exact", "alpha", "bipartite_b", "main_theorem")


@dataclass(frozen=True)
class DominationCertificate:
    """A gamma-set D with the two facts that rank it: alpha(G[D]) and the
    edges of G[D].  |D| and the isolates of G[D] follow from D itself."""

    d_set: int
    alpha_of_d: int
    induced_edges: int


@dataclass(frozen=True)
class InverseCertificate:
    """Disjoint dominating pair (D, T) plus the bound T is certified against."""

    d_set: int
    t_set: int
    bound_kind: str
    bound_value: int

    def to_dict(self) -> dict:
        return {
            "d_set": to_sorted(self.d_set),
            "t_set": to_sorted(self.t_set),
            "bound_kind": self.bound_kind,
            "bound_value": self.bound_value,
            "t_size": self.t_set.bit_count(),
        }


def check_inverse_certificate(
    g: Graph, cert: InverseCertificate, gamma_value: int | None = None
) -> list[str]:
    """Problems with an inverse certificate: disjointness, domination, bound.

    ``gamma_value`` (supplied by the caller from an independent computation)
    enables the |D| = gamma check; without it only the structural facts are
    verified.
    """
    problems = []
    if cert.bound_kind not in BOUND_KINDS:
        problems.append(f"unknown bound_kind {cert.bound_kind!r}")
    if (cert.d_set | cert.t_set) & ~g.full:
        problems.append("certificate has vertices outside the graph")
        return problems
    if cert.d_set & cert.t_set:
        problems.append("d_set and t_set intersect")
    if not g.is_dominating(cert.d_set):
        problems.append("d_set does not dominate")
    if not g.is_dominating(cert.t_set):
        problems.append("t_set does not dominate")
    if cert.t_set.bit_count() > cert.bound_value:
        problems.append(
            f"|t_set| = {cert.t_set.bit_count()} exceeds bound {cert.bound_value}"
        )
    if gamma_value is not None and cert.d_set.bit_count() != gamma_value:
        problems.append(f"|d_set| = {cert.d_set.bit_count()} != gamma = {gamma_value}")
    return problems
