"""One pinned digest over the outputs that form the behaviour contract.

Covers the gamma witness, the inverse-pass certificate, the main
construction's certificate and the ``verify`` JSONL (less its timing field)
on every graph with n <= 6 and on twelve seeded G(16, p) graphs.  A change
that alters any certificate or report on this corpus fails here; a change
that means to alter them must re-pin the digest and say why.
"""

import hashlib
import json
import random

from invdom import constructions, harness, solvers
from invdom.errors import InvdomError
from invdom.generate import all_graphs, random_graph
from invdom.graph6 import write_graph6

GOLDEN_SHA256 = "9bfa2671d69a326cd44745af13f3145abce32b0fea16be077ed76fbbf6e3a08e"


def golden_corpus():
    graphs = [g for n in range(1, 7) for g in all_graphs(n)]
    for seed in range(1, 5):
        rng = random.Random(seed)
        graphs.extend(random_graph(rng, 16, p) for p in (0.15, 0.3, 0.5))
    return graphs


def _outcome(fn, *args):
    """fn(*args), or the name of the InvdomError it raised."""
    try:
        return fn(*args)
    except InvdomError as exc:
        return type(exc).__name__


def _certificates(g) -> dict:
    gamma_value, witness = solvers.gamma(g)
    inverse = _outcome(solvers.inverse_pass, g)
    if not isinstance(inverse, str):
        size, cert, strong = inverse
        inverse = [size, cert.to_dict(), strong]
    main = _outcome(lambda: constructions.theorem_main_construct(g, witness).to_dict())
    return {"gamma": [gamma_value, witness], "inverse_pass": inverse, "main": main}


def golden_lines(graphs) -> list[str]:
    lines = [json.dumps(_certificates(g), sort_keys=True) for g in graphs]
    reports: list[str] = []
    harness.verify_stream((write_graph6(g) for g in graphs), harness.RunConfig(), reports.append)
    for report in reports:
        record = json.loads(report)
        del record["elapsed_micros"]
        lines.append(json.dumps(record))
    return lines


def golden_digest() -> str:
    return hashlib.sha256("\n".join(golden_lines(golden_corpus())).encode()).hexdigest()


def test_certificates_and_reports_match_the_pinned_digest():
    assert golden_digest() == GOLDEN_SHA256
