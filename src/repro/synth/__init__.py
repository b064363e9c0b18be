"""Reversible-circuit synthesis, identity mining, peephole optimisation.

Where the rest of the library *simulates* the paper's hand-written
constructions, this package *discovers and improves* constructions —
the core activity of the reversible-synthesis literature.  Its one
objective is the op count: every operation is one fault location, the
``G`` of the paper's ``rho = 1/(3 C(G,2))``.  Three cooperating layers:

* :mod:`repro.synth.search` — :func:`find_optimal`, an
  iterative-deepening meet-in-the-middle exhaustive search that
  provably returns minimal-gate-count circuits for a gate, circuit or
  permutation (it rediscovers the paper's Figure-1 MAJ and Figure-5
  SWAP3 constructions);
* :mod:`repro.synth.database` — :class:`IdentityDatabase`, equivalence
  classes of circuits mined by the searcher, content-keyed by the same
  :meth:`~repro.core.circuit.Circuit.content_key` hash as the compile
  cache, persisted in the circuit wire form of
  :func:`~repro.core.circuit.circuit_to_json` and usable as rewrite
  rules;
* :mod:`repro.synth.peephole` — :func:`optimize`, a fixed-point window
  scan (inverse-pair cancellation across commuting ops, database
  rewrites) in which every rewrite is verified by exhaustive
  equivalence before it is applied.

Synthesised and optimised circuits are ordinary
:class:`~repro.core.circuit.Circuit` values, so they feed straight
into :mod:`repro.runtime` specs and the stacked Executor — the
``synth-peephole`` experiment measures exactly that round trip.
"""

from repro.synth.database import IdentityDatabase
from repro.synth.peephole import (
    OptimizationReport,
    inflate,
    optimize,
    optimize_report,
)
from repro.synth.search import (
    DEFAULT_GATE_LIBRARY,
    PlacedOp,
    SynthesisResult,
    enumerate_canonical,
    find_optimal,
    placed_library,
    search_depth_budget,
)

__all__ = [
    "IdentityDatabase",
    "OptimizationReport",
    "inflate",
    "optimize",
    "optimize_report",
    "DEFAULT_GATE_LIBRARY",
    "PlacedOp",
    "SynthesisResult",
    "enumerate_canonical",
    "find_optimal",
    "placed_library",
    "search_depth_budget",
]
