"""Reversible-circuit synthesis, identity mining, peephole optimisation.

Where the rest of the library *simulates* the paper's hand-written
constructions, this package *discovers and improves* constructions —
the core activity of the reversible-synthesis literature.  Four
cooperating layers:

* :mod:`repro.synth.target` — what to build (:class:`SynthesisTarget`,
  optionally with don't-care patterns) and what it costs
  (:class:`CostModel`: gate count, depth, and the per-error-class
  fault-location census the threshold accounting uses);
* :mod:`repro.synth.search` — :func:`find_optimal`, an
  iterative-deepening meet-in-the-middle exhaustive search that
  provably returns minimal-gate-count circuits (it rediscovers the
  paper's Figure-1 MAJ and Figure-5 SWAP3 constructions);
* :mod:`repro.synth.database` — :class:`IdentityDatabase`, equivalence
  classes of circuits mined by the searcher, content-keyed by the same
  :meth:`~repro.core.circuit.Circuit.content_key` hash as the compile
  cache, persisted as JSON and usable as rewrite rules;
* :mod:`repro.synth.peephole` — :func:`optimize`, a fixed-point window
  scan (inverse-pair cancellation across commuting ops, database
  rewrites) in which every rewrite is verified by exhaustive
  equivalence before it is applied.

Synthesised and optimised circuits are ordinary
:class:`~repro.core.circuit.Circuit` values, so they feed straight
into :mod:`repro.runtime` specs and the stacked Executor — the
``synth-peephole`` experiment measures exactly that round trip.
"""

from repro.synth.database import (
    IdentityDatabase,
    circuit_from_json,
    circuit_to_json,
)
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
    op_permutation,
    placed_library,
    search_depth_budget,
)
from repro.synth.target import (
    DEFAULT_COST_MODEL,
    CostModel,
    SynthesisTarget,
)

__all__ = [
    "IdentityDatabase",
    "circuit_from_json",
    "circuit_to_json",
    "OptimizationReport",
    "inflate",
    "optimize",
    "optimize_report",
    "DEFAULT_GATE_LIBRARY",
    "PlacedOp",
    "SynthesisResult",
    "enumerate_canonical",
    "find_optimal",
    "op_permutation",
    "placed_library",
    "search_depth_budget",
    "DEFAULT_COST_MODEL",
    "CostModel",
    "SynthesisTarget",
]
