"""Provably minimal reversible-circuit search.

:func:`find_optimal` answers "what is the shortest circuit over this
gate library implementing this permutation?" by iterative deepening on gate
count with a bidirectional (meet-in-the-middle) frontier: depth ``d``
is decided by hashing every ``ceil(d/2)``-gate prefix action and
probing it against every ``floor(d/2)``-gate suffix action, so the
searched space grows like ``ops**(d/2)`` instead of ``ops**d``.
Frontier keys are raw permutation mapping tuples — composing two
mapping tuples is a single Python comprehension, and the
:class:`~repro.core.permutation.Permutation` algebra is only invoked
at the edges.

**Canonical-order pruning.**  Ops on pairwise-disjoint wires commute
exactly, so frontier expansion skips any extension that would place a
lower-indexed op directly after a higher-indexed disjoint one — of
every run of adjacent commuting ops only the library-order-sorted
arrangement is expanded.  The pruning is *lossless at the level of
reachable actions*: if a skipped extension would have produced action
``m``, then ``m = g_1 ∘ (g_0 ∘ p)`` with ``g_0 < g_1`` disjoint, and
the re-associated edge ``(g_0 ∘ p, g_1)`` reaches the same ``m``
through a strictly higher-indexed final op; op indices are bounded, so
chasing that edge terminates at an unpruned extension.  By induction
every frontier level contains **exactly** the actions reachable by
that many gates, which is what makes the iterative-deepening minimum a
theorem rather than a heuristic.  (The tempting second pruning —
skipping an op directly followed by its inverse — is *not* applied in
the frontiers: the identity action at depth 2 is reachable only
through inverse pairs, and meet-in-the-middle probes interior levels
whose actions may need such words.  The database miner, which
enumerates whole circuits rather than actions, does apply it; see
:func:`enumerate_canonical`.)

The search is exhaustive at each depth, so the first depth with a
match yields the provably minimal gate count.  Gate count is the one
objective: every op is one fault location, the ``G`` of the paper's
``rho = 1/(3 C(G,2))``.  Among the canonical representatives meeting
at the minimal depth the returned circuit is the one with the
smallest op-index sequence, deterministically.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import permutations as wire_orderings

from repro.core import library
from repro.core.circuit import Circuit
from repro.core.gate import Gate
from repro.core.permutation import Permutation
from repro.core.truth_table import circuit_permutation
from repro.errors import SynthesisError

#: The Figure-1 universal basis — the default synthesis library.
DEFAULT_GATE_LIBRARY: tuple[Gate, ...] = (
    library.X,
    library.CNOT,
    library.TOFFOLI,
)

#: Default iterative-deepening bound (gates) before giving up.
DEFAULT_MAX_GATES = 8

#: Widest target :func:`find_optimal` accepts: the search enumerates
#: permutations of ``2**n`` patterns, and beyond this the frontiers stop
#: fitting in memory anyway.
MAX_TARGET_WIRES = 6


@dataclass(frozen=True)
class PlacedOp:
    """One gate placed on concrete wires, with its full-width action.

    ``mapping`` is the permutation of all ``2**n_wires`` patterns the
    placement induces; ``inverse_index`` is the library index of the
    placement undoing it, or ``None`` when the placed library is not
    closed under inversion (the miner's inverse-pair pruning then
    simply never fires for this op).
    """

    index: int
    gate: Gate
    wires: tuple[int, ...]
    mapping: tuple[int, ...]
    inverse_index: int | None = None

    def disjoint(self, other: "PlacedOp") -> bool:
        """True when the two placements touch no common wire."""
        return not set(self.wires) & set(other.wires)


def placed_library(
    gate_library: tuple[Gate, ...], n_wires: int
) -> tuple[PlacedOp, ...]:
    """Every distinct-action placement of the library's gates.

    Placements are enumerated in deterministic (gate, wire-ordering)
    order and deduplicated by action — a SWAP on ``(0, 1)`` and on
    ``(1, 0)`` is one op — keeping the first (lexicographically
    smallest) wire tuple as the canonical representative.  Identity
    actions are dropped.  The op *index* defined by this ordering is
    what the canonical commuting-order pruning sorts by.
    """
    if not gate_library:
        raise SynthesisError("gate library must contain at least one gate")
    seen: dict[tuple[int, ...], int] = {}
    ops: list[PlacedOp] = []
    identity = tuple(range(1 << n_wires))
    for gate in gate_library:
        if gate.arity > n_wires:
            continue
        for wires in wire_orderings(range(n_wires), gate.arity):
            mapping = circuit_permutation(
                Circuit(n_wires).append_gate(gate, *wires)
            ).mapping
            if mapping == identity or mapping in seen:
                continue
            seen[mapping] = len(ops)
            ops.append(
                PlacedOp(
                    index=len(ops), gate=gate, wires=wires, mapping=mapping
                )
            )
    if not ops:
        raise SynthesisError(
            f"no gate of the library fits on {n_wires} wires"
        )
    return tuple(
        PlacedOp(
            index=op.index,
            gate=op.gate,
            wires=op.wires,
            mapping=op.mapping,
            inverse_index=seen.get(_invert(op.mapping)),
        )
        for op in ops
    )


def _invert(mapping: tuple[int, ...]) -> tuple[int, ...]:
    inverse = [0] * len(mapping)
    for index, image in enumerate(mapping):
        inverse[image] = index
    return tuple(inverse)


def _canonical_order(ops: tuple[PlacedOp, ...], earlier: int, later: int) -> bool:
    """Whether op ``later`` may directly follow ``earlier`` canonically.

    Rejects out-of-order adjacent commuting (wire-disjoint) pairs; see
    the module docstring for why this pruning loses no reachable
    action at any frontier level.
    """
    return not (ops[earlier].disjoint(ops[later]) and later < earlier)


Frontier = dict[tuple[int, ...], tuple[int, ...]]


def _expand_forward(frontier: Frontier, ops: tuple[PlacedOp, ...]) -> Frontier:
    """All canonical one-op extensions (appended at the late end)."""
    extended: Frontier = {}
    for mapping, sequence in frontier.items():
        last = sequence[-1] if sequence else None
        for op in ops:
            if last is not None and not _canonical_order(ops, last, op.index):
                continue
            composed = tuple(op.mapping[image] for image in mapping)
            if composed not in extended:
                extended[composed] = sequence + (op.index,)
    return extended


def _expand_backward(frontier: Frontier, ops: tuple[PlacedOp, ...]) -> Frontier:
    """All canonical one-op extensions (prepended at the early end)."""
    extended: Frontier = {}
    for mapping, sequence in frontier.items():
        first = sequence[0] if sequence else None
        for op in ops:
            if first is not None and not _canonical_order(ops, op.index, first):
                continue
            composed = tuple(mapping[image] for image in op.mapping)
            if composed not in extended:
                extended[composed] = (op.index,) + sequence
    return extended


def enumerate_canonical(
    ops: tuple[PlacedOp, ...], max_gates: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every canonical op sequence of 1..``max_gates`` ops, with action.

    Unlike the search frontiers this enumerates *circuits*, not
    actions: sequences are not deduplicated by action (an identity
    database wants several members per equivalence class), but both
    prunings apply — canonical commuting order, and no op directly
    followed by its inverse (such a circuit is never the cheapest
    member of its class, so the miner loses nothing by skipping it).
    Yields ``(sequence, mapping)`` pairs in deterministic order.
    """
    if max_gates < 0:
        raise SynthesisError(f"max_gates must be >= 0, got {max_gates}")
    level: list[tuple[tuple[int, ...], tuple[int, ...]]] = [
        ((), tuple(range(len(ops[0].mapping))))
    ]
    for _ in range(max_gates):
        extended = []
        for sequence, mapping in level:
            last = sequence[-1] if sequence else None
            for op in ops:
                if last is not None and (
                    not _canonical_order(ops, last, op.index)
                    or ops[last].inverse_index == op.index
                ):
                    continue
                entry = (
                    sequence + (op.index,),
                    tuple(op.mapping[image] for image in mapping),
                )
                extended.append(entry)
                yield entry
        level = extended


@dataclass(frozen=True)
class SynthesisResult:
    """Outcome of :func:`find_optimal`.

    ``circuit`` implements the target at the provably minimal gate
    count over the given library; ``states_explored`` totals the
    frontier entries ever created (the measure the search pins freeze).
    """

    circuit: Circuit
    states_explored: int

    @property
    def gate_count(self) -> int:
        """Number of gates in the synthesised circuit."""
        return len(self.circuit)


def build_circuit(
    ops: tuple[PlacedOp, ...],
    sequence: tuple[int, ...],
    n_wires: int,
    name: str = "",
) -> Circuit:
    """Materialise an op-index sequence as a :class:`Circuit`."""
    circuit = Circuit(n_wires, name=name)
    for index in sequence:
        circuit.append_gate(ops[index].gate, *ops[index].wires)
    return circuit


def find_optimal(
    target: Gate | Permutation | Circuit,
    gate_library: tuple[Gate, ...] = DEFAULT_GATE_LIBRARY,
    max_gates: int = DEFAULT_MAX_GATES,
) -> SynthesisResult:
    """A minimal-gate-count circuit over ``gate_library`` implementing ``target``.

    ``target`` is the permutation of all ``2**n`` patterns to build,
    given as a gate, a reset-free circuit or a
    :class:`~repro.core.permutation.Permutation` on 1 to
    :data:`MAX_TARGET_WIRES` wires.  Iterative deepening guarantees the
    returned circuit's gate count is minimal.  Raises
    :class:`~repro.errors.SynthesisError` when no circuit of at most
    ``max_gates`` gates matches.

    The Figure-1 and Figure-5 constructions fall out directly::

        find_optimal(library.MAJ, (library.CNOT, library.TOFFOLI))
        # -> 2 CNOTs + 1 Toffoli, the paper's Figure 1
        find_optimal(library.SWAP3_UP, (library.SWAP,))
        # -> 2 SWAPs, the paper's Figure 5
    """
    if isinstance(target, Gate):
        permutation, label = target.permutation, target.name
    elif isinstance(target, Circuit):
        permutation, label = circuit_permutation(target), target.name
    elif isinstance(target, Permutation):
        permutation, label = target, ""
    else:
        raise SynthesisError(
            f"target must be a Gate, Circuit or Permutation, got "
            f"{type(target).__name__}"
        )
    target_mapping = permutation.mapping
    n_wires = len(target_mapping).bit_length() - 1
    if 1 << n_wires != len(target_mapping):
        raise SynthesisError(
            f"permutation size {len(target_mapping)} is not a power of two"
        )
    if not 1 <= n_wires <= MAX_TARGET_WIRES:
        raise SynthesisError(
            f"target needs 1..{MAX_TARGET_WIRES} wires, got {n_wires}"
        )
    if max_gates < 0:
        raise SynthesisError(f"max_gates must be >= 0, got {max_gates}")
    ops = placed_library(tuple(gate_library), n_wires)
    name = f"synth:{label}" if label else "synth"

    empty: Frontier = {tuple(range(len(target_mapping))): ()}
    if target_mapping in empty:
        return SynthesisResult(Circuit(n_wires, name=name), states_explored=0)
    forward: list[Frontier] = [empty]   # forward[k]: canonical k-gate prefixes
    backward: list[Frontier] = [empty]  # backward[k]: canonical k-gate suffixes
    states = 0
    for depth in range(1, max_gates + 1):
        prefix_depth = (depth + 1) // 2
        suffix_depth = depth - prefix_depth
        while len(forward) <= prefix_depth:
            forward.append(_expand_forward(forward[-1], ops))
            states += len(forward[-1])
        while len(backward) <= suffix_depth:
            backward.append(_expand_backward(backward[-1], ops))
            states += len(backward[-1])
        suffixes = backward[suffix_depth]
        candidates = []
        for mapping, prefix in forward[prefix_depth].items():
            # Need a suffix S with S ∘ F = target, i.e. S = target ∘ F⁻¹.
            needed = tuple(target_mapping[i] for i in _invert(mapping))
            suffix = suffixes.get(needed)
            if suffix is not None:
                candidates.append(prefix + suffix)
        if candidates:
            # Every candidate has ``depth`` gates, the minimum.
            circuit = build_circuit(ops, min(candidates), n_wires, name)
            return SynthesisResult(circuit, states_explored=states)
    raise SynthesisError(
        f"no circuit of <= {max_gates} gates over "
        f"{sorted({op.gate.name for op in ops})} matches target "
        f"{label or repr(target_mapping)}"
    )
