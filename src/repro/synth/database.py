"""The identity database: equivalence classes of circuits, mined and kept.

Two reset-free circuits on the same wires are *equivalent* when their
exhaustive actions — their permutations of all ``2**n`` patterns — are
equal.  This module stores such equivalence classes as rewrite
material: the peephole optimiser looks a window's action up here and
splices in the cheapest known equivalent.  Classes whose action is the
identity are the classic "circuit identities" of the synthesis
literature (templates): any occurrence may be deleted outright.

The database is *content-keyed* with the same key as the compile
cache: a member's identity is its public
:meth:`~repro.core.circuit.Circuit.content_key`, the SHA-256 digest of
its wire count and exact op sequence (there is deliberately no second
hashing scheme), so adding the same circuit twice, or the same circuit
rebuilt from scratch, is a no-op.  Classes are keyed by their action's mapping tuple.

Population comes from the searcher: :meth:`IdentityDatabase.mine`
walks :func:`~repro.synth.search.enumerate_canonical` over a placed
gate library and files every canonical circuit under its exhaustively
computed action.  Every circuit entering the database — mined, added
by hand, or loaded back from disk — has its action recomputed by
exhaustion and checked against its class, so a corrupted or
hand-edited JSON file cannot smuggle in a wrong rewrite.

Persistence is JSON under ``benchmarks/results/`` (the same home as
the experiment tables): gates are stored by library name when the name
resolves to the standard library, and with their full permutation
table otherwise, so databases survive library renames loudly rather
than silently.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core import library
from repro.core.circuit import Circuit
from repro.core.gate import Gate
from repro.core.permutation import Permutation
from repro.core.truth_table import circuit_permutation
from repro.errors import SynthesisError
from repro.synth.search import build_circuit, enumerate_canonical, placed_library
from repro.synth.target import DEFAULT_COST_MODEL, CostModel

#: Repository root (this file lives at src/repro/synth/).
REPO_ROOT = Path(__file__).resolve().parents[3]

#: Default persistence home — next to the experiment result tables.
DEFAULT_DATABASE_DIR = REPO_ROOT / "benchmarks" / "results"


# ----------------------------------------------------------------------
# Circuit (de)serialisation
# ----------------------------------------------------------------------


def circuit_to_json(circuit: Circuit) -> dict:
    """A JSON-serialisable description of a circuit's content."""
    ops = []
    for op in circuit:
        if op.is_reset:
            ops.append({"reset": op.reset_value, "wires": list(op.wires)})
            continue
        assert op.gate is not None
        entry: dict = {"gate": op.gate.name, "wires": list(op.wires)}
        registered = library.REGISTRY.get(op.gate.name)
        if registered is None or not registered.same_action(op.gate):
            entry["table"] = list(op.gate.table)
        ops.append(entry)
    return {"n_wires": circuit.n_wires, "name": circuit.name, "ops": ops}


def circuit_from_json(data: dict) -> Circuit:
    """Rebuild a circuit serialised by :func:`circuit_to_json`."""
    try:
        circuit = Circuit(int(data["n_wires"]), name=str(data.get("name", "")))
        for entry in data["ops"]:
            wires = tuple(int(w) for w in entry["wires"])
            if "reset" in entry:
                circuit.append_reset(*wires, value=int(entry["reset"]))
                continue
            name = entry["gate"]
            if "table" in entry:
                gate = Gate(
                    name=name,
                    arity=len(wires),
                    table=tuple(int(image) for image in entry["table"]),
                )
            else:
                gate = library.get(name)
            circuit.append_gate(gate, *wires)
    except (KeyError, TypeError, ValueError) as exc:
        raise SynthesisError(f"malformed circuit record: {exc}") from exc
    return circuit


# ----------------------------------------------------------------------
# The database
# ----------------------------------------------------------------------


class IdentityDatabase:
    """Equivalence classes of reset-free circuits on ``n_wires`` wires.

    ``classes`` maps an action's mapping tuple to the member circuits,
    each keyed by content digest.  All mutation paths verify membership
    by exhaustion before filing anything.
    """

    #: On-disk format version.
    VERSION = 1

    def __init__(self, n_wires: int):
        if n_wires < 1:
            raise SynthesisError(f"database needs >= 1 wire, got {n_wires}")
        self.n_wires = n_wires
        self.classes: dict[tuple[int, ...], dict[str, Circuit]] = {}
        #: Free-form provenance (e.g. the mining parameters) persisted
        #: with the database; :meth:`load_or_mine` uses it to detect a
        #: stale file after the parameters change in code.
        self.metadata: dict = {}

    # -- population ----------------------------------------------------

    def add(self, circuit: Circuit) -> bool:
        """File ``circuit`` under its exhaustively computed action.

        Returns True when the circuit is new, False when its content
        digest was already present.  Rejects circuits with resets (no
        permutation action) or on the wrong wire count.
        """
        if circuit.n_wires != self.n_wires:
            raise SynthesisError(
                f"database holds {self.n_wires}-wire circuits, got "
                f"{circuit.n_wires} wires"
            )
        mapping = circuit_permutation(circuit).mapping  # raises on resets
        members = self.classes.setdefault(mapping, {})
        digest = circuit.content_key()
        if digest in members:
            return False
        members[digest] = circuit
        return True

    def mine(
        self,
        gate_library: tuple[Gate, ...],
        max_gates: int,
        keep: int = 4,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> int:
        """Populate from the searcher's canonical enumeration.

        Walks every canonical placement sequence of up to ``max_gates``
        gates, keeping at most ``keep`` cheapest members per class (a
        rewrite needs the cheapest member plus a little diversity for
        inspection, not the whole equivalence class).  Returns the net
        number of circuits the run added (insertions minus evictions).
        """
        if keep < 1:
            raise SynthesisError(f"keep must be >= 1, got {keep}")
        ops = placed_library(tuple(gate_library), self.n_wires)
        added = 0
        for sequence, mapping in enumerate_canonical(ops, max_gates):
            members = self.classes.setdefault(mapping, {})
            # A reset-free candidate of k gates costs at least
            # k * gate_location_weight (+ one depth layer when k > 0);
            # when the class is full of members at or below that lower
            # bound, building and scoring the candidate cannot improve
            # the kept set.  The bound — not the raw gate count — keeps
            # the skip sound for cost models with sub-unit weights.
            lower_bound = cost_model.gate_location_weight * len(sequence)
            if sequence:
                lower_bound += cost_model.depth_weight
            if len(members) >= keep and all(
                cost_model.cost(member) <= lower_bound
                for member in members.values()
            ):
                continue
            circuit = build_circuit(ops, sequence, self.n_wires)
            # enumerate_canonical's mapping is exact, but every entry
            # path re-verifies by exhaustion — one contract, no
            # trusted shortcuts.
            if circuit_permutation(circuit).mapping != mapping:
                raise SynthesisError(
                    "searcher action disagrees with exhaustive evaluation "
                    f"for {sequence!r}"
                )  # pragma: no cover - would indicate a searcher bug
            digest = circuit.content_key()
            if digest in members:
                continue  # pragma: no cover - canonical sequences are unique
            members[digest] = circuit
            added += 1
            if len(members) > keep:
                worst = max(
                    members, key=lambda d: (cost_model.cost(members[d]), d)
                )
                del members[worst]
                added -= 1
        return added

    # -- queries -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.classes)

    @property
    def n_circuits(self) -> int:
        """Total member circuits across all classes."""
        return sum(len(members) for members in self.classes.values())

    def best(
        self,
        action: Permutation | tuple[int, ...],
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> Circuit | None:
        """The cheapest known circuit with ``action``, or ``None``.

        The identity action always answers with the empty circuit even
        on a freshly constructed database — deleting a no-op window
        needs no mining.
        """
        mapping = action.mapping if isinstance(action, Permutation) else tuple(action)
        if len(mapping) != 1 << self.n_wires:
            raise SynthesisError(
                f"action on {len(mapping)} patterns does not fit a "
                f"{self.n_wires}-wire database"
            )
        candidates = list(self.classes.get(mapping, {}).values())
        if mapping == tuple(range(len(mapping))):
            candidates.append(Circuit(self.n_wires))
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda c: (cost_model.cost(c), c.content_key()),
        )

    def identities(self) -> tuple[Circuit, ...]:
        """All mined circuits whose action is the identity."""
        mapping = tuple(range(1 << self.n_wires))
        return tuple(self.classes.get(mapping, {}).values())

    # -- persistence ---------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Write the database as JSON; returns the path written."""
        path = Path(path)
        payload = {
            "version": self.VERSION,
            "n_wires": self.n_wires,
            "metadata": self.metadata,
            "classes": [
                {
                    "mapping": list(mapping),
                    "circuits": [
                        circuit_to_json(members[digest])
                        for digest in sorted(members)
                    ],
                }
                for mapping, members in sorted(self.classes.items())
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        # Compact arrays (mappings and gate tables dominate the bytes);
        # one top-level pass of readability comes from sorted classes.
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
        return path

    @classmethod
    def load_or_mine(
        cls,
        path: str | Path,
        n_wires: int,
        gate_library: tuple[Gate, ...],
        max_gates: int,
        keep: int = 4,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> "IdentityDatabase":
        """The persisted database at ``path``, mining it on first use.

        An existing file is loaded (and therefore re-verified member by
        member — a hand-edited database fails loudly) when its recorded
        mining parameters match the requested ones; a missing file, or
        one mined under *different* parameters (library, depth, keep,
        cost weights), is re-mined and overwritten, so editing the
        parameters in code can never silently keep serving the old
        rewrite rules.  A width mismatch raises: that is a caller
        confusion, not staleness.
        """
        path = Path(path)
        provenance = {
            "mined": {
                "gates": sorted(gate.name for gate in gate_library),
                "max_gates": max_gates,
                "keep": keep,
                "cost": [
                    cost_model.gate_location_weight,
                    cost_model.reset_location_weight,
                    cost_model.depth_weight,
                ],
            }
        }
        if path.exists():
            database = cls.load(path)
            if database.n_wires != n_wires:
                raise SynthesisError(
                    f"persisted database {path} is on {database.n_wires} "
                    f"wires, expected {n_wires}"
                )
            if database.metadata == provenance:
                return database
        database = cls(n_wires)
        database.metadata = provenance
        database.mine(gate_library, max_gates, keep=keep, cost_model=cost_model)
        database.save(path)
        return database

    @classmethod
    def load(cls, path: str | Path) -> "IdentityDatabase":
        """Read a database back, re-verifying every member by exhaustion.

        A member whose recomputed action differs from its recorded
        class raises :class:`~repro.errors.SynthesisError` — a rewrite
        database that cannot be trusted is worse than none.
        """
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise SynthesisError(f"cannot read identity database {path}: {exc}") from exc
        if payload.get("version") != cls.VERSION:
            raise SynthesisError(
                f"identity database {path} has version "
                f"{payload.get('version')!r}, expected {cls.VERSION}"
            )
        database = cls(int(payload["n_wires"]))
        database.metadata = dict(payload.get("metadata", {}))
        for record in payload.get("classes", []):
            recorded = tuple(int(image) for image in record["mapping"])
            for circuit_record in record.get("circuits", []):
                circuit = circuit_from_json(circuit_record)
                if (
                    circuit.n_wires != database.n_wires
                    or circuit_permutation(circuit).mapping != recorded
                ):
                    raise SynthesisError(
                        f"identity database {path} is corrupt: a recorded "
                        "member does not implement its class action"
                    )
                # File directly under the just-verified action; going
                # through add() would recompute the exhaustive
                # permutation a second time per member.
                database.classes.setdefault(recorded, {}).setdefault(
                    circuit.content_key(), circuit
                )
        return database
