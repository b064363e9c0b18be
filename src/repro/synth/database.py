"""The identity database: equivalence classes of circuits, mined and kept.

Two reset-free circuits on the same wires are *equivalent* when their
exhaustive actions — their permutations of all ``2**n`` patterns — are
equal.  This module stores such equivalence classes as rewrite
material: the peephole optimiser looks a window's action up here and
splices in the shortest known equivalent.  Classes whose action is the
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

Persistence is JSON, by default in this package's directory (where the
``synth-peephole`` experiment's committed database lives), each member
in the circuit wire form of
:func:`~repro.core.circuit.circuit_to_json` — the same codec spec wire
forms and job circuit blobs use, gates stored with their full tables.

A member's cost is its op count: every op is one fault location, the
``G`` of the paper's ``rho = 1/(3 C(G,2))``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.circuit import Circuit, circuit_from_json, circuit_to_json
from repro.core.gate import Gate
from repro.core.truth_table import circuit_permutation
from repro.errors import ReproError, SimulationError, SynthesisError
from repro.synth.search import build_circuit, enumerate_canonical, placed_library

#: Default persistence home: this package, next to the loader.
DEFAULT_DATABASE_DIR = Path(__file__).resolve().parent

#: Shortest members a persisted database keeps per action class; part
#: of its recorded mining parameters.
_PERSISTED_KEEP = 4


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
    VERSION = 2

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
        mapping = circuit_permutation(circuit)  # raises on resets
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
    ) -> int:
        """Populate from the searcher's canonical enumeration.

        Walks every canonical placement sequence of up to ``max_gates``
        gates, keeping at most ``keep`` shortest members per class (a
        rewrite needs the shortest member plus a little diversity for
        inspection, not the whole equivalence class).  Returns the net
        number of circuits the run added (insertions minus evictions).
        """
        if keep < 1:
            raise SynthesisError(f"keep must be >= 1, got {keep}")
        ops = placed_library(tuple(gate_library), self.n_wires)
        added = 0
        for sequence, mapping in enumerate_canonical(ops, max_gates):
            members = self.classes.setdefault(mapping, {})
            # A class already full of members no longer than this
            # candidate keeps them: the candidate cannot shorten it.
            if len(members) >= keep and all(
                len(member) <= len(sequence) for member in members.values()
            ):
                continue
            circuit = build_circuit(ops, sequence, self.n_wires)
            # enumerate_canonical's mapping is exact, but every entry
            # path re-verifies by exhaustion — one contract, no
            # trusted shortcuts.
            if circuit_permutation(circuit) != mapping:
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
                worst = max(members, key=lambda d: (len(members[d]), d))
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

    def best(self, action: tuple[int, ...]) -> Circuit | None:
        """The shortest known circuit with ``action``, or ``None``.

        Ties between equally long members break by content digest.

        The identity action always answers with the empty circuit even
        on a freshly constructed database — deleting a no-op window
        needs no mining.
        """
        if len(action) != 1 << self.n_wires:
            raise SynthesisError(
                f"action on {len(action)} patterns does not fit a "
                f"{self.n_wires}-wire database"
            )
        candidates = list(self.classes.get(action, {}).values())
        if action == tuple(range(len(action))):
            candidates.append(Circuit(self.n_wires))
        if not candidates:
            return None
        return min(candidates, key=lambda c: (len(c), c.content_key()))

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
    ) -> "IdentityDatabase":
        """The persisted database at ``path``, mining it on first use.

        An existing file is loaded (and therefore re-verified member by
        member — a hand-edited database fails loudly) when its recorded
        mining parameters match the requested ones; a missing file, or
        one mined under *different* parameters (library, depth, keep),
        is re-mined and overwritten, so editing the
        parameters in code can never silently keep serving the old
        rewrite rules.  A width mismatch raises: that is a caller
        confusion, not staleness.
        """
        path = Path(path)
        provenance = {
            "mined": {
                "gates": sorted(gate.name for gate in gate_library),
                "max_gates": max_gates,
                "keep": _PERSISTED_KEEP,
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
        database.mine(gate_library, max_gates, keep=_PERSISTED_KEEP)
        database.save(path)
        return database

    @classmethod
    def load(cls, path: str | Path) -> "IdentityDatabase":
        """Read a database back, re-verifying every member by exhaustion.

        A member whose recomputed action differs from its recorded
        class raises :class:`~repro.errors.SynthesisError` — a rewrite
        database that cannot be trusted is worse than none — and so does
        well-formed JSON of the wrong shape.
        """
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise SynthesisError(f"cannot read identity database {path}: {exc}") from exc
        try:
            return cls._from_payload(payload, path)
        except (AttributeError, LookupError, TypeError, ValueError) as exc:
            raise SynthesisError(
                f"identity database {path} has the wrong shape: "
                f"{type(exc).__name__}: {exc}"
            ) from exc

    @classmethod
    def _from_payload(cls, payload: dict, path: Path) -> "IdentityDatabase":
        """The database a parsed JSON document records, verified."""
        if payload.get("version") != cls.VERSION:
            raise SynthesisError(
                f"identity database {path} has version "
                f"{payload.get('version')!r}, expected {cls.VERSION}"
            )
        database = cls(_plain_int(payload["n_wires"], path))
        database.metadata = dict(payload.get("metadata", {}))
        for record in payload.get("classes", []):
            recorded = tuple(_plain_int(image, path) for image in record["mapping"])
            for circuit_record in record.get("circuits", []):
                try:
                    circuit = circuit_from_json(circuit_record)
                except (LookupError, TypeError, ValueError, ReproError) as exc:
                    raise SynthesisError(
                        f"identity database {path} holds a malformed "
                        f"circuit record: {exc}"
                    ) from exc
                try:
                    action = circuit_permutation(circuit)
                except SimulationError as exc:  # resets, or too wide
                    raise SynthesisError(
                        f"identity database {path} holds a member whose "
                        f"action cannot be verified: {exc}"
                    ) from exc
                if circuit.n_wires != database.n_wires or action != recorded:
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


def _plain_int(value, path: Path) -> int:
    """``value`` if it is an int; a float or a bool is refused, not cast."""
    if type(value) is not int:
        raise SynthesisError(
            f"identity database {path} has the wrong shape: "
            f"expected an integer, got {value!r}"
        )
    return value
