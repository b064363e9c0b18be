"""The identity database: keying, mining, persistence, verification."""

from __future__ import annotations

import json

import pytest

from repro.core import library
from repro.core.circuit import Circuit, circuit_to_json
from repro.core.gate import Gate
from repro.core.permutation import Permutation
from repro.core.truth_table import circuit_permutation
from repro.errors import SynthesisError
from repro.synth.database import IdentityDatabase


def fig1_circuit() -> Circuit:
    return Circuit(3).cnot(0, 1).cnot(0, 2).toffoli(1, 2, 0)


#: ``fig1_circuit()``'s member digest.  Persisted databases sort their
#: members by digest, so it must never move.
FIG1_DIGEST = "2c5a1531a1cfff15d05b297fc27b0dd6ca2a716b8928007704f02d352fa82885"


class TestContentDigest:
    def test_digest_is_pinned(self):
        assert fig1_circuit().content_key() == FIG1_DIGEST

    def test_rebuilt_circuit_shares_digest(self):
        assert fig1_circuit().content_key() == fig1_circuit().content_key()

    def test_mutation_changes_digest(self):
        mutated = fig1_circuit().x(0)
        assert mutated.content_key() != fig1_circuit().content_key()

    def test_name_is_not_content(self):
        named = fig1_circuit().copy(name="fig1")
        assert named.content_key() == fig1_circuit().content_key()

    def test_same_name_different_table_gates_do_not_collide(self):
        # Regression: Gate.__repr__ elides the permutation table, so a
        # repr-based digest would collide these two content-distinct
        # circuits (and the database would silently drop the second).
        impostor = library.SWAP.renamed("X2")
        honest = Gate.from_permutation("X2", Permutation((3, 2, 1, 0)))
        left = Circuit(2).append_gate(impostor, 0, 1)
        right = Circuit(2).append_gate(honest, 0, 1)
        assert left.content_key() != right.content_key()
        database = IdentityDatabase(2)
        assert database.add(left)
        assert database.add(right)
        assert database.n_circuits == 2


class TestWireForm:
    def test_members_are_stored_in_the_circuit_wire_form(self, tmp_path):
        database = IdentityDatabase(3)
        database.add(fig1_circuit())
        path = database.save(tmp_path / "identities.json")
        (record,) = json.loads(path.read_text())["classes"][0]["circuits"]
        assert record == circuit_to_json(fig1_circuit())

    def test_custom_gate_member_keeps_its_content_key(self, tmp_path):
        # A gate that shadows a library name with a different action
        # must come back with its own table, not the library's.
        impostor = library.SWAP.renamed("CNOT")
        database = IdentityDatabase(2)
        database.add(Circuit(2).append_gate(impostor, 0, 1))
        loaded = IdentityDatabase.load(database.save(tmp_path / "db.json"))
        ((mapping, members),) = loaded.classes.items()
        assert mapping == library.SWAP.table
        assert set(members) == set(database.classes[mapping])

    def test_malformed_record_rejected(self, tmp_path):
        database = IdentityDatabase(2)
        database.add(Circuit(2).swap(0, 1))
        path = database.save(tmp_path / "identities.json")
        payload = json.loads(path.read_text())
        payload["classes"][0]["circuits"][0] = {"n_wires": 2}
        path.write_text(json.dumps(payload))
        with pytest.raises(SynthesisError, match="malformed"):
            IdentityDatabase.load(path)


class TestAddAndQuery:
    def test_add_dedupes_by_digest(self):
        database = IdentityDatabase(3)
        assert database.add(fig1_circuit())
        assert not database.add(fig1_circuit())
        assert database.n_circuits == 1

    def test_add_rejects_wrong_width(self):
        database = IdentityDatabase(2)
        with pytest.raises(SynthesisError, match="2-wire"):
            database.add(fig1_circuit())

    def test_best_prefers_cheapest(self):
        database = IdentityDatabase(3)
        database.add(fig1_circuit())
        database.add(Circuit(3).maj(0, 1, 2))
        best = database.best(library.MAJ.permutation)
        assert best is not None and len(best) == 1

    def test_best_identity_is_empty_without_mining(self):
        database = IdentityDatabase(2)
        best = database.best(tuple(range(4)))
        assert best is not None and len(best) == 0

    def test_best_unknown_action_is_none(self):
        database = IdentityDatabase(2)
        assert database.best(library.SWAP.table) is None

    def test_best_validates_action_size(self):
        with pytest.raises(SynthesisError, match="does not fit"):
            IdentityDatabase(2).best((0, 1))

    def test_best_ranks_equivalent_members_by_length(self):
        database = IdentityDatabase(2)
        lean = Circuit(2).x(0).cnot(0, 1).x(0)
        padded = Circuit(2).x(0).cnot(0, 1).x(0).x(1).x(1)
        assert circuit_permutation(padded) == circuit_permutation(lean)
        database.add(padded)
        database.add(lean)
        best = database.best(circuit_permutation(lean))
        assert best is not None and len(best) == 3

    def test_best_breaks_length_ties_by_digest(self):
        # Equally long members: the tie breaks deterministically by
        # digest rather than by insertion order.
        database = IdentityDatabase(2)
        first, second = Circuit(2).x(1).x(0), Circuit(2).x(0).x(1)
        database.add(first)
        database.add(second)
        best = database.best(circuit_permutation(first))
        assert best is not None
        assert best.content_key() == min(
            first.content_key(), second.content_key()
        )


class TestMining:
    def test_mine_populates_figure_1_class(self):
        database = IdentityDatabase(3)
        added = database.mine(
            (library.CNOT, library.TOFFOLI, library.MAJ), max_gates=3
        )
        assert added == database.n_circuits > 100
        members = database.classes[library.MAJ.table]
        lengths = sorted(len(member) for member in members.values())
        # The class holds the 1-gate MAJ and 3-gate Figure-1 members.
        assert lengths[0] == 1 and 3 in lengths
        best = database.best(library.MAJ.permutation)
        assert best is not None and len(best) == 1

    def test_mine_caps_members_per_class(self):
        database = IdentityDatabase(2)
        database.mine((library.X, library.CNOT), max_gates=4, keep=2)
        assert all(
            len(members) <= 2 for members in database.classes.values()
        )

    def test_mine_keep_validated(self):
        with pytest.raises(SynthesisError, match="keep"):
            IdentityDatabase(2).mine((library.X,), max_gates=1, keep=0)


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        database = IdentityDatabase(3)
        database.mine((library.CNOT, library.MAJ), max_gates=2)
        path = database.save(tmp_path / "identities.json")
        loaded = IdentityDatabase.load(path)
        assert loaded.n_wires == 3
        assert set(loaded.classes) == set(database.classes)
        assert loaded.n_circuits == database.n_circuits

    def test_load_verifies_members_by_exhaustion(self, tmp_path):
        database = IdentityDatabase(2)
        database.add(Circuit(2).swap(0, 1))
        path = database.save(tmp_path / "identities.json")
        payload = json.loads(path.read_text())
        # Tamper: claim the SWAP member implements the identity.
        payload["classes"][0]["mapping"] = [0, 1, 2, 3]
        path.write_text(json.dumps(payload))
        with pytest.raises(SynthesisError, match="corrupt"):
            IdentityDatabase.load(path)

    def test_load_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "identities.json"
        path.write_text(json.dumps({"version": 99, "n_wires": 2}))
        with pytest.raises(SynthesisError, match="version"):
            IdentityDatabase.load(path)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "identities.json"
        path.write_text("not json")
        with pytest.raises(SynthesisError, match="cannot read"):
            IdentityDatabase.load(path)

    def test_load_or_mine_mines_once_then_loads(self, tmp_path):
        path = tmp_path / "identities.json"
        mined = IdentityDatabase.load_or_mine(
            path, 2, (library.X, library.CNOT), max_gates=2
        )
        assert path.exists()
        written = path.read_text()
        loaded = IdentityDatabase.load_or_mine(
            path, 2, (library.X, library.CNOT), max_gates=2
        )
        assert loaded.n_circuits == mined.n_circuits
        assert path.read_text() == written  # second call did not remine

    def test_load_or_mine_remines_when_parameters_change(self, tmp_path):
        path = tmp_path / "identities.json"
        shallow = IdentityDatabase.load_or_mine(
            path, 2, (library.X, library.CNOT), max_gates=1
        )
        deeper = IdentityDatabase.load_or_mine(
            path, 2, (library.X, library.CNOT), max_gates=2
        )
        assert deeper.n_circuits > shallow.n_circuits
        assert deeper.metadata["mined"]["max_gates"] == 2
        # The rewritten file now answers the deeper request directly.
        again = IdentityDatabase.load_or_mine(
            path, 2, (library.X, library.CNOT), max_gates=2
        )
        assert again.n_circuits == deeper.n_circuits

    def test_mine_replaces_a_longer_member_in_a_full_class(self):
        # The full-class skip must not keep a hand-added longer member
        # over a shorter mined one.
        database = IdentityDatabase(2)
        padded = Circuit(2).cnot(0, 1).x(0).x(0).cnot(0, 1).cnot(0, 1)
        database.add(padded)  # 5 gates, same action as CNOT(0,1)
        database.mine((library.CNOT,), max_gates=1, keep=1)
        members = database.classes[library.CNOT.table].values()
        assert [len(member) for member in members] == [1]

    def test_load_or_mine_rejects_width_mismatch(self, tmp_path):
        path = tmp_path / "identities.json"
        IdentityDatabase.load_or_mine(path, 2, (library.X,), max_gates=1)
        with pytest.raises(SynthesisError, match="expected 3"):
            IdentityDatabase.load_or_mine(path, 3, (library.X,), max_gates=1)

    def test_committed_database_serves_the_experiment_without_mining(
        self, monkeypatch
    ):
        # The committed file's mining parameters must equal what the
        # synth-peephole experiment requests, or load_or_mine would
        # re-mine and overwrite the tracked file on every run.
        from repro.harness.experiments import _synth_rewrite_database
        from repro.synth.database import DEFAULT_DATABASE_DIR

        path = DEFAULT_DATABASE_DIR / "synth_identities.json"
        committed = json.loads(path.read_text())["metadata"]

        def refuse(*args, **kwargs):
            raise AssertionError("the committed database was re-mined")

        monkeypatch.setattr(IdentityDatabase, "mine", refuse)
        monkeypatch.setattr(IdentityDatabase, "save", refuse)
        assert _synth_rewrite_database().metadata == committed

    def test_committed_experiment_database_verifies(self):
        # The repository ships the synth-peephole rewrite database;
        # loading re-verifies every member by exhaustion, so this test
        # keeps the committed JSON honest.
        from repro.synth.database import DEFAULT_DATABASE_DIR

        database = IdentityDatabase.load(DEFAULT_DATABASE_DIR / "synth_identities.json")
        assert database.n_wires == 3
        assert database.best(library.MAJ.permutation) is not None
