"""Core reversible-circuit substrate: bits, gates, circuits, simulators."""

from repro.core.bits import (
    all_bit_vectors,
    bits_to_index,
    bitstring,
    hamming_distance,
    index_to_bits,
    majority,
    parse_bits,
)
from repro.core.circuit import Circuit, Operation, OpKind
from repro.core.draw import draw
from repro.core.gate import Gate
from repro.core.library import (
    CNOT,
    FREDKIN,
    MAJ,
    MAJ_INV,
    PAPER_TABLE_1,
    REGISTRY,
    SWAP,
    SWAP3_DOWN,
    SWAP3_UP,
    TOFFOLI,
    X,
)
from repro.core.bitplane import BitplaneState
from repro.core.compiled import (
    CompiledCircuit,
    FusedSlot,
    clear_compile_cache,
    compile_circuit,
    gate_cascade,
)
from repro.core.permutation import Permutation
from repro.core.simulator import apply_gate, run
from repro.core.truth_table import (
    circuit_gate,
    circuit_permutation,
    format_truth_table,
    truth_table_rows,
)

__all__ = [
    "all_bit_vectors",
    "bits_to_index",
    "bitstring",
    "hamming_distance",
    "index_to_bits",
    "majority",
    "parse_bits",
    "Circuit",
    "Operation",
    "OpKind",
    "draw",
    "Gate",
    "CNOT",
    "FREDKIN",
    "MAJ",
    "MAJ_INV",
    "PAPER_TABLE_1",
    "REGISTRY",
    "SWAP",
    "SWAP3_DOWN",
    "SWAP3_UP",
    "TOFFOLI",
    "X",
    "Permutation",
    "BitplaneState",
    "CompiledCircuit",
    "FusedSlot",
    "clear_compile_cache",
    "compile_circuit",
    "gate_cascade",
    "apply_gate",
    "run",
    "circuit_gate",
    "circuit_permutation",
    "format_truth_table",
    "truth_table_rows",
]
