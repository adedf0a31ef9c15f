"""ROM-conditioned computation toolkit.

Compiles boolean functions into gate programs for three machines (one
writable qubit, two writable bits, three writable bits via affine register
programs), simulates the programs exactly, counts ROM calls, and searches
exhaustively for minimal two-bit programs.
"""

from .boolfunc import (
    Anf,
    ParseError,
    TruthTable,
    VectorFunction,
    anf_of,
    format_monomials,
    parse_monomials,
    parse_table,
    truth_table_of,
)
from .program import (
    AXIS_X,
    AXIS_Z,
    CLASSICAL,
    QUANTUM,
    DyadicExponent,
    DyadicGate,
    Gate,
    Instruction,
    KindMismatchError,
    Permutation,
    PermutationGate,
    ProgramError,
    RomProgram,
    RomSpace,
    UnitaryGate,
    concat,
    inverse,
    rom_call_count,
)
from .search import (
    NotFoundWithinDepth,
    SearchResult,
    SearchTarget,
    conjectured_minimal_calls,
    minimal_program,
)
from .serialize import ProgramFormatError, dumps, loads, program_from_dict, program_to_dict
from .sim_classical import extract_function, permutation_of
from .sim_quantum import (
    NonClassicalOutput,
    Unitary2,
    extract_boolean,
    matrix_of_gate,
    unitary_of,
)
from .synth_classical import (
    AndNode,
    BIT_FLIP_FIVE_CYCLES,
    BIT_FLIP_PERMUTATION,
    BranchingProgram,
    CircuitNode,
    InputNode,
    NotNode,
    OrNode,
    XorNode,
    and_barrington,
    balanced_and_circuit,
    barrington,
    circuit_depth,
    circuit_to_three_bit,
    cnot_gate,
    compile_pair,
    eval_circuit,
    not_gate,
    one_bit_reachable,
    parse_circuit,
    and_sequence,
)
from .synth_quantum import and_fast, and_naive, circuit_to_qubit, compile_function
from .render import render_program

__all__ = [name for name in dir() if not name.startswith("_")]
