import json
import random

import pytest

from romcomp import (
    QUANTUM,
    Anf,
    Instruction,
    ProgramFormatError,
    RomProgram,
    RomSpace,
    UnitaryGate,
    dumps,
    inverse,
    loads,
    program_from_dict,
    program_to_dict,
    serialize,
)
from romcomp.program import permutation_gate
from romcomp.search import SearchTarget, minimal_program
from romcomp.synth_classical import (
    and_barrington,
    anf_to_circuit,
    circuit_to_three_bit,
    compile_pair,
)
from romcomp.synth_quantum import and_fast, compile_function

from test_program import random_classical_program, random_quantum_program
from test_sim_classical import worked_example_program


def test_round_trip_classical():
    rng = random.Random(1)
    for _ in range(10):
        prog = random_classical_program(rng)
        assert loads(dumps(prog)) == prog


def test_round_trip_quantum():
    rng = random.Random(2)
    for _ in range(10):
        prog = random_quantum_program(rng)
        assert loads(dumps(prog)) == prog


def test_round_trip_compiled():
    for prog in (and_fast([1, 2, 3], 3), and_barrington(2), worked_example_program()):
        assert loads(dumps(prog)) == prog


def test_wire_format_shape():
    data = program_to_dict(worked_example_program())
    assert data["kind"] == "classical"
    assert data["num_rom_bits"] == 3 and data["num_writable"] == 2
    first = data["instructions"][0]
    assert first["control"] == 1
    assert first["gate"] == {"perm": [1, 0, 3, 2]}
    parsed = json.loads(dumps(worked_example_program()))
    assert parsed == data


def test_dyadic_gate_format():
    data = program_to_dict(and_fast([1, 2], 2))
    gate = data["instructions"][0]["gate"]
    assert gate == {"axis": "Z", "num": 1, "log2den": 0}


def test_matrix_gate_format():
    from romcomp import Instruction, RomProgram, RomSpace, UnitaryGate

    had = UnitaryGate((2 ** -0.5 + 0j,) * 3 + (-(2 ** -0.5) + 0j,))
    prog = RomProgram(RomSpace(1, 1, "quantum"), (Instruction(had, None),))
    again = loads(dumps(prog))
    assert again == prog
    rows = program_to_dict(prog)["instructions"][0]["gate"]["matrix"]
    assert len(rows) == 4 and all(len(r) == 2 for r in rows)


@pytest.mark.parametrize(
    "mutation",
    [
        lambda d: d.pop("kind"),
        lambda d: d.update(kind="analog"),
        lambda d: d.update(instructions=[{"control": 1}]),
        lambda d: d.update(instructions=[{"control": "x", "gate": {"perm": [0, 1, 2, 3]}}]),
        lambda d: d.update(instructions=[{"control": None, "gate": {"perm": [0, 0, 1, 2]}}]),
        lambda d: d.update(instructions=[{"control": None, "gate": {"bogus": 1}}]),
        lambda d: d.update(instructions=[{"control": 9, "gate": {"perm": [1, 0, 3, 2]}}]),
        lambda d: d.update(instructions=[{"control": None, "gate": {"matrix": [[1, 0]]}}]),
    ],
)
def test_malformed_documents_rejected(mutation):
    from romcomp import ProgramError

    data = program_to_dict(worked_example_program())
    mutation(data)
    with pytest.raises(ProgramError):
        program_from_dict(data)


@pytest.mark.parametrize(
    "kind,instruction",
    [
        ("classical", {"control": True, "gate": {"perm": [1, 0, 2, 3]}}),
        ("classical", {"control": None, "gate": {"perm": [True, False, 2, 3]}}),
        ("quantum", {"control": None, "gate": {"axis": "Z", "num": True, "log2den": 0}}),
        ("quantum", {"control": None, "gate": {"matrix": [[None, 0], [0, 0], [0, 0], [1, 0]]}}),
    ],
)
def test_json_booleans_and_nulls_are_not_numbers(kind, instruction):
    data = {"num_rom_bits": 1, "num_writable": 2 if kind == "classical" else 1,
            "kind": kind, "instructions": [instruction]}
    with pytest.raises(ProgramFormatError):
        program_from_dict(data)


def test_huge_log2den_rejected():
    gate = {"axis": "X", "num": 1, "log2den": 10**9}
    text = json.dumps({"num_rom_bits": 1, "num_writable": 1, "kind": "quantum",
                       "instructions": [{"control": 1, "gate": gate}]})
    with pytest.raises(ProgramFormatError):
        loads(text)


def test_invalid_json_rejected():
    with pytest.raises(ProgramFormatError):
        loads("{not json")


def test_classical_pair_survives_round_trip_semantics():
    from romcomp import Anf, extract_function

    f1 = Anf(3, frozenset({0b001, 0b100}))
    f2 = Anf(3, frozenset({0b011}))
    prog = compile_pair(f1, f2, 3)
    assert extract_function(loads(dumps(prog))) == extract_function(prog)


@pytest.mark.parametrize("lookalike", [[True, False, 2, 3], [1.0, 0, 2, 3]])
def test_interned_perms_do_not_admit_lookalike_images(lookalike):
    # True == 1.0 == 1 and they hash alike, so a gate cache consulted before
    # the type check would hand the gate built for [1, 0, 2, 3] to these.
    good = {"control": None, "gate": {"perm": [1, 0, 2, 3]}}
    bad = {"control": 1, "gate": {"perm": lookalike}}
    doc = {"num_rom_bits": 1, "num_writable": 2, "kind": "classical", "instructions": [good]}
    assert loads(json.dumps(doc)).instructions[0].gate.perm.images == (1, 0, 2, 3)
    for instructions in ([bad], [good, bad], [good, good, bad, good]):
        text = json.dumps(dict(doc, instructions=instructions))
        with pytest.raises(ProgramFormatError, match="^perm must be a list of integers$"):
            loads(text)


def test_loads_shares_gates_and_instructions():
    text = dumps(and_barrington(4))
    program = loads(text)
    gates = {id(inst.gate) for inst in program.instructions}
    assert len(gates) == len({inst.gate.perm.images for inst in program.instructions})
    pairs = {(inst.gate.perm.images, inst.control) for inst in program.instructions}
    assert len({id(inst) for inst in program.instructions}) == len(pairs) < len(program)
    assert dumps(program) == text


def test_repeated_bad_control_reports_its_first_position():
    good = {"control": 1, "gate": {"perm": [1, 0, 3, 2]}}
    bad = {"control": 3, "gate": {"perm": [1, 0, 3, 2]}}
    text = json.dumps({"num_rom_bits": 2, "num_writable": 2, "kind": "classical",
                       "instructions": [good, good, bad, good, bad]})
    with pytest.raises(ProgramFormatError, match="^control u_3 at 2 exceeds 2 ROM bits$"):
        loads(text)


@pytest.mark.parametrize("images", [[1, 2, 3, 4, 0], list(range(16))])
def test_odd_width_perm_is_refused_before_the_gate_cache(images):
    # The shared-gate cache must stay bounded whatever a document asks for.
    doc = {"num_rom_bits": 1, "num_writable": 3, "kind": "classical",
           "instructions": [{"control": 1, "gate": {"perm": images}}]}
    before = permutation_gate.cache_info().currsize
    with pytest.raises(ProgramFormatError, match="2, 4 or 8 states"):
        loads(json.dumps(doc))
    assert permutation_gate.cache_info().currsize == before


def test_loads_returns_the_compilers_own_gates():
    program = and_barrington(3)
    loaded = loads(dumps(program))
    assert all(a.gate is b.gate for a, b in zip(program.instructions, loaded.instructions))


def _references():
    f = Anf(4, frozenset({0b0000, 0b0011, 0b0101, 0b1110, 0b1111}))
    g = Anf(4, frozenset({0b0110, 0b1001}))
    half = 2 ** -0.5 + 0j
    hadamard = UnitaryGate((half, half, half, -half))
    yield compile_function(f, 4, method="fast")
    yield compile_function(f, 4, method="naive")
    yield RomProgram(RomSpace(2, 1, QUANTUM), (Instruction(hadamard, None),
                                               Instruction(hadamard, 2)))
    yield compile_pair(f, g, 4)
    yield circuit_to_three_bit(anf_to_circuit(f), 4)
    yield minimal_program(SearchTarget.all_bits_and(3), max_depth=12).witness
    yield RomProgram(RomSpace(3, 2, "classical"))


@pytest.mark.parametrize("program", list(_references()),
                         ids=["fast", "naive", "matrix", "classical2", "classical3",
                              "witness", "empty"])
def test_dumps_is_json_dumps_of_the_reference_document(program):
    text = dumps(program)
    assert text == json.dumps(program_to_dict(program))
    assert serialize._loads_canonical(text) == program
    assert serialize._loads_canonical(text + "\n") == program


def test_dyadic_gates_are_shared_across_compile_load_and_inverse():
    program = and_fast(list(range(1, 17)), 16)
    gates = [inst.gate for p in (program, loads(dumps(program)), inverse(program))
             for inst in p.instructions]
    values = {(g.axis, g.exponent.num, g.exponent.log2den) for g in gates}
    assert len({id(g) for g in gates}) == len(values) < len(program)

