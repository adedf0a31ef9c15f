import random
import re

import pytest
from hypothesis import given, strategies as st

from romcomp import (
    CLASSICAL,
    QUANTUM,
    DyadicExponent,
    DyadicGate,
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
    permutation_of,
    rom_call_count,
    unitary_of,
)
from romcomp.program import (
    MAX_LOG2DEN,
    MAX_SHARED_DYADIC_GATES,
    _shared_dyadic_gate,
    dyadic_gate,
    permutation_gate,
)
from romcomp.sim_quantum import Unitary2
from romcomp.synth_classical import cnot_gate, not_gate

SPACE2 = RomSpace(2, 2, CLASSICAL)
NOT1 = PermutationGate(Permutation((1, 0, 3, 2)))


def random_classical_program(rng, j=3, n=2, length=6):
    space = RomSpace(j, n, CLASSICAL)
    instructions = []
    for _ in range(length):
        images = list(range(1 << n))
        rng.shuffle(images)
        control = rng.choice([None] + list(range(1, j + 1)))
        instructions.append(Instruction(PermutationGate(Permutation(tuple(images))), control))
    return RomProgram(space, tuple(instructions))


def random_quantum_program(rng, j=2, length=6):
    space = RomSpace(j, 1, QUANTUM)
    instructions = []
    for _ in range(length):
        axis = rng.choice("XZ")
        exponent = DyadicExponent(rng.choice([-2, -1, 1, 2]), rng.randrange(3))
        control = rng.choice([None] + list(range(1, j + 1)))
        instructions.append(Instruction(DyadicGate(axis, exponent), control))
    return RomProgram(space, tuple(instructions))


def test_space_validation():
    with pytest.raises(ProgramError):
        RomSpace(0, 2, CLASSICAL)
    with pytest.raises(ProgramError):
        RomSpace(2, 4, CLASSICAL)
    with pytest.raises(ProgramError):
        RomSpace(2, 2, "analog")
    with pytest.raises(ProgramError):
        RomSpace(2, 2, QUANTUM)  # quantum backend is one qubit


def test_permutation_basics():
    p = Permutation((2, 0, 1))
    assert p.apply(0) == 2
    assert p.then(p.inverse()).is_identity()
    assert Permutation.from_cycles(4, ((0, 1), (2, 3))).images == (1, 0, 3, 2)
    assert Permutation.from_cycles(5, ((0, 1, 2, 3, 4),)).cycles() == ((0, 1, 2, 3, 4),)
    with pytest.raises(ProgramError):
        Permutation((0, 0, 1))


def test_permutation_then_order():
    # a.then(b) applies a first.
    a = Permutation((1, 0, 2))
    b = Permutation((0, 2, 1))
    assert a.then(b).apply(0) == b.apply(a.apply(0))


def test_dyadic_exponent_normalizes():
    t = DyadicExponent(2, 3)
    assert (t.num, t.log2den) == (1, 2)
    assert (-t).num == -1
    assert str(DyadicExponent(-1, 1)) == "-1/2"
    assert DyadicExponent(1, 2) + DyadicExponent(1, 2) == DyadicExponent(1, 1)
    with pytest.raises(ProgramError):
        DyadicExponent(5, 1)  # 5/2 > 2
    # The denominator is capped, so 2 << log2den stays small.
    assert DyadicExponent(1, 51).log2den == 51
    for too_fine in (lambda: DyadicExponent(1, 52), lambda: DyadicExponent(0, 10**9)):
        with pytest.raises(ProgramError):
            too_fine()


def test_unitary_gate_must_be_unitary():
    UnitaryGate((0j, 1 + 0j, 1 + 0j, 0j))
    with pytest.raises(ProgramError):
        UnitaryGate((1 + 0j, 1 + 0j, 0j, 1 + 0j))
    # A NaN residual passes "residual > tol", and max() drops it unless it
    # comes first: a NaN in either place must be refused.
    nan = complex(float("nan"), 0)
    with pytest.raises(ProgramError):
        UnitaryGate((nan, 0j, 0j, 1 + 0j))
    with pytest.raises(ProgramError):
        UnitaryGate((1 + 0j, 0j, 0j, nan))


def test_program_kind_checks():
    with pytest.raises(KindMismatchError):
        RomProgram(RomSpace(2, 1, QUANTUM), (Instruction(NOT1, 1),))
    with pytest.raises(KindMismatchError):
        RomProgram(SPACE2, (Instruction(DyadicGate("X", DyadicExponent(1)), 1),))
    with pytest.raises(ProgramError):
        RomProgram(SPACE2, (Instruction(NOT1, 3),))  # control exceeds ROM width


def test_rom_call_count_counts_controls_only():
    assert rom_call_count(RomProgram(SPACE2)) == 0
    prog = RomProgram(SPACE2, (Instruction(NOT1, 1), Instruction(NOT1), Instruction(NOT1, 2)))
    assert rom_call_count(prog) == 2


def test_concat_identity_and_mismatch():
    rng = random.Random(7)
    p = random_classical_program(rng)
    assert concat(p, RomProgram(p.space)).instructions == p.instructions
    with pytest.raises(ProgramError):
        concat(p, RomProgram(RomSpace(4, 2, CLASSICAL)))


def test_concat_restores_after_involution():
    # Two copies of a controlled NOT cancel on every assignment and start.
    prog = RomProgram(SPACE2, (Instruction(NOT1, 1),))
    doubled = concat(prog, prog)
    for u in range(4):
        assert permutation_of(doubled, u).is_identity()


@given(st.integers(0, 2**32 - 1))
def test_concat_additive_rom_calls(seed):
    rng = random.Random(seed)
    a = random_classical_program(rng, length=rng.randrange(5))
    b = random_classical_program(rng, length=rng.randrange(5))
    assert rom_call_count(concat(a, b)) == rom_call_count(a) + rom_call_count(b)


@given(st.integers(0, 2**32 - 1))
def test_concat_associative(seed):
    rng = random.Random(seed)
    a, b, c = (random_classical_program(rng, length=3) for _ in range(3))
    assert concat(concat(a, b), c) == concat(a, concat(b, c))


def test_inverse_edge_cases():
    empty = RomProgram(SPACE2)
    assert inverse(empty) == empty
    single = RomProgram(SPACE2, (Instruction(NOT1),))
    assert inverse(single) == single  # NOT is its own inverse


@given(st.integers(0, 2**32 - 1))
def test_inverse_involution(seed):
    rng = random.Random(seed)
    p = random_classical_program(rng)
    assert inverse(inverse(p)) == p


@pytest.mark.parametrize("seed", range(5))
def test_quantum_inverse_cancels(seed):
    rng = random.Random(seed)
    p = random_quantum_program(rng)
    identity = Unitary2.identity()
    for u in range(p.space.num_assignments):
        u_round_trip = unitary_of(concat(p, inverse(p)), u)
        assert u_round_trip.max_entry_distance(identity) < 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_classical_program_is_bijective(seed):
    rng = random.Random(seed)
    p = random_classical_program(rng)
    for u in range(p.space.num_assignments):
        images = permutation_of(p, u).images
        assert sorted(images) == list(range(4))


@pytest.mark.parametrize("seed", range(5))
def test_quantum_program_is_unitary(seed):
    rng = random.Random(seed)
    p = random_quantum_program(rng)
    for u in range(p.space.num_assignments):
        assert unitary_of(p, u).unitarity_residual() < 1e-9


def test_repeated_checks_report_the_first_offending_position():
    # The checks run once per distinct instruction object; one that failed
    # must still be reported where it first occurs.
    ok, wide = Instruction(NOT1, 1), Instruction(NOT1, 3)
    with pytest.raises(ProgramError, match="^control u_3 at 2 exceeds 2 ROM bits$"):
        RomProgram(SPACE2, (ok, ok, wide, ok, wide))
    # So must a repeated gate of the wrong width.
    eight = PermutationGate(Permutation.identity(8))
    program = (ok, Instruction(eight, 1), Instruction(eight, 1))
    with pytest.raises(ProgramError, match="^gate at 1 acts on 8 states, space has 4$"):
        RomProgram(SPACE2, program)
    with pytest.raises(KindMismatchError, match="^classical gate at 1 in a quantum program$"):
        RomProgram(RomSpace(2, 1, QUANTUM), (Instruction(DyadicGate("X", DyadicExponent(1)), 1),
                                             Instruction(NOT1, 1), Instruction(NOT1, 1)))


def test_permutation_gates_are_shared():
    gate = permutation_gate((1, 0, 3, 2))
    assert gate is permutation_gate((1, 0, 3, 2)) == NOT1
    assert not_gate(1, None).gate is not_gate(1, 2).gate is gate
    assert cnot_gate(2, 1).gate is cnot_gate(2, 3).gate
    # Inverses come from the same cache: an involution is its own inverse.
    assert gate.inverse() is gate
    cycle = permutation_gate((1, 2, 3, 0))
    assert cycle.inverse() is permutation_gate((3, 0, 1, 2))
    assert cycle.inverse().inverse() is cycle


@pytest.mark.parametrize("images", [(0,), (0, 1, 2), (1, 2, 3, 4, 0), tuple(range(16))])
def test_permutation_gate_refuses_other_widths_without_caching(images):
    before = permutation_gate.cache_info().currsize
    with pytest.raises(ProgramError, match="2, 4 or 8 states"):
        permutation_gate(images)
    assert permutation_gate.cache_info().currsize == before


@pytest.mark.parametrize("images", [(True, False, 3, 2), (1, 0, 3.0, 2), (1.0, 0.0)])
def test_permutation_gate_refuses_non_int_images_on_a_miss(images):
    # (True, False, 3, 2) == (1, 0, 3, 2), so a cached miss would hand its
    # bool images to every later caller; __wrapped__ is the miss path.
    with pytest.raises(ProgramError, match="^permutation images must be integers"):
        permutation_gate.__wrapped__(images)


@pytest.mark.parametrize("build", [
    lambda: Instruction(NOT1, True),
    lambda: Instruction(NOT1, 1.0),
    lambda: RomSpace(True, 1, QUANTUM),
    lambda: RomSpace(2, 2.0, CLASSICAL),
    lambda: DyadicExponent(True),
    lambda: DyadicExponent(1, True),
], ids=["bool-control", "float-control", "bool-rom-width", "float-writable-width",
        "bool-num", "bool-log2den"])
def test_the_model_refuses_what_loads_refuses(build):
    # Each of these used to build, and dumps then wrote text its loads refused.
    with pytest.raises(ProgramError):
        build()


def test_unitary2_is_one_class():
    import romcomp
    import romcomp.program
    import romcomp.sim_quantum

    assert romcomp.Unitary2 is romcomp.sim_quantum.Unitary2 is romcomp.program.Unitary2


def test_dyadic_gates_are_shared():
    gate = dyadic_gate("X", 1, 1)
    assert gate is dyadic_gate("X", 1, 1) == DyadicGate("X", DyadicExponent(1, 1))
    # An unreduced exponent finds the gate of the reduced one.
    assert dyadic_gate("X", 2, 2) is dyadic_gate("X", 4, 3) is gate
    assert dyadic_gate("Z", 1, 1) is not gate
    assert gate.inverse() is dyadic_gate("X", -1, 1)
    assert gate.inverse().inverse() is gate


@pytest.mark.parametrize("args,message", [
    ((["X"], 1, 0), "axis must be X or Z, got ['X']"),
    (("Y", 1, 0), "axis must be X or Z, got 'Y'"),
    ((["X"], 1, 10**9), f"log2den must be in 0..{MAX_LOG2DEN}, got {10**9}"),
    (("X", True, 0), "dyadic gate needs integer num and log2den"),
    (("X", 1, False), "dyadic gate needs integer num and log2den"),
    (("X", 1.0, 0), "dyadic gate needs integer num and log2den"),
    (("X", 5, 1), "|5/2^1| exceeds 2"),
])
def test_dyadic_gate_checks_its_key_before_the_cache(args, message):
    # A list axis is unhashable and True == 1 would find the gate of 1.
    before = _shared_dyadic_gate.cache_info().currsize
    with pytest.raises(ProgramError, match="^" + re.escape(message) + "$"):
        dyadic_gate(*args)
    assert _shared_dyadic_gate.cache_info().currsize == before


def test_dyadic_gate_cache_is_bounded():
    for num in range(MAX_SHARED_DYADIC_GATES + 100):
        dyadic_gate("Z", 2 * num + 1, MAX_LOG2DEN)
    assert _shared_dyadic_gate.cache_info().currsize == MAX_SHARED_DYADIC_GATES
