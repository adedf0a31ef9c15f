import random

import pytest

from romcomp import (
    CLASSICAL,
    Anf,
    Instruction,
    KindMismatchError,
    Permutation,
    PermutationGate,
    RomProgram,
    RomSpace,
    concat,
    evaluate,
    extract_function,
    inverse,
    permutation_of,
    rom_call_count,
    truth_table_of,
)
import romcomp.sweep as sweep_module
from romcomp.sweep import BLOCK_BITS, FUSE_BITS, segments
from romcomp.synth_classical import cnot_gate, compile_pair, not_gate

from test_program import random_classical_program


def cut(instructions):
    """``instructions`` split into the runs that ``segments`` cuts."""
    instructions = list(instructions)
    controls = [inst.control or 0 for inst in instructions]
    return [instructions[first:stop] for first, stop, _ in segments(controls)]


# Settings of the sweep's choice of segments to fold.
FOLD_MODES = {
    "estimate": {},
    "never": {"GATHER_PASSES": float("inf")},
    "every": {"GATHER_PASSES": float("-inf")},
}


@pytest.fixture(params=FOLD_MODES)
def fold_mode(request, monkeypatch):
    for name, value in FOLD_MODES[request.param].items():
        monkeypatch.setattr(sweep_module, name, value)
    return request.param


def worked_example_program():
    """Hand-encoded two-register example computing (u1 XOR u3, u1 XOR u1u2)."""
    space = RomSpace(3, 2, CLASSICAL)
    return RomProgram(
        space,
        (
            not_gate(1, 1),   # reg1 = u1
            cnot_gate(2, 2),  # reg2 = u1 u2
            not_gate(2, 1),   # reg2 = u1 XOR u1u2
            not_gate(1, 3),   # reg1 = u1 XOR u3
        ),
    )


def s1_program():
    """Time order N1_u1, C2_u2, N1_u1, C2_u2: XORs u1u2 into register 2."""
    space = RomSpace(2, 2, CLASSICAL)
    return RomProgram(
        space,
        (not_gate(1, 1), cnot_gate(2, 2), not_gate(1, 1), cnot_gate(2, 2)),
    )


def test_empty_program_is_identity():
    prog = RomProgram(RomSpace(2, 2, CLASSICAL))
    for u in range(4):
        assert permutation_of(prog, u).is_identity()


def test_single_controlled_not():
    prog = RomProgram(RomSpace(1, 2, CLASSICAL), (not_gate(1, 1),))
    assert permutation_of(prog, 1).images == (1, 0, 3, 2)
    assert permutation_of(prog, 0).is_identity()


def test_s1_evaluation():
    prog = s1_program()
    assert evaluate(prog, 0b11, 0) == 2  # |0>|1>
    assert evaluate(prog, 0b01, 0) == 0
    assert evaluate(prog, 0b10, 0) == 0
    assert rom_call_count(prog) == 4


def test_worked_example_extraction():
    vf = extract_function(worked_example_program())
    f1 = truth_table_of(Anf(3, frozenset({0b001, 0b100})))  # u1 XOR u3
    f2 = truth_table_of(Anf(3, frozenset({0b001, 0b011})))  # u1 XOR u1u2
    assert vf.components == (f1, f2)


def test_worked_example_pointwise():
    prog = worked_example_program()
    for u in range(8):
        u1, u2, u3 = u & 1, u >> 1 & 1, u >> 2 & 1
        state = evaluate(prog, u, 0)
        assert state & 1 == u1 ^ u3
        assert state >> 1 == u1 ^ (u1 & u2)


def test_evaluate_validates():
    prog = s1_program()
    with pytest.raises(ValueError):
        evaluate(prog, 0, 4)
    with pytest.raises(ValueError):
        evaluate(prog, 4, 0)
    quantum = RomProgram(RomSpace(1, 1, "quantum"))
    with pytest.raises(KindMismatchError):
        permutation_of(quantum, 0)


def test_extract_empty_program():
    vf = extract_function(RomProgram(RomSpace(2, 2, CLASSICAL)))
    assert all(bit == 0 for table in vf.components for bit in table.bits)


def test_extract_matches_compiler_oracle():
    rng = random.Random(11)
    for _ in range(25):
        masks1 = frozenset(rng.sample(range(8), rng.randrange(4)))
        masks2 = frozenset(rng.sample(range(8), rng.randrange(4)))
        f1, f2 = Anf(3, masks1), Anf(3, masks2)
        vf = extract_function(compile_pair(f1, f2, 3))
        assert vf.components == (truth_table_of(f1), truth_table_of(f2))


@pytest.mark.parametrize("seed", range(5))
def test_composition_homomorphism(seed):
    rng = random.Random(seed)
    a = random_classical_program(rng, length=4)
    b = random_classical_program(rng, length=4)
    both = concat(a, b)
    for u in range(8):
        assert permutation_of(both, u) == permutation_of(a, u).then(permutation_of(b, u))


@pytest.mark.parametrize("seed", range(5))
def test_inverse_permutation(seed):
    rng = random.Random(seed)
    p = random_classical_program(rng)
    for u in range(8):
        assert permutation_of(inverse(p), u) == permutation_of(p, u).inverse()


def test_insertion_of_cancelling_pair_is_invisible():
    rng = random.Random(3)
    p = random_classical_program(rng, j=3)
    g = random_classical_program(rng, j=3, length=2)
    noop = concat(g, inverse(g))
    spliced = RomProgram(
        p.space, p.instructions[:2] + noop.instructions + p.instructions[2:]
    )
    assert extract_function(spliced) == extract_function(p)


def test_eager_sweep_limit():
    wide = RomProgram(RomSpace(21, 2, CLASSICAL))
    with pytest.raises(ValueError):
        extract_function(wide)


@pytest.mark.parametrize("seed", range(3))
def test_block_sweep_matches_evaluate(seed):
    # Two ROM bits above the block, and two random 3-bit gates on every bit.
    rng = random.Random(seed)
    j = BLOCK_BITS + 2
    controls = [None, *range(1, j + 1), *range(1, j + 1)]
    rng.shuffle(controls)
    prog = RomProgram(RomSpace(j, 3, CLASSICAL), tuple(
        Instruction(PermutationGate(Permutation(tuple(rng.sample(range(8), 8)))), c)
        for c in controls
    ))
    vf = extract_function(prog)
    edges = [0, 1 << BLOCK_BITS, 1 << (BLOCK_BITS + 1), (1 << j) - 1]
    for u in edges + rng.sample(range(1 << j), 200):
        state = evaluate(prog, u, 0)
        assert [table.bits[u] for table in vf.components] == [state >> b & 1 for b in range(3)]


def test_sweep_builds_one_action_per_distinct_gate_object():
    import numpy as np

    from romcomp import and_barrington
    from romcomp.sim_classical import _gather
    from romcomp.sweep import sweep

    program = and_barrington(8)
    made = []

    def act_of(gate):
        made.append(gate)
        return np.array(gate.perm.images, dtype=np.uint8).take

    rows = sweep(
        program, np.zeros(1, dtype=np.uint8), act_of,
        np.arange(program.space.num_states, dtype=np.uint8), _gather,
    )
    assert rows[:, 0].tolist() == [0] * 255 + [1]
    distinct = {id(inst.gate) for inst in program.instructions}
    assert len(made) == len({id(gate) for gate in made}) == len(distinct) < len(program)


def test_segments_cut_greedily_at_the_first_bit_past_the_limit():
    first = [0, *range(1, FUSE_BITS + 1), 1, 0]
    second = [FUSE_BITS + 1, 2, 0, FUSE_BITS + 1]
    assert segments(first + second) == [
        (0, len(first), list(range(1, FUSE_BITS + 1))),
        (len(first), len(first) + len(second), [2, FUSE_BITS + 1]),
    ]
    assert segments([]) == [(0, 0, [])]
    assert segments([0, 0]) == [(0, 2, [])]


def counting(apply_of):
    """``apply_of`` that records each fold it is given."""
    folds = []

    def record(folded):
        folds.append(folded)
        return apply_of(folded)

    return folds, record


def assert_fold_mode_kept(fold_mode, folds, program):
    """The "every" mode folds each segment, however few rows the sweep has,
    and the "never" mode none."""
    if fold_mode == "every":
        assert len(folds) == len(cut(program.instructions))
    elif fold_mode == "never":
        assert not folds


def test_fused_sweep_builds_one_action_per_distinct_gate_object():
    import numpy as np

    from romcomp import and_barrington
    from romcomp.sim_classical import _gather
    from romcomp.sweep import sweep

    program = and_barrington(13)
    made = []

    def act_of(gate):
        made.append(gate)
        return np.array(gate.perm.images, dtype=np.uint8).take

    folds, apply_of = counting(_gather)
    states = sweep(
        program, np.zeros(1, dtype=np.uint8), act_of,
        np.arange(program.space.num_states, dtype=np.uint8), apply_of,
    )[:, 0]
    assert states.tolist() == [0] * ((1 << 13) - 1) + [1]
    assert len(folds) == len(cut(program.instructions)) > 1
    distinct = {id(inst.gate) for inst in program.instructions}
    assert len(made) == len({id(gate) for gate in made}) == len(distinct) < len(program)


def random_gate(rng):
    return PermutationGate(Permutation(tuple(rng.sample(range(8), 8))))


@pytest.mark.parametrize("j", [FUSE_BITS, FUSE_BITS + 1, BLOCK_BITS, BLOCK_BITS + 2])
@pytest.mark.parametrize("seed", range(2))
def test_fused_sweep_matches_evaluate(j, seed, fold_mode, monkeypatch):
    import romcomp.sim_classical as sim_classical

    # Three random 3-bit gates on every bit in shuffled order, so segments end
    # mid-run, and an uncontrolled gate at every segment boundary.
    rng = random.Random(seed)
    controls = [*range(1, j + 1)] * 3
    rng.shuffle(controls)
    instructions = []
    for run in cut(Instruction(random_gate(rng), c) for c in controls):
        instructions += [Instruction(random_gate(rng), None), *run]
    prog = RomProgram(RomSpace(j, 3, CLASSICAL), tuple(instructions))
    assert (len(cut(prog.instructions)) > 1) == (j > FUSE_BITS)
    folds, record = counting(sim_classical._gather)
    monkeypatch.setattr(sim_classical, "_gather", record)
    vf = extract_function(prog)
    assert_fold_mode_kept(fold_mode, folds, prog)
    edges = [u for u in (0, 1 << FUSE_BITS, 1 << BLOCK_BITS, (1 << j) - 1) if u < 1 << j]
    for u in edges + rng.sample(range(1 << j), 200):
        state = evaluate(prog, u, 0)
        assert [table.bits[u] for table in vf.components] == [state >> b & 1 for b in range(3)]


def test_sweep_folds_long_segments_and_runs_short_ones_gate_by_gate(monkeypatch):
    import romcomp.sim_classical as sim_classical

    # Segments alternate between 40 gates on bits 1-8 and 8 gates, one on
    # each bit from 9 up to j and then on bits below 9.  Only the long ones
    # save more gate passes than their gather costs: in one block of
    # 2^BLOCK_BITS rows by the estimate itself.  Over four blocks a fold pays
    # sooner, so a dearer gather keeps the short ones gate by gate, and each
    # block runs them, some on bits above the block, between two folds.
    folds, record = counting(sim_classical._gather)
    monkeypatch.setattr(sim_classical, "_gather", record)
    for j, gather_passes in [(BLOCK_BITS, sweep_module.GATHER_PASSES), (BLOCK_BITS + 2, 16)]:
        monkeypatch.setattr(sweep_module, "GATHER_PASSES", gather_passes)
        rng = random.Random(3)
        long_bits = range(1, FUSE_BITS + 1)
        short_bits = [*range(FUSE_BITS + 1, j + 1), *range(j - FUSE_BITS + 1, FUSE_BITS + 1)]
        controls = []
        for _ in range(3):
            controls += [*long_bits, *rng.choices(long_bits, k=40 - FUSE_BITS), *short_bits]
        prog = RomProgram(RomSpace(j, 3, CLASSICAL), tuple(
            Instruction(random_gate(rng), c) for c in controls
        ))
        assert [len(run) for run in cut(prog.instructions)] == [40, 8] * 3
        folds.clear()
        vf = extract_function(prog)
        assert len(folds) == 3
        for u in [0, (1 << j) - 1] + rng.sample(range(1 << j), 300):
            state = evaluate(prog, u, 0)
            assert [table.bits[u] for table in vf.components] == [state >> b & 1 for b in range(3)]
