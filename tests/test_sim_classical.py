import random
import weakref
from collections import Counter

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


def cut(instructions, j):
    """``instructions`` split into the runs that ``segments`` cuts in a sweep
    of j ROM bits."""
    instructions = list(instructions)
    controls = [inst.control or 0 for inst in instructions]
    return [instructions[first:stop] for first, stop, _ in segments(controls, j)]


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
    assert permutation_of(prog, 0b11).images[0] == 2  # |0>|1>
    assert permutation_of(prog, 0b01).images[0] == 0
    assert permutation_of(prog, 0b10).images[0] == 0
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
        state = permutation_of(prog, u).images[0]
        assert state & 1 == u1 ^ u3
        assert state >> 1 == u1 ^ (u1 & u2)


def test_evaluate_validates():
    prog = s1_program()
    with pytest.raises(ValueError):
        permutation_of(prog, 4)
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
        state = permutation_of(prog, u).images[0]
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
    assert segments(first + second, 2 * FUSE_BITS) == [
        (0, len(first), list(range(1, FUSE_BITS + 1))),
        (len(first), len(first) + len(second), [2, FUSE_BITS + 1]),
    ]
    assert segments([], 1) == [(0, 0, [])]
    assert segments([0, 0], 1) == [(0, 2, [])]


@pytest.mark.parametrize("j", range(1, 21))
def test_segments_are_half_a_sweep_wider_than_fuse_bits(j):
    # Every bit in turn, three times: a sweep of at most FUSE_BITS bits is
    # one run, and a wider one is cut into runs of ceil(j / 2) bits.
    runs = segments([*range(1, j + 1)] * 3, j)
    if j <= FUSE_BITS:
        assert runs == [(0, 3 * j, list(range(1, j + 1)))]
    else:
        width = -(-j // 2)
        assert [stop - first for first, stop, _ in runs] == [width] * (3 * j // width) + (
            [3 * j % width] if 3 * j % width else [])
        assert all(len(bits) == stop - first for first, stop, bits in runs)


def counting(apply_of):
    """``apply_of`` that records each fold it is given."""
    folds = []

    def record(folded):
        folds.append(folded)
        return apply_of(folded)

    return folds, record


def every_mode_folds(controls, j):
    """The folds that the "every" mode builds in a sweep of j bits over
    ``controls`` with no repeated segment: one per segment that reads fewer
    than j bits, and those its own sweep builds, over its bits renumbered."""
    count = 0
    for first, stop, bits in segments(controls, j):
        if len(bits) < j:
            local = {bit: i + 1 for i, bit in enumerate(bits)}
            count += 1 + every_mode_folds([local.get(c, 0) for c in controls[first:stop]], len(bits))
    return count


def assert_fold_mode_kept(fold_mode, folds, program):
    """The "every" mode folds each segment that reads fewer bits than the
    program's sweep, however few rows the sweep has, and the "never" mode none."""
    if fold_mode == "every":
        controls = [inst.control or 0 for inst in program.instructions]
        assert len(folds) == every_mode_folds(controls, program.space.num_rom_bits)
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
    assert len(folds) == len(cut(program.instructions, 13)) > 1
    distinct = {id(inst.gate) for inst in program.instructions}
    assert len(made) == len({id(gate) for gate in made}) == len(distinct) < len(program)


def random_gate(rng):
    return PermutationGate(Permutation(tuple(rng.sample(range(8), 8))))


def test_unfolded_sweep_runs_each_gate_once_over_all_rows(monkeypatch):
    import numpy as np

    from romcomp.sim_classical import _gather
    from romcomp.sweep import sweep

    # Four blocks of rows and no folds: each instruction is one call of its
    # gate's act over all rows, whether its bit is inside a block or above.
    monkeypatch.setattr(sweep_module, "GATHER_PASSES", float("inf"))
    rng = random.Random(5)
    j = BLOCK_BITS + 2
    gates = [random_gate(rng) for _ in range(3)]
    controls = [None, *range(1, j + 1), None, j, 1]
    prog = RomProgram(RomSpace(j, 3, CLASSICAL), tuple(
        Instruction(gates[at % 3], c) for at, c in enumerate(controls)
    ))
    runs = Counter()

    def act_of(gate):
        images = np.array(gate.perm.images, dtype=np.uint8)

        def act(rows):
            runs[id(gate)] += 1
            return images.take(rows)

        return act

    folds, apply_of = counting(_gather)
    states = sweep(
        prog, np.zeros(1, dtype=np.uint8), act_of, np.arange(8, dtype=np.uint8), apply_of,
    )[:, 0]
    assert not folds
    assert runs == Counter(id(inst.gate) for inst in prog.instructions)
    for u in [0, 1 << BLOCK_BITS, (1 << j) - 1] + rng.sample(range(1 << j), 100):
        assert states[u] == permutation_of(prog, u).images[0]


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
    for run in cut((Instruction(random_gate(rng), c) for c in controls), j):
        instructions += [Instruction(random_gate(rng), None), *run]
    prog = RomProgram(RomSpace(j, 3, CLASSICAL), tuple(instructions))
    assert (len(cut(prog.instructions, j)) > 1) == (j > FUSE_BITS)
    folds, record = counting(sim_classical._gather)
    monkeypatch.setattr(sim_classical, "_gather", record)
    vf = extract_function(prog)
    assert_fold_mode_kept(fold_mode, folds, prog)
    edges = [u for u in (0, 1 << FUSE_BITS, 1 << BLOCK_BITS, (1 << j) - 1) if u < 1 << j]
    for u in edges + rng.sample(range(1 << j), 200):
        state = permutation_of(prog, u).images[0]
        assert [table.bits[u] for table in vf.components] == [state >> b & 1 for b in range(3)]


def test_sweep_folds_long_segments_and_runs_short_ones_gate_by_gate(monkeypatch):
    import romcomp.sim_classical as sim_classical

    # Segments of w = ceil(j / 2) bits alternate between 40 gates on bits
    # 1..w and w gates, one on each bit from w + 1 up to j and then on bits
    # up to w.  Only the long ones save more gate passes than their gather
    # costs: in the one block of 2^(BLOCK_BITS - 1) rows by the estimate
    # itself (at 2^BLOCK_BITS rows a 6-gate segment pays).  Over eight times
    # the rows a fold pays sooner, so a dearer gather keeps the short ones
    # gate by gate, run over all rows, some on bits above the first block,
    # between two folds.
    folds, record = counting(sim_classical._gather)
    monkeypatch.setattr(sim_classical, "_gather", record)
    for j, gather_passes in [(BLOCK_BITS - 1, sweep_module.GATHER_PASSES), (BLOCK_BITS + 2, 16)]:
        monkeypatch.setattr(sweep_module, "GATHER_PASSES", gather_passes)
        rng = random.Random(3)
        width = (j + 1) // 2
        long_bits = range(1, width + 1)
        short_bits = [*range(width + 1, j + 1), *range(j - width + 1, width + 1)]
        controls = []
        for _ in range(3):
            controls += [*long_bits, *rng.choices(long_bits, k=40 - width), *short_bits]
        prog = RomProgram(RomSpace(j, 3, CLASSICAL), tuple(
            Instruction(random_gate(rng), c) for c in controls
        ))
        assert [len(run) for run in cut(prog.instructions, j)] == [40, width] * 3
        folds.clear()
        vf = extract_function(prog)
        assert len(folds) == 3
        for u in [0, (1 << j) - 1] + rng.sample(range(1 << j), 300):
            state = permutation_of(prog, u).images[0]
            assert [table.bits[u] for table in vf.components] == [state >> b & 1 for b in range(3)]


def tracking(apply_of):
    """``apply_of`` that records each fold it is given, and the most of the
    gathers it made that were alive at one time."""
    folds, alive, most = [], weakref.WeakSet(), [0]

    def record(folded):
        folds.append(folded)
        apply = apply_of(folded)

        def tracked(part, rows):
            return apply(part, rows)

        alive.add(tracked)
        most[0] = max(most[0], len(alive))
        return tracked

    return folds, most, record


def segment_program(kind, order):
    """A program at j = 2 * FUSE_BITS whose segments are the gate lists in
    ``order``: the lists at even positions read bits 1..FUSE_BITS in turn,
    and those at odd positions the bits above, so each list is one segment."""
    instructions = [
        Instruction(gate, FUSE_BITS * (at % 2) + bit)
        for at, gates in enumerate(order) for bit, gate in enumerate(gates, start=1)
    ]
    assert len(cut(instructions, 2 * FUSE_BITS)) == len(order)
    space = RomSpace(2 * FUSE_BITS, 1 if kind == "quantum" else 3, kind)
    return RomProgram(space, tuple(instructions))


def random_segment(rng):
    return [random_gate(rng) for _ in range(FUSE_BITS)]


def sweep_states(program, apply_of):
    import numpy as np

    from romcomp.sweep import sweep

    return sweep(
        program, np.zeros(1, dtype=np.uint8),
        lambda gate: np.array(gate.perm.images, dtype=np.uint8).take,
        np.arange(8, dtype=np.uint8), apply_of,
    )[:, 0]


def test_fold_is_shared_only_by_segments_of_the_same_gate_objects(monkeypatch):
    from romcomp.sim_classical import _gather

    for name, value in FOLD_MODES["every"].items():
        monkeypatch.setattr(sweep_module, name, value)
    rng = random.Random(30)
    low, high, other = random_segment(rng), random_segment(rng), random_segment(rng)
    # Equal gates and controls, but new objects: a second fold.
    copies = [PermutationGate(Permutation(gate.perm.images)) for gate in low]
    assert copies == low and all(a is not b for a, b in zip(copies, low))
    prog = segment_program(CLASSICAL, [low, high, other, high, copies, high, low, high])
    folds, apply_of = counting(_gather)
    states = sweep_states(prog, apply_of)
    # Eight segments, four distinct lists of gate objects: low, high, other, copies.
    assert len(folds) == 4
    j = 2 * FUSE_BITS
    for u in [0, (1 << j) - 1] + rng.sample(range(1 << j), 200):
        assert states[u] == permutation_of(prog, u).images[0]


def test_sweep_keeps_at_most_j_folds_and_drops_the_one_used_farthest_ahead(monkeypatch):
    from romcomp.sim_classical import _gather

    for name, value in FOLD_MODES["every"].items():
        monkeypatch.setattr(sweep_module, name, value)
    rng = random.Random(31)
    j = 2 * FUSE_BITS
    # j + 2 distinct segments, played three times in the same order: each is
    # used again only after all the others.
    distinct = [random_segment(rng) for _ in range(j + 2)]
    prog = segment_program(CLASSICAL, distinct * 3)
    folds, most, apply_of = tracking(_gather)
    states = sweep_states(prog, apply_of)
    # At most j kept besides the one just built.  The fold used farthest
    # ahead is dropped, so the first j are built once and the last two once
    # per pass; dropping the one used soonest, or the oldest, builds more.
    assert most[0] <= j + 1
    assert len(folds) == len(distinct) + 4
    for u in [0, (1 << j) - 1] + rng.sample(range(1 << j), 200):
        assert states[u] == permutation_of(prog, u).images[0]


@pytest.mark.parametrize("j", [FUSE_BITS + 1, BLOCK_BITS + 2])
def test_sweep_from_every_start_state_gives_each_whole_permutation(j, fold_mode):
    import numpy as np

    from romcomp.sim_classical import _gather
    from romcomp.sweep import sweep

    # Rows of all eight start states, so each fold gathers rows of eight.
    rng = random.Random(j)
    controls = [None, *range(1, j + 1), *range(1, j + 1), *range(1, j + 1)]
    rng.shuffle(controls)
    prog = RomProgram(RomSpace(j, 3, CLASSICAL), tuple(
        Instruction(random_gate(rng), c) for c in controls
    ))
    states = np.arange(8, dtype=np.uint8)
    folds, apply_of = counting(_gather)
    rows = sweep(
        prog, states, lambda gate: np.array(gate.perm.images, dtype=np.uint8).take,
        states, apply_of,
    )
    assert_fold_mode_kept(fold_mode, folds, prog)
    assert rows.shape == (1 << j, 8)
    for u, images in enumerate(rows.tolist()):
        assert tuple(images) == permutation_of(prog, u).images


def test_every_mode_does_not_fold_a_segment_that_reads_every_bit(monkeypatch):
    from romcomp.sim_classical import _gather

    # At j = FUSE_BITS the one segment reads all the bits: its fold would be
    # the sweep itself, so it is played gate by gate.  Without bit 1, it folds.
    rng = random.Random(8)
    j = FUSE_BITS
    controls = [None, *range(1, j + 1), *range(1, j + 1)]
    rng.shuffle(controls)
    every_bit = RomProgram(RomSpace(j, 3, CLASSICAL), tuple(
        Instruction(random_gate(rng), c) for c in controls
    ))
    no_bit_1 = RomProgram(every_bit.space, tuple(
        inst for inst in every_bit.instructions if inst.control != 1
    ))
    folds, apply_of = counting(_gather)
    for name, value in FOLD_MODES["never"].items():
        monkeypatch.setattr(sweep_module, name, value)
    never = [sweep_states(prog, apply_of).tolist() for prog in (every_bit, no_bit_1)]
    for name, value in FOLD_MODES["every"].items():
        monkeypatch.setattr(sweep_module, name, value)
    assert sweep_states(every_bit, apply_of).tolist() == never[0]
    assert not folds
    assert sweep_states(no_bit_1, apply_of).tolist() == never[1]
    assert len(folds) == 1
