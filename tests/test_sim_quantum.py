import random

import pytest

from romcomp import (
    CLASSICAL,
    QUANTUM,
    DyadicExponent,
    DyadicGate,
    Instruction,
    KindMismatchError,
    NonClassicalOutput,
    RomProgram,
    RomSpace,
    UnitaryGate,
    concat,
    extract_boolean,
    extract_function,
    inverse,
    matrix_of_gate,
    unitary_of,
)
from romcomp.program import MAX_SHARED_DYADIC_GATES, dyadic_gate
from romcomp.sim_quantum import OUTCOME_THRESHOLD, Unitary2, _rotation_matrix
import romcomp.sweep as sweep_module
from romcomp.sweep import BLOCK_BITS, FUSE_BITS, segments

from test_sim_classical import (  # noqa: F401 (a fixture)
    FOLD_MODES, assert_fold_mode_kept, counting, cut, fold_mode, segment_program, tracking,
)

HALF = DyadicExponent(1, 1)
ONE = DyadicExponent(1)

I2 = Unitary2.identity()
X_MAT = Unitary2(0, 1, 1, 0)
Z_MAT = Unitary2(1, 0, 0, -1)


def rot(axis, exponent, control=None):
    return Instruction(DyadicGate(axis, exponent), control)


def two_control_flip_program(i=1, j=2, width=2):
    """Time-ordered transcription of the four-gate two-control bit flip."""
    space = RomSpace(width, 1, QUANTUM)
    return RomProgram(
        space,
        (rot("Z", ONE, j), rot("X", HALF, i), rot("Z", ONE, j), rot("X", -HALF, i)),
    )


def two_control_phase_flip_program(k=1, j=2, width=2):
    """Time-ordered transcription of the four-gate two-control phase flip."""
    space = RomSpace(width, 1, QUANTUM)
    return RomProgram(
        space,
        (rot("X", ONE, j), rot("Z", HALF, k), rot("X", ONE, j), rot("Z", -HALF, k)),
    )


def three_control_flip_program():
    """Three-control bit flip: the phase-flip block substituted for each Z."""
    inner = two_control_phase_flip_program(k=2, j=3, width=3).instructions
    head = rot("X", HALF, 1)
    tail = rot("X", -HALF, 1)
    return RomProgram(RomSpace(3, 1, QUANTUM), inner + (head,) + inner + (tail,))


def phase_free_distance(u, v):
    """Max entry distance after cancelling a global phase between u and v."""
    pairs = [(u.a, v.a), (u.b, v.b), (u.c, v.c), (u.d, v.d)]
    ref = max(pairs, key=lambda p: abs(p[1]))
    assert abs(ref[1]) > 1e-6
    phase = ref[0] / ref[1]
    return u.max_entry_distance(v.scaled(phase)), abs(abs(phase) - 1)


def test_gate_matrix_pauli_and_roots():
    assert matrix_of_gate(DyadicGate("Z", ONE)).max_entry_distance(Z_MAT) < 1e-15
    assert matrix_of_gate(DyadicGate("X", ONE)).max_entry_distance(X_MAT) < 1e-15
    x_half = Unitary2(0.5 + 0.5j, 0.5 - 0.5j, 0.5 - 0.5j, 0.5 + 0.5j)
    assert matrix_of_gate(DyadicGate("X", HALF)).max_entry_distance(x_half) < 1e-15
    assert matrix_of_gate(DyadicGate("X", -HALF)).max_entry_distance(x_half.adjoint()) < 1e-15
    assert matrix_of_gate(DyadicGate("Z", HALF)).max_entry_distance(Unitary2(1, 0, 0, 1j)) < 1e-15
    z_neg_half = matrix_of_gate(DyadicGate("Z", -HALF))
    assert z_neg_half.max_entry_distance(Unitary2(1, 0, 0, -1j)) < 1e-15


def test_gate_matrix_inverse_pairs():
    rng = random.Random(5)
    for _ in range(50):
        t = DyadicExponent(rng.randrange(-8, 9), 2)
        for axis in "XZ":
            prod = matrix_of_gate(DyadicGate(axis, t)) @ matrix_of_gate(DyadicGate(axis, -t))
            assert prod.max_entry_distance(I2) < 1e-12


def test_gate_matrix_exponent_additivity():
    rng = random.Random(6)
    for _ in range(50):
        t1 = DyadicExponent(rng.randrange(-4, 5), 2)
        t2 = DyadicExponent(rng.randrange(-4, 5), 2)
        for axis in "XZ":
            lhs = matrix_of_gate(DyadicGate(axis, t1)) @ matrix_of_gate(DyadicGate(axis, t2))
            assert lhs.max_entry_distance(matrix_of_gate(DyadicGate(axis, t1 + t2))) < 1e-12


def test_two_control_flip_unitaries():
    prog = two_control_flip_program()
    ix = X_MAT.scaled(1j)
    assert unitary_of(prog, 0b11).max_entry_distance(ix) < 1e-12
    assert unitary_of(prog, 0b01).max_entry_distance(I2) < 1e-12
    assert unitary_of(prog, 0b10).max_entry_distance(I2) < 1e-12
    assert unitary_of(prog, 0b00).max_entry_distance(I2) < 1e-12


def test_two_control_phase_flip_unitaries():
    prog = two_control_phase_flip_program()
    iz = Z_MAT.scaled(1j)
    assert unitary_of(prog, 0b11).max_entry_distance(iz) < 1e-12
    for u in (0b00, 0b01, 0b10):
        assert unitary_of(prog, u).max_entry_distance(I2) < 1e-12


def test_three_control_flip_is_projectively_controlled_x():
    prog = three_control_flip_program()
    for u in range(8):
        want = X_MAT if u == 0b111 else I2
        distance, phase_defect = phase_free_distance(unitary_of(prog, u), want)
        assert distance < 1e-12
        assert phase_defect < 1e-12
    table = extract_boolean(prog)
    assert table.bits == tuple(1 if u == 7 else 0 for u in range(8))


def test_extract_boolean_of_two_control_flip():
    assert extract_boolean(two_control_flip_program()).bits == (0, 0, 0, 1)


def test_extract_boolean_empty_program():
    assert extract_boolean(RomProgram(RomSpace(2, 1, QUANTUM))).bits == (0,) * 4


def test_extract_boolean_rejects_superposition():
    prog = RomProgram(RomSpace(1, 1, QUANTUM), (rot("X", HALF),))
    with pytest.raises(NonClassicalOutput) as info:
        extract_boolean(prog)
    assert info.value.assignment == 0


def test_block_sweep_reports_first_superposition_above_the_block():
    j = BLOCK_BITS + 2
    prog = RomProgram(RomSpace(j, 1, QUANTUM), (rot("X", HALF, j),))
    with pytest.raises(NonClassicalOutput) as info:
        extract_boolean(prog)
    assert info.value.assignment == 1 << (j - 1)


def test_unitary_of_respects_concat():
    rng = random.Random(9)
    space = RomSpace(2, 1, QUANTUM)

    def rand_prog():
        return RomProgram(
            space,
            tuple(
                rot(rng.choice("XZ"), DyadicExponent(rng.choice([-1, 1]), rng.randrange(3)),
                    rng.choice([None, 1, 2]))
                for _ in range(4)
            ),
        )

    for _ in range(10):
        a, b = rand_prog(), rand_prog()
        for u in range(4):
            lhs = unitary_of(concat(a, b), u)
            rhs = unitary_of(b, u) @ unitary_of(a, u)
            assert lhs.max_entry_distance(rhs) < 1e-12


def test_long_product_stays_unitary():
    rng = random.Random(10)
    u = Unitary2.identity()
    for _ in range(100_000):
        axis = rng.choice("XZ")
        t = DyadicExponent(rng.randrange(-8, 9), 3)
        u = matrix_of_gate(DyadicGate(axis, t)) @ u
    assert u.unitarity_residual() < 1e-9


def test_raw_unitary_gates_simulate():
    had = UnitaryGate((2 ** -0.5 + 0j,) * 3 + (-(2 ** -0.5) + 0j,))
    prog = RomProgram(RomSpace(1, 1, QUANTUM), (Instruction(had, 1), Instruction(had, 1)))
    assert unitary_of(prog, 1).max_entry_distance(I2) < 1e-12
    assert extract_boolean(prog).bits == (0, 0)


def test_kind_mismatch():
    classical = RomProgram(RomSpace(1, 2, "classical"))
    with pytest.raises(KindMismatchError):
        unitary_of(classical, 0)
    with pytest.raises(KindMismatchError):
        extract_boolean(classical)


def test_extract_boolean_builds_one_action_per_shared_gate(monkeypatch):
    import romcomp.sim_quantum as sim_quantum

    rotated = []
    real_rotate = sim_quantum._rotate

    def counting_rotate(gate):
        rotated.append(gate)
        return real_rotate(gate)

    monkeypatch.setattr(sim_quantum, "_rotate", counting_rotate)
    half = DyadicGate("X", DyadicExponent(1, 1))
    program = RomProgram(RomSpace(2, 1, QUANTUM), tuple(
        Instruction(half, control) for control in (1, 2, 1, 2)
    ))
    # X^(1/2) four times under u1 or u2: X when exactly one of them is set.
    assert extract_boolean(program).bits == (0, 1, 1, 0)
    assert len(rotated) == 1


def test_fused_sweep_builds_one_action_per_shared_gate(monkeypatch):
    import romcomp.sim_quantum as sim_quantum
    from romcomp import and_fast

    rotated = []
    real_rotate = sim_quantum._rotate

    def counting_rotate(gate):
        rotated.append(gate)
        return real_rotate(gate)

    monkeypatch.setattr(sim_quantum, "_rotate", counting_rotate)
    folds, record = counting(sim_quantum._combine)
    monkeypatch.setattr(sim_quantum, "_combine", record)
    program = and_fast(list(range(1, 14)), 13)
    assert extract_boolean(program).bits == (0,) * ((1 << 13) - 1) + (1,)
    # Four segments, each worth a fold; the fourth has the second's steps.
    assert len(cut(program.instructions, 13)) == 4
    assert len(folds) == 3
    distinct = {id(inst.gate) for inst in program.instructions}
    assert len(rotated) == len({id(gate) for gate in rotated}) == len(distinct) < len(program)


def random_classical_output_program(rng, j, controls=None):
    """``controls``, by default every bit three times, shuffled, popped from
    the end over gates that keep |0> on a basis state: phases Z^t, X, and
    X^(+-1/2) . P . X^(-+1/2) where P is a run of Paulis, so superpositions
    open and close across segments.  An uncontrolled X^(1/2) . X^(-1/2) pair
    sits at every segment boundary."""
    if controls is None:
        controls = [*range(1, j + 1)] * 3
        rng.shuffle(controls)
    controls = list(controls)
    body = []
    while controls:
        if rng.random() < 0.3:
            half, control = rng.choice([HALF, -HALF]), controls.pop()
            paulis = [rot(rng.choice("XZ"), ONE, c) for c in controls[-rng.randint(1, 4):]]
            del controls[-len(paulis):]
            body += [rot("X", half, control), *paulis, rot("X", -half, control)]
        elif rng.random() < 0.5:
            body.append(rot("X", ONE, controls.pop()))
        else:
            t = DyadicExponent(rng.choice([-1, 1]), rng.randrange(4))
            body.append(rot("Z", t, controls.pop()))
    instructions = []
    for run in cut(body, j):
        instructions += [*run, rot("X", HALF), rot("X", -HALF)]
    return RomProgram(RomSpace(j, 1, QUANTUM), tuple(instructions))


@pytest.mark.parametrize("j", [FUSE_BITS, FUSE_BITS + 1, FUSE_BITS + 2, BLOCK_BITS + 2])
@pytest.mark.parametrize("seed", range(2))
def test_fused_sweep_matches_unitary_of(j, seed, fold_mode):
    import numpy as np

    from romcomp.sim_quantum import _combine, _rotate
    from romcomp.sweep import sweep

    rng = random.Random(seed)
    prog = random_classical_output_program(rng, j)
    assert (len(cut(prog.instructions, j)) > 1) == (j > FUSE_BITS)
    folds, record = counting(_combine)
    amps = sweep(
        prog, np.array([1, 0], dtype=complex), _rotate, np.eye(2, dtype=complex), record,
    )
    assert_fold_mode_kept(fold_mode, folds, prog)
    table = extract_boolean(prog)
    edges = [u for u in (0, 1 << FUSE_BITS, 1 << BLOCK_BITS, (1 << j) - 1) if u < 1 << j]
    for u in edges + rng.sample(range(1 << j), 200):
        want = unitary_of(prog, u).apply(1, 0)
        assert abs(amps[u] - want).max() < 1e-9
        p1 = abs(want[1]) ** 2
        assert p1 < OUTCOME_THRESHOLD or p1 > 1 - OUTCOME_THRESHOLD
        assert table.bits[u] == int(p1 > 1 - OUTCOME_THRESHOLD)


def test_sweep_folds_every_segment_of_a_long_program(monkeypatch):
    import numpy as np

    import romcomp.sim_quantum as sim_quantum
    import romcomp.sweep as sweep_module

    # About 1,000 segments on 7 of 13 ROM bits each, inside and above the
    # block: with every segment worth a fold, each is folded and applied in
    # turn, however many folds the whole program makes (8 KB each here).
    for name, value in FOLD_MODES["every"].items():
        monkeypatch.setattr(sweep_module, name, value)
    rng = random.Random(24)
    j = BLOCK_BITS + 1
    gates = [DyadicGate(axis, DyadicExponent(num, 2)) for axis in "XZ" for num in (-1, 1, 3)]
    width = (j + 1) // 2
    controls = []
    for _ in range(1200):
        controls += rng.sample(range(1, j + 1), width)
    prog = RomProgram(RomSpace(j, 1, QUANTUM), tuple(
        Instruction(rng.choice(gates), c) for c in controls
    ))
    runs = segments(controls, j)
    assert len(runs) > 800
    assert all(len(bits) == width for _, _, bits in runs[:-1])
    folds, record = counting(sim_quantum._combine)
    amps = sweep_module.sweep(
        prog, np.array([1, 0], dtype=complex), sim_quantum._rotate, np.eye(2, dtype=complex),
        record,
    )
    assert len(folds) == len(runs)
    edges = [0, (1 << BLOCK_BITS) - 1, 1 << BLOCK_BITS, (1 << j) - 1]
    for u in edges + rng.sample(range(1 << j), 40):
        want = unitary_of(prog, u).apply(1, 0)
        assert abs(amps[u] - want).max() < 1e-9


def test_fused_sweep_reports_first_superposition_of_a_later_segment_above_the_block(fold_mode):
    # X^(1/2) . S . X^(-1/2) leaves |0> in superposition exactly when the top
    # bit and u1 are set; it comes after a segment's worth of Z phases.
    j = BLOCK_BITS + 2
    s_gate = DyadicExponent(1, 1)
    prog = RomProgram(RomSpace(j, 1, QUANTUM), (
        *(rot("Z", s_gate, c) for c in range(1, j)),
        rot("X", HALF, j), rot("Z", s_gate, 1), rot("X", -HALF, j),
        *(rot("Z", s_gate, c) for c in range(2, j)),
    ))
    runs = cut(prog.instructions, j)
    assert len(runs) > 1 and prog.instructions[j - 1] not in runs[0]
    with pytest.raises(NonClassicalOutput) as info:
        extract_boolean(prog)
    first = 1 << (j - 1) | 1
    assert info.value.assignment == first
    want = unitary_of(prog, first).apply(1, 0)
    assert max(abs(got - w) for got, w in zip(info.value.amplitudes, want)) < 1e-9
    for u in (1 << (j - 1), 1, first - 2):
        p1 = abs(unitary_of(prog, u).apply(1, 0)[1]) ** 2
        assert p1 < OUTCOME_THRESHOLD or p1 > 1 - OUTCOME_THRESHOLD


def test_rotation_matrix_cache_is_bounded():
    # Loaded exponents come from outside the program: after a sweep of 6,000
    # distinct rotations, at most as many matrices stay as dyadic_gate's gates.
    gates = [Instruction(dyadic_gate("Z", k, 13), 1) for k in range(1, 12000, 2)]
    assert extract_boolean(RomProgram(RomSpace(1, 1, QUANTUM), tuple(gates))).bits == (0, 0)
    assert _rotation_matrix.cache_info().currsize <= MAX_SHARED_DYADIC_GATES


def test_raw_matrix_program_times_its_inverse_is_the_identity():
    # S and a rotation with complex off-diagonal entries: neither is its own
    # inverse, so the program alone is not the identity.
    c, s = 0.6, 0.8
    rotation = UnitaryGate((c + 0j, -s * 1j, -s * 1j, c + 0j))
    phase = UnitaryGate((1 + 0j, 0j, 0j, 1j))
    program = RomProgram(RomSpace(2, 1, QUANTUM), (
        Instruction(phase, 1), Instruction(rotation, 2), Instruction(rotation, None)))
    round_trip = concat(program, inverse(program))
    for u in range(4):
        assert unitary_of(program, u).max_entry_distance(Unitary2.identity()) > 0.1
        assert unitary_of(round_trip, u).max_entry_distance(Unitary2.identity()) < 1e-12


# Dyadic X and Z at exponents +-1, +-1/2 and +-1/32, then raw gates: the
# diagonal S, a diagonal with a phase on |0>, an X rotation with imaginary
# off-diagonal entries, H, and a real rotation, which is not symmetric.
R = 2 ** -0.5
KERNEL_GATES = [
    *(DyadicGate(axis, DyadicExponent(sign, k))
      for axis in "XZ" for sign in (1, -1) for k in (0, 1, 5)),
    UnitaryGate((1 + 0j, 0j, 0j, 1j)),
    UnitaryGate((1j, 0j, 0j, 1 + 0j)),
    UnitaryGate((0.6 + 0j, -0.8j, -0.8j, 0.6 + 0j)),
    UnitaryGate((R + 0j, R + 0j, R + 0j, -R + 0j)),
    UnitaryGate((R + 0j, -R + 0j, R + 0j, R + 0j)),
]


@pytest.mark.parametrize("gate", KERNEL_GATES, ids=range(len(KERNEL_GATES)))
@pytest.mark.parametrize("trailing", [(2,), (2, 2)], ids=["rows", "fold"])
def test_rotate_maps_each_bit_view_to_its_matrix_product(gate, trailing):
    import numpy as np

    from romcomp.sim_quantum import _rotate, matrix_of_gate
    from romcomp.sweep import _play, _views

    # The sweep's rows, or a fold's rows of 2x2 tables, with random
    # amplitudes; the gate acts as _play runs it, on the rows where u_c = 1.
    j = 5
    rng = np.random.default_rng(30)
    rows = rng.normal(size=(1 << j, *trailing)) + 1j * rng.normal(size=(1 << j, *trailing))
    m = matrix_of_gate(gate)
    mat_t = np.array([[m.a, m.c], [m.b, m.d]])
    act = _rotate(gate)
    for control in range(j + 1):
        before = rows.copy()
        _play(_views(rows, j), [(control, act)])
        on = (np.arange(1 << j) >> (control - 1) & 1 == 1) if control else np.ones(1 << j, bool)
        assert abs(rows[on] - before[on] @ mat_t).max() < 1e-12
        assert (rows[~on] == before[~on]).all()


def test_and_naive_folds_each_repeated_segment_once(monkeypatch):
    import romcomp.sim_quantum as sim_quantum
    from romcomp import and_naive

    # 63 segments are folded, of 11 distinct runs of steps.
    program = and_naive(list(range(1, 12)), 11)
    folds, record = counting(sim_quantum._combine)
    monkeypatch.setattr(sim_quantum, "_combine", record)
    table = extract_boolean(program)
    assert len(folds) == 11
    assert table.bits == (0,) * ((1 << 11) - 1) + (1,)
    for name, value in FOLD_MODES["never"].items():
        monkeypatch.setattr(sweep_module, name, value)
    assert extract_boolean(program) == table
    assert len(folds) == 11
    rng = random.Random(30)
    for u in [0, (1 << 10) - 1, (1 << 11) - 1] + rng.sample(range(1 << 11), 20):
        p1 = abs(unitary_of(program, u).apply(1, 0)[1]) ** 2
        assert table.bits[u] == int(p1 > 1 - OUTCOME_THRESHOLD)


def random_rotation(rng):
    return DyadicGate(rng.choice("XZ"), DyadicExponent(rng.choice([-1, 1]), rng.randrange(4)))


def sweep_amplitudes(program, apply_of):
    import numpy as np

    from romcomp.sim_quantum import _rotate

    return sweep_module.sweep(
        program, np.array([1, 0], dtype=complex), _rotate, np.eye(2, dtype=complex), apply_of,
    )


def assert_amplitudes_match_unitary_of(prog, amps, rng):
    j = prog.space.num_rom_bits
    for u in [0, (1 << j) - 1] + rng.sample(range(1 << j), 40):
        want = unitary_of(prog, u).apply(1, 0)
        assert abs(amps[u] - want).max() < 1e-9


def test_qubit_fold_is_shared_only_by_segments_of_the_same_gate_objects(monkeypatch):
    from romcomp.sim_quantum import _combine

    for name, value in FOLD_MODES["every"].items():
        monkeypatch.setattr(sweep_module, name, value)
    rng = random.Random(32)
    low, high, other = ([random_rotation(rng) for _ in range(FUSE_BITS)] for _ in range(3))
    # Equal gates and controls, but new objects: a second fold.
    copies = [DyadicGate(gate.axis, gate.exponent) for gate in low]
    assert copies == low and all(a is not b for a, b in zip(copies, low))
    prog = segment_program(QUANTUM, [low, high, other, high, copies, high, low, high])
    folds, apply_of = counting(_combine)
    amps = sweep_amplitudes(prog, apply_of)
    # Eight segments, four distinct lists of gate objects: low, high, other, copies.
    assert len(folds) == 4
    assert_amplitudes_match_unitary_of(prog, amps, rng)


def test_qubit_sweep_keeps_at_most_j_folds(monkeypatch):
    from romcomp.sim_quantum import _combine

    for name, value in FOLD_MODES["every"].items():
        monkeypatch.setattr(sweep_module, name, value)
    rng = random.Random(33)
    j = 2 * FUSE_BITS
    # j + 2 distinct segments, played three times in the same order: each is
    # used again only after all the others.
    distinct = [[random_rotation(rng) for _ in range(FUSE_BITS)] for _ in range(j + 2)]
    prog = segment_program(QUANTUM, distinct * 3)
    folds, most, apply_of = tracking(_combine)
    amps = sweep_amplitudes(prog, apply_of)
    # At most j kept besides the one just built.  The fold used farthest
    # ahead is dropped, so the first j are built once and the last two once
    # per pass; dropping the one used soonest, or the oldest, builds more.
    assert most[0] <= j + 1
    assert len(folds) == len(distinct) + 4
    assert_amplitudes_match_unitary_of(prog, amps, rng)


@pytest.mark.parametrize("j", [FUSE_BITS + 2, BLOCK_BITS + 2])
def test_qubit_sweep_from_the_identity_gives_each_whole_unitary(j, fold_mode):
    import numpy as np

    from romcomp.sim_quantum import _combine, _rotate

    # Rows of both basis states, so each fold gathers 2x2 rows: row u holds
    # the columns of assignment u's unitary.
    rng = random.Random(j)
    controls = [None, *range(1, j + 1), *range(1, j + 1), *range(1, j + 1)]
    rng.shuffle(controls)
    prog = RomProgram(RomSpace(j, 1, QUANTUM), tuple(
        Instruction(random_rotation(rng), c) for c in controls
    ))
    identity = np.eye(2, dtype=complex)
    folds, apply_of = counting(_combine)
    rows = sweep_module.sweep(prog, identity, _rotate, identity, apply_of)
    assert_fold_mode_kept(fold_mode, folds, prog)
    assert rows.shape == (1 << j, 2, 2)
    want = np.array([
        [[m.a, m.c], [m.b, m.d]] for m in (unitary_of(prog, u) for u in range(1 << j))
    ])
    assert abs(rows - want).max() < 1e-12


def windowed_controls(rng, j, count):
    """``count`` controls in runs of 30, each run drawn from a window of 9 to
    12 consecutive bits of j."""
    controls = []
    while len(controls) < count:
        size = rng.randint(9, 12)
        low = rng.randint(1, j - size + 1)
        controls += rng.choices(range(low, low + size), k=30)
    return controls[:count]


@pytest.mark.parametrize("kind", [QUANTUM, CLASSICAL])
def test_folds_fold_inside_their_own_sweeps_past_16_bits(kind, monkeypatch):
    import numpy as np

    from romcomp.sim_classical import _gather
    from romcomp.sim_quantum import _combine
    from test_sim_classical import every_mode_folds, random_gate, sweep_states

    # At j = 18 segments read 9 bits, so each fold's own sweep of 9 bits cuts
    # 5-bit segments, which the "every" mode folds in turn.
    j = 18
    rng = random.Random(18)
    if kind == QUANTUM:
        prog = random_classical_output_program(rng, j, windowed_controls(rng, j, 300))
        sweep_rows, apply_of, extract = sweep_amplitudes, _combine, extract_boolean
    else:
        prog = RomProgram(RomSpace(j, 3, CLASSICAL), tuple(
            Instruction(random_gate(rng), c) for c in windowed_controls(rng, j, 400)
        ))
        sweep_rows, apply_of, extract = sweep_states, _gather, extract_function
    assert 350 <= len(prog) <= 450
    rows, readouts, built, reads = {}, {}, [], []

    def record(table):
        built.append(len(table))
        apply = apply_of(table)

        def tracked(part, block):
            # The block's part is a view of the table, so its end is the last row read.
            assert np.shares_memory(part, table)
            end = part.__array_interface__["data"][0] + part.nbytes
            end -= table.__array_interface__["data"][0]
            reads.append((len(table), end // table[0].nbytes - 1))
            return apply(part, block)

        return tracked

    controls = [inst.control or 0 for inst in prog.instructions]
    for mode in ("never", "every"):
        for name, value in FOLD_MODES[mode].items():
            monkeypatch.setattr(sweep_module, name, value)
        built.clear()
        rows[mode] = sweep_rows(prog, record)
        readouts[mode] = extract(prog)
    # Each segment is folded, and so is each segment of a fold's own sweep:
    # 9-bit folds and 5-bit folds inside them, and nothing deeper.
    assert len(built) == every_mode_folds(controls, j) > len(segments(controls, j))
    assert {1 << 9, 1 << 5} <= set(built) and max(built) == 1 << 9
    # A 9-bit fold's table is read past row 255.
    assert max(last for table, last in reads if table == 1 << 9) > 255
    assert readouts["never"] == readouts["every"]
    if kind == QUANTUM:
        assert abs(rows["never"] - rows["every"]).max() < 1e-12
    else:
        assert np.array_equal(rows["never"], rows["every"])


# Exact qubit gates, entries 0, +-1 and +-i, so every fold's arithmetic is exact.
EXACT_GATES = [
    UnitaryGate(entries) for entries in [
        (0j, 1 + 0j, 1 + 0j, 0j), (1 + 0j, 0j, 0j, -1 + 0j), (0j, -1j, 1j, 0j),
        (1 + 0j, 0j, 0j, 1j), (0j, 1j, 1j, 0j),
    ]
]

# At j = BLOCK_BITS + 2 segments read 7 bits.  Inside the 12-bit block the
# sets alternate read and unread runs: the third is one run at the bottom, the
# second ends in one at the top, and all but those two read bits above it.
RUN_BITS = [
    [1, 3, 4, 7, 9, 13, 14], [2, 5, 6, 8, 10, 11, 12], [1, 2, 3, 4, 5, 6, 7],
    [6, 8, 10, 11, 12, 13, 14], [1, 3, 5, 7, 9, 11, 13], [2, 4, 6, 8, 10, 12, 14],
]


@pytest.mark.parametrize("kind", [QUANTUM, CLASSICAL])
def test_folds_broadcast_over_runs_of_read_and_unread_bits(kind, fold_mode, monkeypatch):
    import numpy as np

    from romcomp.sim_classical import _gather
    from romcomp.sim_quantum import _combine
    from test_sim_classical import random_gate, sweep_states

    j = BLOCK_BITS + 2
    rng = random.Random(14)
    controls = []
    for before, bits in zip([[]] + RUN_BITS, RUN_BITS):
        # Open with a bit the set before does not read, so the cut falls here.
        first = sorted(bits, key=lambda bit: bit in before)
        controls += first + rng.choices(bits, k=40 - len(bits))
    assert [bits for _, _, bits in segments(controls, j)] == RUN_BITS
    if kind == QUANTUM:
        gates, apply_of, sweep_rows = EXACT_GATES, _combine, sweep_amplitudes
    else:
        gates = [random_gate(rng) for _ in range(5)]
        apply_of, sweep_rows = _gather, sweep_states
    prog = RomProgram(RomSpace(j, 1 if kind == QUANTUM else 3, kind), tuple(
        Instruction(rng.choice(gates), c) for c in controls
    ))
    folds, blocks = [], []

    def record(table):
        folds.append(table)
        apply = apply_of(table)

        def tracked(part, block):
            blocks.append(block)
            return apply(part, block)

        return tracked

    rows = sweep_rows(prog, record)
    # Each block's run view is a view of the rows: a copy would drop the write.
    assert all(np.shares_memory(block, rows) for block in blocks)
    assert len(blocks) == len(folds) << (j - BLOCK_BITS)
    if fold_mode != "never":
        assert len(folds) == len(RUN_BITS)
    for name, value in FOLD_MODES["never"].items():
        monkeypatch.setattr(sweep_module, name, value)
    never = sweep_rows(prog, record)
    # Exact: the qubit's amplitudes are 0, +-1 and +-i, and only the sign of a
    # zero may differ between a fold's sums and the never mode's in-place phases.
    assert rows.dtype == never.dtype and np.array_equal(rows, never)
