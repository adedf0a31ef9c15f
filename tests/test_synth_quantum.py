import gc
import random

import pytest

from romcomp import (
    AXIS_X,
    AXIS_Z,
    AndNode,
    Anf,
    DyadicExponent,
    DyadicGate,
    InputNode,
    NotNode,
    OrNode,
    Permutation,
    TruthTable,
    XorNode,
    and_fast,
    and_naive,
    and_sequence,
    anf_of,
    barrington,
    circuit_to_qubit,
    circuit_to_three_bit,
    compile_function,
    compile_pair,
    eval_circuit,
    extract_boolean,
    matrix_of_gate,
    parse_circuit,
    rom_call_count,
    truth_table_of,
    unitary_of,
)
from romcomp.program import MAX_ROM_CALLS
from romcomp.synth_classical import AND_SHAPES, anf_to_circuit, balanced_and_circuit, branching_length
from romcomp.synth_quantum import _split

from test_sim_quantum import I2, X_MAT, phase_free_distance, two_control_flip_program
from test_synth_classical import check_one_fixup_per_step, random_circuit, twenty_products_of_twenty


def and_table(controls, num_rom_bits):
    mask = 0
    for c in controls:
        mask |= 1 << (c - 1)
    return TruthTable(
        num_rom_bits,
        tuple(1 if u & mask == mask else 0 for u in range(1 << num_rom_bits)),
    )


def test_naive_base_case():
    prog = and_naive([1], 1)
    assert rom_call_count(prog) == 1
    assert extract_boolean(prog).bits == (0, 1)


def test_naive_two_controls_matches_reference_sequence():
    assert and_naive([1, 2], 2) == two_control_flip_program()
    assert rom_call_count(and_naive([1, 2], 2)) == 4


def test_naive_three_controls():
    prog = and_naive([1, 2, 3], 3)
    assert rom_call_count(prog) == 10
    assert extract_boolean(prog) == and_table([1, 2, 3], 3)


@pytest.mark.parametrize("m", range(1, 13))
def test_naive_counts_and_tables(m):
    prog = and_naive(list(range(1, m + 1)), m)
    assert rom_call_count(prog) == 3 * 2 ** (m - 1) - 2
    assert extract_boolean(prog) == and_table(list(range(1, m + 1)), m)


def test_control_validation():
    with pytest.raises(ValueError):
        and_naive([], 2)
    with pytest.raises(ValueError):
        and_naive([1, 1], 2)
    with pytest.raises(ValueError):
        and_fast([3], 2)


def test_naive_and_past_the_bound_is_refused_before_building():
    wide = list(range(1, 22))
    with pytest.raises(ValueError, match="21 ROM bits"):
        and_naive(wide, 21)
    with pytest.raises(ValueError, match="21 ROM bits"):
        compile_function(Anf(21, frozenset({(1 << 21) - 1})), 21, "naive")
    assert rom_call_count(and_fast(wide, 21)) == rom_call_count(
        compile_function(Anf(21, frozenset({(1 << 21) - 1})), 21)
    ) > 0


def test_fast_two_controls():
    prog = and_fast([1, 2], 2)
    assert rom_call_count(prog) == 4
    assert extract_boolean(prog) == and_table([1, 2], 2)


def test_fast_four_controls():
    prog = and_fast([1, 2, 3, 4], 4)
    assert rom_call_count(prog) == 16
    assert len(prog) == 16
    assert extract_boolean(prog) == and_table([1, 2, 3, 4], 4)


def test_fast_eight_controls():
    prog = and_fast(list(range(1, 9)), 8)
    assert len(prog) == 64
    assert rom_call_count(prog) == 64
    assert extract_boolean(prog) == and_table(list(range(1, 9)), 8)


@pytest.mark.parametrize("m", range(1, 65))
def test_fast_is_the_unpadded_balanced_tree(m):
    # One controlled rotation per leaf and nothing uncontrolled: each step's
    # fixup folds into the next, so gates == ROM calls == branching_length.
    prog = and_fast(list(range(1, m + 1)), m)
    calls = rom_call_count(prog)
    assert len(prog) == calls == branching_length(balanced_and_circuit(m))
    assert calls == AND_SHAPES["balanced"][1](m)
    if m <= 9:
        assert calls == [1, 4, 10, 16, 28, 40, 52, 64, 88][m - 1]


def test_fast_on_scattered_controls():
    prog = and_fast([2, 5, 3], 6)
    assert extract_boolean(prog) == and_table([2, 5, 3], 6)


@pytest.mark.parametrize("m", range(1, 11))
def test_fast_and_naive_agree(m):
    controls = list(range(1, m + 1))
    fast = extract_boolean(and_fast(controls, m))
    if m <= 8:
        assert fast == extract_boolean(and_naive(controls, m))
    assert fast == and_table(controls, m)


def test_fast_quadratic_growth():
    for m in range(1, 33):
        prog = and_fast(list(range(1, m + 1)), m)
        assert rom_call_count(prog) <= 4 * m * m


def test_fast_exponents_stay_dyadic():
    prog = and_fast(list(range(1, 17)), 16)
    for inst in prog.instructions:
        assert isinstance(inst.gate, DyadicGate)
        assert inst.gate.exponent.log2den <= 4


def test_compile_empty_function():
    prog = compile_function(Anf(2, frozenset()), 2)
    assert len(prog) == 0
    assert extract_boolean(prog).bits == (0,) * 4


def test_compile_constant_one():
    prog = compile_function(Anf(2, frozenset({0})), 2)
    assert rom_call_count(prog) == 0
    assert extract_boolean(prog).bits == (1,) * 4


def test_compile_worked_example():
    anf = Anf(2, frozenset({0b01, 0b11}))
    for method in ("fast", "naive"):
        prog = compile_function(anf, 2, method=method)
        assert extract_boolean(prog) == truth_table_of(anf)


def test_compile_all_three_var_functions():
    for packed in range(256):
        table = TruthTable.from_int(3, packed)
        prog = compile_function(anf_of(table), 3)
        assert extract_boolean(prog) == table


def test_monomial_order_independence():
    from romcomp import RomProgram

    rng = random.Random(21)
    anf = Anf(3, frozenset({0b001, 0b110, 0b111, 0b000}))
    base = compile_function(anf, 3)
    reference = extract_boolean(base)
    masks = sorted(anf.monomials)
    for _ in range(5):
        rng.shuffle(masks)
        instructions = []
        for mask in masks:
            if mask == 0:
                instructions.extend(compile_function(Anf(3, frozenset({0})), 3).instructions)
            else:
                vars_ = [v + 1 for v in range(3) if mask >> v & 1]
                instructions.extend(and_fast(vars_, 3).instructions)
        shuffled = RomProgram(base.space, tuple(instructions))
        assert extract_boolean(shuffled) == reference


def test_compile_arity_mismatch():
    with pytest.raises(ValueError):
        compile_function(Anf(2, frozenset()), 3)
    with pytest.raises(ValueError):
        compile_function(Anf(2, frozenset()), 2, method="slow")


def test_compile_function_is_bounded_by_its_summed_rom_calls():
    with pytest.raises(ValueError, match="31457240 ROM calls"):
        compile_function(twenty_products_of_twenty(), 21, "naive")
    # A balanced AND of 600 controls costs 512 * (1800 - 1024) = 397,312
    # calls: five of them fit the budget, six are past it.
    products = [sum(1 << v for v in range(start, start + 600)) for start in range(0, 424, 84)]
    assert len(products) == 6
    with pytest.raises(ValueError, match="2383872 ROM calls"):
        compile_function(Anf(1024, frozenset(products)), 1024)


def test_fast_and_is_bounded_before_building():
    # 1366 controls cost 1024 * (4098 - 2048) calls: the budget refuses them
    # before the program is built.  1365 cost 1024 * (4095 - 2048) and fit.
    with pytest.raises(ValueError, match="2099200 ROM calls"):
        and_fast(list(range(1, 1367)), 1366)
    assert AND_SHAPES["balanced"][1](1365) == 2_096_128 <= MAX_ROM_CALLS


def scalar_times(unitary, pauli):
    """The unit scalar c with unitary = c * pauli (I or X) to 1e-12, else None."""
    c = unitary.a if pauli == I2 else unitary.b
    close = unitary.max_entry_distance(pauli.scaled(c)) <= 1e-12
    return c if close and abs(abs(c) - 1) <= 1e-12 else None


def check_clean_block(program, value):
    """Every assignment gives a unit scalar times X where ``value`` is 1 and
    times I where it is 0; returns the inactive assignments' scalars."""
    inactive = []
    for u in range(1 << program.space.num_rom_bits):
        c = scalar_times(unitary_of(program, u), X_MAT if value(u) else I2)
        assert c is not None, u
        if not value(u):
            inactive.append(c)
    return inactive


def seeded_circuits(count, seed=16):
    rng = random.Random(seed)
    return [(j, random_circuit(rng, j, rng.randrange(1, 5)))
            for j in (rng.randrange(1, 7) for _ in range(count))]


@pytest.mark.parametrize("m", range(1, 9))
def test_and_blocks_are_clean_up_to_a_phase(m):
    # compile_function concatenates AND blocks, so each must leave the qubit
    # untouched where its monomial is 0: the identity, up to a phase.
    controls = list(range(1, m + 1))
    for build in (and_naive, and_fast):
        check_clean_block(build(controls, m), lambda u: int(u == (1 << m) - 1))


def test_inactive_blocks_are_the_identity_only_up_to_a_phase():
    # The AND of three controls is the identity on the nose where it is 0,
    # the AND of eight only up to a phase of -1 at 15 assignments.
    phases = check_clean_block(and_fast([1, 2, 3], 3), lambda u: int(u == 7))
    assert sum(abs(c - 1) < 1e-12 for c in phases) == 7
    phases = check_clean_block(and_fast(list(range(1, 9)), 8), lambda u: int(u == 255))
    assert sum(abs(c + 1) < 1e-12 for c in phases) == 15
    # With NOT the phase can be -i: (or x1 x2) at u = 0.
    circuit = parse_circuit("(or x1 x2)")
    phases = check_clean_block(circuit_to_qubit(circuit, 2), lambda u: eval_circuit(circuit, u))
    assert abs(phases[0] + 1j) < 1e-12


def test_circuit_blocks_are_clean_up_to_a_phase():
    for j, circuit in seeded_circuits(50):
        check_clean_block(circuit_to_qubit(circuit, j), lambda u: eval_circuit(circuit, u))


@pytest.mark.parametrize("target", [
    (AXIS_X, -1, 0), (AXIS_X, 1, 0), (AXIS_Z, 1, 0), (AXIS_X, 1, 1), (AXIS_Z, -1, 1),
    (AXIS_Z, 3, 2), (AXIS_X, -5, 4),
])
def test_qubit_split_multiplies_to_its_target_up_to_a_phase(target):
    # The four (child, rotation)s in time order, the last applied leftmost,
    # give the target on X and its inverse on Z (the same at exponent +-1).
    product = I2
    for _, (axis, num, log2den) in _split(target):
        product = matrix_of_gate(DyadicGate(axis, DyadicExponent(num, log2den))) @ product
    axis, num, log2den = target
    want_num = num if axis == AXIS_X else -num
    want = matrix_of_gate(DyadicGate(axis, DyadicExponent(want_num, log2den)))
    distance, phase_error = phase_free_distance(product, want)
    assert distance < 1e-12 and phase_error < 1e-12
    assert [child for child, _ in _split(target)] == ["right", "left", "right", "left"]


def test_circuit_to_qubit_computes_every_three_variable_function():
    for packed in range(256):
        table = TruthTable.from_int(3, packed)
        circuit = anf_to_circuit(anf_of(table))
        program = circuit_to_qubit(circuit, 3)
        assert extract_boolean(program) == table
        assert rom_call_count(program) == branching_length(circuit)


def test_circuit_to_qubit_costs_exactly_the_branching_length():
    rng = random.Random(8)
    for _ in range(40):
        j = rng.randrange(1, 9)
        circuit = random_circuit(rng, j, rng.randrange(0, 5))
        program = circuit_to_qubit(circuit, j)
        assert rom_call_count(program) == branching_length(circuit)
        check_one_fixup_per_step(program)
        assert extract_boolean(program).bits == tuple(
            eval_circuit(circuit, u) for u in range(1 << j))


def test_xor_at_half_targets_costs_its_operands_runs():
    # Below an AND's left child an XOR runs at a half rotation, X^(1/2) or
    # finer, whose square is no scalar.  Yet only a run's parity is read
    # (the root is a flip), so the XOR is still its operands' runs back to
    # back: (and x1 (not x2)) costs 4, the XOR 4 + 1 + 4, each AND above it
    # 2 x (9 + 1), the root 2 x (20 + 20).  The XOR and its shared operand
    # are read at a quarter rotation on X and at a half one on Z.
    shared = AndNode(InputNode(1), NotNode(InputNode(2)))
    xor = XorNode(shared, XorNode(InputNode(3), shared))
    circuit = AndNode(AndNode(xor, InputNode(4)), OrNode(xor, InputNode(5)))
    program = circuit_to_qubit(circuit, 5)
    assert extract_boolean(program).bits == tuple(eval_circuit(circuit, u) for u in range(32))
    assert rom_call_count(program) == branching_length(circuit) == 80
    check_one_fixup_per_step(program)
    check_clean_block(program, lambda u: eval_circuit(circuit, u))


def test_circuit_to_qubit_of_an_and_chain_is_and_naive():
    chain = InputNode(4)
    for index in (3, 2, 1):
        chain = AndNode(InputNode(index), chain)
    assert circuit_to_qubit(chain, 4) == and_naive([1, 2, 3, 4], 4)


def test_circuit_to_qubit_refuses_before_building():
    with pytest.raises(ValueError, match="circuit reads x3 but space has 2 ROM bits"):
        circuit_to_qubit(parse_circuit("(and x1 x3)"), 2)
    # A left-deep AND of 39 inputs costs 3 * 2^38 - 2 calls.
    chain = InputNode(1)
    for index in range(2, 40):
        chain = AndNode(chain, InputNode(index))
    with pytest.raises(ValueError, match=f"{3 * 2 ** 38 - 2} ROM calls"):
        circuit_to_qubit(chain, 39)


def test_double_negations_cost_no_gates():
    # A NOT chain folds into one fixup of its input's step, built once per
    # target; emitted once per use, ten ORs around 190 NOTs gave 202,745
    # gates for 3,070 calls.
    text = "(not " * 190 + "x1" + ")" * 190
    for index in range(2, 12):
        text = f"(or {text} x{index})"
    circuit = parse_circuit(text)
    program = circuit_to_qubit(circuit, 11)
    assert rom_call_count(program) == branching_length(circuit) == 3070
    assert len(program) <= 3 * 3070
    check_one_fixup_per_step(program)
    assert extract_boolean(program).bits == (0,) + (1,) * ((1 << 11) - 1)


def test_commutator_runs_leave_no_cyclic_garbage():
    # A run's nested functions call each other, and so does _fold's.  Unless
    # that cycle is broken when the walk ends, its memo waits for a GC pass:
    # the classical3 worst case at the nesting cap peaked at 168 MB that way,
    # against 83 MB.
    circuit = parse_circuit("(or (not x1) (and x2 (or x3 (not x1))))")
    rho = Permutation.from_cycles(5, ((0, 1, 2, 3, 4),))
    anf = anf_of(TruthTable.from_int(3, 0x6B))
    gc.collect()
    gc.disable()
    try:
        barrington(circuit, rho)
        compile_function(anf, 3)
        circuit_to_three_bit(circuit, 3)
        circuit_to_qubit(circuit, 3)
        compile_pair(anf, anf, 3)
        and_sequence(3, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()
