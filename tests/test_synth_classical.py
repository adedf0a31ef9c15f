import itertools
import random

import pytest

from romcomp import (
    BIT_FLIP_FIVE_CYCLES,
    BIT_FLIP_PERMUTATION,
    AndNode,
    Anf,
    InputNode,
    NotNode,
    OrNode,
    ParseError,
    Permutation,
    TruthTable,
    XorNode,
    and_barrington,
    and_fast,
    and_naive,
    anf_of,
    balanced_and_circuit,
    barrington,
    circuit_depth,
    circuit_to_three_bit,
    cnot_gate,
    compile_function,
    compile_pair,
    eval_circuit,
    extract_function,
    not_gate,
    one_bit_reachable,
    parse_circuit,
    permutation_of,
    rom_call_count,
    and_sequence,
    truth_table_of,
)
from romcomp import synth_quantum
from romcomp.program import MAX_ROM_CALLS
from romcomp.synth_classical import (
    AND_SHAPES,
    MAX_CIRCUIT_DEPTH,
    _AFFINE,
    _DOUBLING,
    _affine,
    _balanced,
    _bracket,
    _commutator_pair,
    _commutator_run,
    _inverse,
    _step_instructions,
    _then,
    anf_to_circuit,
    branching_length,
    circuit_width,
    doubling_calls,
)


def and_bits(u, m):
    return 1 if u & ((1 << m) - 1) == (1 << m) - 1 else 0


# ---------------------------------------------------------------------------
# Two-register gates and the doubling sequence
# ---------------------------------------------------------------------------


def test_gate_tables():
    assert not_gate(1, 1).gate.perm.images == (1, 0, 3, 2)
    assert not_gate(2, 1).gate.perm.images == (2, 3, 0, 1)
    assert cnot_gate(1, 1).gate.perm.images == (0, 1, 3, 2)
    assert cnot_gate(2, 1).gate.perm.images == (0, 3, 2, 1)
    with pytest.raises(ValueError):
        not_gate(3, 1)
    with pytest.raises(ValueError):
        cnot_gate(0, 1)


def test_gates_inactive_control():
    from romcomp import RomProgram, RomSpace

    for inst in (not_gate(1, 1), not_gate(2, 1), cnot_gate(1, 1), cnot_gate(2, 1)):
        prog = RomProgram(RomSpace(1, 2, "classical"), (inst,))
        from romcomp import permutation_of

        assert permutation_of(prog, 0).is_identity()


def register_gate(i, j, n):
    """NOT_i (j None) or XOR of register j into register i, as the state
    images of n registers with register i as state bit i - 1."""
    return tuple(s ^ 1 << (i - 1) if j is None or s >> (j - 1) & 1 else s for s in range(1 << n))


@pytest.mark.parametrize("n", [2, 3])
def test_affine_bracket_splits_each_key_into_its_commutator(n):
    # Two registers split only their NOTs, three their NOTs and all six XORs;
    # NOTs come first in register order, since compile_pair reads them so.
    nots = [register_gate(i, None, n) for i in range(1, n + 1)]
    xors = [register_gate(i, j, n) for i, j in itertools.permutations(range(1, n + 1), 2)]
    table = _bracket(n)
    assert list(table)[:n] == nots
    assert sorted(table) == sorted(nots + (xors if n == 3 else []))
    for target, entries in table.items():
        assert [child for child, _ in entries] == ["left", "right", "left", "right"]
        s, t, s_inverse, t_inverse = (Permutation(images) for _, images in entries)
        assert (s_inverse, t_inverse) == (s.inverse(), t.inverse())
        assert s.then(t).then(s_inverse).then(t_inverse).images == target


def test_and_sequence_base():
    prog, register = and_sequence(1, 1)
    assert register == 1
    assert len(prog) == 1
    assert prog.instructions[0] == not_gate(1, 1)


def test_and_sequence_two_vars():
    prog, register = and_sequence(2, 2)
    assert register == 2
    assert rom_call_count(prog) == 4
    for u in range(4):
        for alpha in range(2):
            for beta in range(2):
                start = alpha | beta << 1
                end = permutation_of(prog, u).images[start]
                assert end & 1 == alpha
                assert end >> 1 == beta ^ (and_bits(u, 2))


def test_and_sequence_three_vars_lands_in_register_one():
    prog, register = and_sequence(3, 3)
    assert register == 1
    for u in range(8):
        for start in range(4):
            end = permutation_of(prog, u).images[start]
            assert end & 1 == (start & 1) ^ and_bits(u, 3)
            assert end >> 1 == start >> 1


@pytest.mark.parametrize("m", range(1, 8))
def test_and_sequence_counts_and_involution(m):
    prog, register = and_sequence(m, m)
    assert register == (1 if m % 2 else 2)
    assert rom_call_count(prog) == 3 * 2 ** (m - 1) - 2
    from romcomp import concat

    doubled = concat(prog, prog)
    for u in range(1 << m):
        images = permutation_of(doubled, u).images
        for start in range(4):
            assert images[start] == start


def test_and_sequence_range_errors():
    with pytest.raises(ValueError):
        and_sequence(0, 2)
    with pytest.raises(ValueError):
        and_sequence(3, 2)


def test_doubling_past_the_bound_is_refused_before_building():
    wide = list(range(1, 22))
    with pytest.raises(ValueError, match="21 ROM bits"):
        compile_pair(Anf(21, frozenset({(1 << 21) - 1})), Anf(21, frozenset()), 21)
    with pytest.raises(ValueError, match="21 ROM bits"):
        and_sequence(21, 21)
    with pytest.raises(ValueError, match="21 ROM bits"):
        compile_pair(Anf(21, frozenset()), Anf(21, frozenset({(1 << 21) - 1})), 21)
    # The three-bit AND grows as m * 2^depth, not by doubling.
    assert rom_call_count(and_barrington(21)) > 0


def twenty_products_of_twenty(num_vars=21):
    """20 distinct products of 20 of 21 variables: each fits the budget, the
    sum (20 x 1,572,862 calls) does not."""
    full = (1 << num_vars) - 1
    return Anf(num_vars, frozenset(full ^ (1 << v) for v in range(20)))


def three_wide_products():
    """The products of x1..x1024, x1..x1023 and x2..x1024: as a balanced XOR
    of balanced ANDs, 1,048,576 + 2 x 1,047,040 = 3,142,656 calls."""
    full = (1 << 1024) - 1
    return Anf(1024, frozenset({full, full >> 1, full ^ 1}))


def test_doubling_calls_match_the_built_programs():
    for m in range(0, 9):
        j = max(m, 1)
        program = compile_pair(Anf(j, frozenset({(1 << m) - 1})), Anf(j, frozenset()), j)
        assert rom_call_count(program) == doubling_calls(m)
    assert doubling_calls(20) == 1_572_862 <= MAX_ROM_CALLS
    # Refused by width, before 2**(m-1) is formed.
    with pytest.raises(ValueError, match="20000000000 ROM bits"):
        doubling_calls(20_000_000_000)


def test_and_shape_counts_are_their_built_rom_calls():
    for shape, (build, calls) in AND_SHAPES.items():
        assert calls(0) == 0
        for width in range(1, 21):
            circuit = build([InputNode(v) for v in range(1, width + 1)])
            assert calls(width) == branching_length(circuit), (shape, width)
    # three_wide_products' count, which the budget refuses, is exact too.
    build, calls = AND_SHAPES["balanced"]
    variable_lists = three_wide_products().var_lists()
    products = [build([InputNode(v) for v in variables]) for variables in variable_lists]
    assert branching_length(_balanced(products, XorNode)) == 3_142_656
    assert sum(calls(len(variables)) for variables in variable_lists) == 3_142_656


def test_rom_call_budget_refuses_before_any_node_is_built(monkeypatch):
    def unbuildable(leaves):
        raise AssertionError("an AND was built past the ROM-call budget")

    for shape, (_, calls) in list(AND_SHAPES.items()):
        monkeypatch.setitem(AND_SHAPES, shape, (unbuildable, calls))
    twenty = (1 << 20) - 1
    refused = [
        (lambda: anf_to_circuit(three_wide_products()), "3142656 ROM calls"),
        (lambda: compile_function(three_wide_products(), 1024), "3142656 ROM calls"),
        (lambda: compile_function(twenty_products_of_twenty(), 21, "naive"), "31457240 ROM calls"),
        (lambda: and_fast(list(range(1, 1367)), 1366), "2099200 ROM calls"),
        (lambda: and_naive(list(range(1, 22)), 21), "21 ROM bits"),
        # Each register's product of 20 fits alone; the program of both does not.
        (lambda: compile_pair(Anf(21, frozenset({twenty})), Anf(21, frozenset({twenty << 1})), 21),
         "3145724 ROM calls"),
    ]
    for compile_, message in refused:
        with pytest.raises(ValueError, match=message):
            compile_()


def test_compile_pair_is_bounded_by_its_summed_rom_calls():
    wide = twenty_products_of_twenty()
    with pytest.raises(ValueError, match="31457240 ROM calls"):
        compile_pair(wide, Anf(21, frozenset()), 21)
    with pytest.raises(ValueError, match="31457240 ROM calls"):
        compile_pair(Anf(21, frozenset()), wide, 21)
    # A product past the bound is still refused for its own width first.
    both = Anf(21, wide.monomials | {(1 << 21) - 1})
    with pytest.raises(ValueError, match="21 ROM bits"):
        compile_pair(both, Anf(21, frozenset()), 21)


def test_three_bit_compile_is_bounded_by_its_predicted_rom_calls():
    with pytest.raises(ValueError, match="3142656 ROM calls"):
        circuit_to_three_bit(anf_to_circuit(three_wide_products()), 1024)


def one_monomial_pair(vars_, register, num_rom_bits):
    """compile_pair of the product of ``vars_`` in ``register``, 0 in the other."""
    product = Anf(num_rom_bits, frozenset({sum(1 << (v - 1) for v in vars_)}))
    zero = Anf(num_rom_bits, frozenset())
    return compile_pair(*((product, zero) if register == 1 else (zero, product)), num_rom_bits)


def test_one_monomial_steering():
    for target in (1, 2):
        for vars_ in ([2], [1, 3], [1, 2, 3]):
            prog = one_monomial_pair(vars_, target, 3)
            mask = sum(1 << (v - 1) for v in vars_)
            for u in range(8):
                product = 1 if u & mask == mask else 0
                for start in range(4):
                    end = permutation_of(prog, u).images[start]
                    got_target = (end >> (target - 1)) & 1
                    want_target = ((start >> (target - 1)) & 1) ^ product
                    other = 2 - target
                    assert got_target == want_target
                    assert (end >> other) & 1 == (start >> other) & 1


def test_monomial_constant_one():
    for target in (1, 2):
        prog = one_monomial_pair([], target, 2)
        assert rom_call_count(prog) == 0
        for u in range(4):
            for start in range(4):
                assert permutation_of(prog, u).images[start] == start ^ target


def test_compile_pair_refuses_components_of_another_width():
    # Without the check, a narrower component would compile over the wider ROM.
    for f1, f2 in ((Anf(2, frozenset({0b11})), Anf(3, frozenset())),
                   (Anf(3, frozenset()), Anf(2, frozenset({0b01})))):
        with pytest.raises(ValueError, match="component arities must match num_rom_bits"):
            compile_pair(f1, f2, 3)


def test_compile_pair_empty():
    prog = compile_pair(Anf(2, frozenset()), Anf(2, frozenset()), 2)
    vf = extract_function(prog)
    assert all(bit == 0 for table in vf.components for bit in table.bits)


def test_compile_pair_worked_example():
    f1 = Anf(3, frozenset({0b001, 0b100}))
    f2 = Anf(3, frozenset({0b001, 0b011}))
    vf = extract_function(compile_pair(f1, f2, 3))
    assert vf.components == (truth_table_of(f1), truth_table_of(f2))


def test_compile_pair_random_and_call_bound():
    rng = random.Random(17)
    for _ in range(100):
        masks1 = frozenset(rng.sample(range(16), rng.randrange(5)))
        masks2 = frozenset(rng.sample(range(16), rng.randrange(5)))
        f1, f2 = Anf(4, masks1), Anf(4, masks2)
        prog = compile_pair(f1, f2, 4)
        vf = extract_function(prog)
        assert vf.components == (truth_table_of(f1), truth_table_of(f2))
        bound = (len(masks1) + len(masks2)) * (3 * 2 ** 3 - 2)
        assert rom_call_count(prog) <= bound
        assert rom_call_count(prog) == sum(
            doubling_calls(len(v)) for v in f1.var_lists() + f2.var_lists())


# ---------------------------------------------------------------------------
# Circuits and Barrington's construction
# ---------------------------------------------------------------------------

RHO = Permutation((1, 2, 3, 4, 0))


def test_circuit_parsing_and_eval():
    circuit = parse_circuit("(and (or x1 x2) (not x3))")
    assert circuit_depth(circuit) == 2
    for u in range(8):
        u1, u2, u3 = u & 1, u >> 1 & 1, u >> 2 & 1
        assert eval_circuit(circuit, u) == (u1 | u2) & (1 - u3)
    assert parse_circuit("x4") == InputNode(4)


def test_circuit_parse_errors():
    for bad in ("", "(and x1)", "(nand x1 x2)", "x0", "(and x1 x2) x3", "(and x1 x2", "(xor x1)"):
        with pytest.raises(ParseError):
            parse_circuit(bad)
    with pytest.raises(ParseError, match="expected and/or/xor/not, got 'nand'"):
        parse_circuit("(nand x1 x2)")


def test_xor_parses_and_folds():
    circuit = parse_circuit("(xor (and x1 x2) (not x3))")
    assert circuit == XorNode(AndNode(InputNode(1), InputNode(2)), NotNode(InputNode(3)))
    assert [eval_circuit(circuit, u) for u in range(8)] == [
        (u & 1 & u >> 1) ^ (1 - (u >> 2 & 1)) for u in range(8)]
    # XOR adds its operands' runs and counts as two AND levels.
    assert (branching_length(circuit), circuit_depth(circuit)) == (5, 3)
    assert circuit_width(circuit) == 3


def test_circuit_ending_after_its_open_parenthesis():
    with pytest.raises(ParseError, match="unexpected end of circuit") as excinfo:
        parse_circuit("(")
    assert excinfo.value.position == 1


def test_balanced_and_depth():
    for n, d in ((1, 0), (2, 1), (3, 2), (4, 2), (7, 3), (8, 3)):
        circuit = balanced_and_circuit(n)
        assert circuit_depth(circuit) == d
        for u in range(1 << n):
            assert eval_circuit(circuit, u) == and_bits(u, n)


def test_barrington_single_input():
    bp = barrington(InputNode(1), RHO)
    assert bp.length == 1
    bit, if0, if1 = bp.steps[0]
    assert (bit, if0.is_identity(), if1) == (1, True, RHO)


def test_barrington_requires_five_cycle():
    six_cycle = Permutation.from_cycles(8, ((0, 1, 2, 3, 4, 5),))
    for rho in (Permutation((1, 0, 2, 3, 4)), BIT_FLIP_PERMUTATION, six_cycle):
        with pytest.raises(ValueError):
            barrington(InputNode(1), rho)


def check_theorem_contract(circuit, num_bits, rho=RHO):
    bp = barrington(circuit, rho)
    assert bp.length <= 4 ** circuit_depth(circuit)
    for u in range(1 << num_bits):
        got = bp.evaluate(u)
        if eval_circuit(circuit, u):
            assert got == rho
        else:
            assert got.is_identity()
    return bp


def test_barrington_and_of_two():
    bp = check_theorem_contract(AndNode(InputNode(1), InputNode(2)), 2)
    assert bp.length <= 4


def test_barrington_not_adds_no_length():
    bp = check_theorem_contract(NotNode(InputNode(1)), 1)
    assert bp.length == 1


def test_barrington_small_circuit_zoo():
    circuits = [
        OrNode(InputNode(1), InputNode(2)),
        AndNode(OrNode(InputNode(1), InputNode(2)), NotNode(InputNode(3))),
        OrNode(AndNode(InputNode(1), InputNode(2)), AndNode(InputNode(3), InputNode(1))),
        NotNode(AndNode(NotNode(InputNode(1)), OrNode(InputNode(2), InputNode(3)))),
        balanced_and_circuit(8),
    ]
    for circuit in circuits:
        check_theorem_contract(circuit, circuit_width(circuit))


def test_barrington_every_five_cycle_target():
    circuit = AndNode(InputNode(1), InputNode(2))
    five_cycles = [
        p
        for p in map(Permutation, itertools.permutations(range(5)))
        if len(p.cycles()) == 1 and len(p.cycles()[0]) == 5
    ]
    assert len(five_cycles) == 24
    for rho in five_cycles:
        check_theorem_contract(circuit, 2, rho)


def test_bit_flip_cycle_product():
    # The four 5-cycles, applied first-tuple-first, give (0 1)(2 3)(4 5)(6 7).
    product = Permutation.identity(8)
    for cycle in BIT_FLIP_FIVE_CYCLES:
        product = product.then(Permutation.from_cycles(8, (cycle,)))
    assert product == BIT_FLIP_PERMUTATION
    assert BIT_FLIP_PERMUTATION.images == (1, 0, 3, 2, 5, 4, 7, 6)


def test_barrington_is_exact_on_random_circuits_with_xor():
    # A 5-cycle does not square to the identity, so an XOR is run as
    # OR(AND(a, NOT b), AND(NOT a, b)): 8(|a| + |b|) steps, within 4^depth
    # since an XOR counts as two levels.
    rng = random.Random(20)
    for _ in range(40):
        j = rng.randrange(1, 6)
        check_theorem_contract(random_circuit(rng, j, rng.randrange(1, 4)), j)
    xor = XorNode(InputNode(1), InputNode(2))
    assert check_theorem_contract(xor, 2).length == 8 * 2 <= 4 ** circuit_depth(xor)


def test_barrington_on_the_bit_flip_factors():
    # Run on the 8 states, the program applies the factor exactly when the
    # circuit accepts and fixes all 8 states otherwise.
    circuits = [
        AndNode(InputNode(1), InputNode(2)),
        NotNode(AndNode(NotNode(InputNode(1)), OrNode(InputNode(2), InputNode(3)))),
        balanced_and_circuit(4),
    ]
    for cycle in BIT_FLIP_FIVE_CYCLES:
        rho = Permutation.from_cycles(8, (cycle,))
        for circuit in circuits:
            check_theorem_contract(circuit, circuit_width(circuit), rho)


def test_and_barrington_instructions_fix_inactive_states():
    # Each step of Barrington's program for a bit-flip factor touches only
    # the five states of that cycle.
    for cycle in BIT_FLIP_FIVE_CYCLES:
        bp = barrington(balanced_and_circuit(3), Permutation.from_cycles(8, (cycle,)))
        outside = set(range(8)) - set(cycle)
        assert len(outside) == 3
        for _, if0, if1 in bp.steps:
            for perm in (if0, if1):
                assert perm.size == 8
                assert all(perm.apply(s) == s for s in outside)


@pytest.mark.parametrize("j", range(1, 7))
def test_and_barrington_extracts_and(j):
    prog = and_barrington(j)
    vf = extract_function(prog)
    assert vf.components[0].bits == tuple(and_bits(u, j) for u in range(1 << j))
    assert all(bit == 0 for bit in vf.components[1].bits)
    assert all(bit == 0 for bit in vf.components[2].bits)
    depth = (j - 1).bit_length()
    assert rom_call_count(prog) <= 4 * 4 ** depth


def test_three_bit_compile_refuses_inputs_past_the_rom():
    with pytest.raises(ValueError, match="circuit reads x3 but space has 2 ROM bits"):
        circuit_to_three_bit(parse_circuit("(and x1 x3)"), 2)


def test_circuit_to_three_bit_general():
    circuit = parse_circuit("(or (and x1 x2) (not x3))")
    prog = circuit_to_three_bit(circuit, 3)
    vf = extract_function(prog)
    assert vf.components[0].bits == tuple(eval_circuit(circuit, u) for u in range(8))


def random_circuit(rng, j, depth):
    """A seeded circuit over x1..xj with ORs, XORs and NOTs nested through it."""
    if depth == 0:
        return InputNode(rng.randrange(1, j + 1))
    kind = rng.randrange(5)
    if kind == 0:
        return NotNode(random_circuit(rng, j, depth - 1))
    left, right = random_circuit(rng, j, depth - 1), random_circuit(rng, j, depth - 1)
    return (AndNode, OrNode, OrNode, XorNode)[kind - 1](left, right)


def check_one_fixup_per_step(program):
    """Both machines' commutator runs emit each step as one controlled gate
    and at most one uncontrolled fixup, every NOT on that step folded in: no
    two adjacent instructions are both uncontrolled, and there are no more
    uncontrolled ones than ROM calls."""
    free = [instruction.control is None for instruction in program.instructions]
    assert not any(a and b for a, b in zip(free, free[1:]))
    assert sum(free) <= rom_call_count(program)


def check_clean(circuit, j):
    """``circuit_to_three_bit``'s contract, read through ``permutation_of`` and
    ``eval_circuit`` only: under every assignment the program is the bit flip
    when the circuit is true and the identity otherwise, on all 8 start
    states, and it costs exactly ``branching_length`` ROM calls."""
    program = circuit_to_three_bit(circuit, j)
    for u in range(1 << j):
        want = BIT_FLIP_PERMUTATION if eval_circuit(circuit, u) else Permutation.identity(8)
        assert permutation_of(program, u) == want
    assert rom_call_count(program) == branching_length(circuit)
    check_one_fixup_per_step(program)


def test_three_bit_compile_is_clean_on_every_three_variable_table():
    for packed in range(256):
        check_clean(anf_to_circuit(anf_of(TruthTable.from_int(3, packed))), 3)


@pytest.mark.parametrize("j", [3, 4, 5])
def test_three_bit_compile_is_clean_on_random_circuits(j):
    # Random circuits nest ORs, XORs and NOTs; the last reads one subtree
    # under both an AND and an XOR.
    rng = random.Random(j)
    circuits = [random_circuit(rng, j, rng.randint(1, 4)) for _ in range(12)]
    circuits += [anf_to_circuit(Anf(j, frozenset(rng.sample(range(1 << j), 3)))) for _ in range(2)]
    shared = circuits[0]
    circuits.append(XorNode(AndNode(shared, InputNode(j)), NotNode(shared)))
    for circuit in circuits:
        check_clean(circuit, j)


def test_barrington_or_is_not_and_of_nots():
    a = AndNode(InputNode(1), NotNode(InputNode(2)))
    b = OrNode(InputNode(3), AndNode(InputNode(1), InputNode(3)))
    de_morgan = NotNode(AndNode(NotNode(a), NotNode(b)))
    for rho in (RHO, RHO.inverse(), Permutation((2, 0, 4, 1, 3))):
        assert barrington(OrNode(a, b), rho).steps == barrington(de_morgan, rho).steps


def test_anf_to_circuit():
    anf = Anf(3, frozenset({0b000, 0b011, 0b100}))
    circuit = anf_to_circuit(anf)
    want = truth_table_of(anf)
    for u in range(8):
        assert eval_circuit(circuit, u) == want.bits[u]
    # Constant-0 circuit from the empty form.
    zero = anf_to_circuit(Anf(2, frozenset()))
    assert all(eval_circuit(zero, u) == 0 for u in range(4))


# ---------------------------------------------------------------------------
# The commutator engine against a walk without its memo
# ---------------------------------------------------------------------------


def memo_free_run(runs, split, then, inverse, emit):
    """``_commutator_run`` without its memo: every visit builds its node's
    run afresh, as a list of items and its last step."""
    def run(node, target):
        if node is None or isinstance(node, InputNode):
            return [], (node and node.index, identity, target)
        if isinstance(node, NotNode):
            items, (bit, if0, if1) = run(node.child, inverse(target))
            return items, (bit, then(if0, target), then(if1, target))
        both = split(target) if isinstance(node, AndNode) else (("left", target), ("right", target))
        items, last = [], None
        for child, child_target in both:
            items += emit(*last) if last else ()
            body, last = run(getattr(node, child), child_target)
            items += body
        return items, last

    out = []
    for circuit, rho in runs:
        identity = then(rho, inverse(rho))
        body, last = run(circuit, rho)
        out += [*body, *emit(*last)]
    return out


def shared_circuit(rng, j, size, leaf_right=False):
    """A seeded circuit over x1..xj whose AND, NOT and XOR nodes reuse
    earlier nodes, so subtrees are shared; with ``leaf_right`` every AND's
    right child is an input, as the doubling needs."""
    pool = [InputNode(i) for i in range(1, j + 1)]
    for _ in range(size):
        kind, left, right = rng.randrange(3), rng.choice(pool), rng.choice(pool)
        if leaf_right:
            right = InputNode(rng.randrange(1, j + 1))
        node = (NotNode(left), AndNode(left, right), XorNode(left, right))[kind]
        if branching_length(node) <= 2000:
            pool.append(node)
    return pool[-1]


def test_commutator_run_matches_the_memo_free_walk_on_every_group():
    rng = random.Random(25)
    five_cycle = (1, 2, 3, 4, 0)
    groups = [  # (split, then, inverse, emit, targets, AND's right child a leaf)
        (_DOUBLING.__getitem__, _then, _inverse, _step_instructions, list(_DOUBLING), True),
        (_AFFINE.__getitem__, _then, _inverse, _step_instructions, [BIT_FLIP_PERMUTATION.images],
         False),
        (synth_quantum._split, synth_quantum._then, synth_quantum._inverse,
         synth_quantum._step, [synth_quantum._ROOT], False),
        (_commutator_pair, _then, _inverse, lambda *step: (step,),
         [five_cycle, _inverse(five_cycle)], False),
    ]
    for split, then, inverse, emit, targets, leaf_right in groups:
        for _ in range(40):
            # Two runs share the first circuit, and None is always true.
            circuit = shared_circuit(rng, rng.randrange(1, 5), rng.randrange(1, 16), leaf_right)
            runs = [(circuit, rng.choice(targets)), (None, rng.choice(targets)),
                    (circuit, rng.choice(targets))]
            got = _commutator_run(runs, split, then, inverse, emit)
            assert got == memo_free_run(runs, split, then, inverse, emit)


def test_commutator_run_builds_each_node_and_target_once():
    # A 16-bit left-deep chain on the doubling: each AND runs its left child
    # twice at one target, so the memo-free walk makes 98,302 emit calls.
    calls = []

    def emit(*step):
        calls.append(step)
        return _step_instructions(*step)

    chain = AND_SHAPES["left"][0]([InputNode(i) for i in range(1, 17)])
    items = _commutator_run([(chain, _affine(1, None, 2))], _DOUBLING.__getitem__, _then,
                            _inverse, emit)
    assert sum(item.control is not None for item in items) == doubling_calls(16)
    assert len(calls) <= 64


# ---------------------------------------------------------------------------
# One writable bit reaches only the affine functions
# ---------------------------------------------------------------------------


def affine_tables(j):
    out = set()
    for mask in range(1 << j):
        for const in (0, 1):
            bits = tuple(
                (bin(u & mask).count("1") + const) % 2 for u in range(1 << j)
            )
            out.add(bits)
    return out


@pytest.mark.parametrize("j", [1, 2, 3, 4, 5])
def test_one_bit_closure_is_affine(j):
    reachable = {t.bits for t in one_bit_reachable(j)}
    assert len(reachable) == 2 ** (j + 1)
    assert reachable == affine_tables(j)


def test_one_bit_closure_is_capped_at_ten_rom_bits():
    assert len(one_bit_reachable(10)) == 2 ** 11
    with pytest.raises(ValueError, match=r"the closure of 11 ROM bits has 2\^12 tables; capped at 10"):
        one_bit_reachable(11)


def test_one_bit_closure_excludes_and():
    for j in (2, 3):
        reachable = {t.bits for t in one_bit_reachable(j)}
        and_table = tuple(and_bits(u, j) for u in range(1 << j))
        assert and_table not in reachable


@pytest.mark.parametrize("j", [1, 2, 3])
def test_one_bit_closure_is_every_form_of_bounded_degree(j):
    # One ROM bit per gate reaches exactly the ANFs of degree <= 1.
    masks = [mask for mask in range(1 << j) if bin(mask).count("1") <= 1]
    forms = {
        truth_table_of(Anf(j, frozenset(chosen))).bits
        for size in range(len(masks) + 1)
        for chosen in itertools.combinations(masks, size)
    }
    assert {t.bits for t in one_bit_reachable(j)} == forms


def test_circuit_variables_are_ascii_digits():
    # A superscript two passes str.isdigit but not int(); an Arabic-Indic
    # one would be read as x1.
    for bad, position in (("(not x²)", 5), ("(not x١)", 5), ("x١", 0)):
        with pytest.raises(ParseError) as excinfo:
            parse_circuit(bad)
        assert excinfo.value.position == position


def test_circuit_walks_value_each_shared_node_once():
    # Sixty nested ANDs of a node with itself: 2^60 paths, 61 nodes.
    node = InputNode(1)
    for _ in range(60):
        node = AndNode(node, node)
    assert circuit_width(node) == 1
    assert circuit_depth(node) == 60
    assert branching_length(node) == 4 ** 60
    assert (eval_circuit(node, 0), eval_circuit(node, 1)) == (0, 1)


def test_deepest_circuit_within_the_budget_compiles_at_the_nesting_cap():
    # The recursion's worst case: nested ORs (three frames each in the
    # commutator recursion) around NOTs up to the cap.  Nineteen ORs are the
    # most the ROM-call budget admits, since each doubles the branching
    # length.
    def nested(ors):
        text = "(not " * (MAX_CIRCUIT_DEPTH - ors) + "x1" + ")" * (MAX_CIRCUIT_DEPTH - ors)
        for index in range(2, ors + 2):
            text = f"(or {text} x{index})"
        return parse_circuit(text)

    with pytest.raises(ValueError, match="ROM calls"):
        circuit_to_three_bit(nested(20), 21)
    circuit = nested(19)
    program = circuit_to_three_bit(circuit, 20)
    assert branching_length(circuit) == rom_call_count(program) <= MAX_ROM_CALLS
