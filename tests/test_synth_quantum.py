import random

import pytest

from romcomp import (
    Anf,
    DyadicGate,
    TruthTable,
    and_fast,
    and_naive,
    anf_of,
    compile_function,
    extract_boolean,
    rom_call_count,
    truth_table_of,
)

from test_sim_quantum import two_control_flip_program
from test_synth_classical import twenty_products_of_twenty


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


@pytest.mark.parametrize("m", range(1, 9))
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


@pytest.mark.parametrize("m", [3, 5, 6, 7])
def test_fast_dummy_padding(m):
    # Padded slots become uncontrolled gates: of the 4^k gate positions each
    # leaf slot owns 2^k, so real calls are 4^k - (2^k - m) * 2^k.
    prog = and_fast(list(range(1, m + 1)), m)
    width = 1 << (m - 1).bit_length()
    assert len(prog) == width * width
    assert rom_call_count(prog) == width * width - (width - m) * width
    assert extract_boolean(prog) == and_table(list(range(1, m + 1)), m)


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
    # and_fast pads 600 controls to 1024 leaves, 4^10 calls each: three of
    # them are past the budget.
    products = [sum(1 << v for v in range(start, start + 600)) for start in (0, 200, 424)]
    with pytest.raises(ValueError, match=f"{3 * 4 ** 10} ROM calls"):
        compile_function(Anf(1024, frozenset(products)), 1024)
