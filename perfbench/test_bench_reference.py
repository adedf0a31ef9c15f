"""Hand-checked cases for the benchmark's own references."""

import json

import numpy as np
import pytest

import reference
from reference import encode


def two_bit_program(num_rom_bits, instructions):
    return json.dumps({
        "num_rom_bits": num_rom_bits, "num_writable": 2, "kind": "classical",
        "instructions": [{"control": c, "gate": {"perm": list(p)}} for c, p in instructions],
    })


NOT_REG1 = (1, 0, 3, 2)
NOT_REG2 = (2, 3, 0, 1)


def test_evaluator_follows_controls():
    text = two_bit_program(2, [(1, NOT_REG1), (2, NOT_REG2)])
    assert reference.evaluate_two_bit(text) == (0, 1, 2, 3)
    assert reference.program_size(text) == (2, 2)


def test_evaluator_applies_uncontrolled_gates_everywhere():
    text = two_bit_program(1, [(None, NOT_REG2), (1, NOT_REG1)])
    assert reference.evaluate_two_bit(text) == (2, 3)
    assert reference.program_size(text) == (1, 2)


def test_evaluator_rejects_other_machines():
    text = json.dumps({"num_rom_bits": 1, "num_writable": 1, "kind": "quantum",
                       "instructions": []})
    with pytest.raises(ValueError):
        reference.evaluate_two_bit(text)


def test_minimal_calls_one_bit():
    table = reference.minimal_calls_table(1)
    # Constants need only a free relabeling; anything else one controlled gate.
    for vector in [(0, 0), (1, 1), (3, 3)]:
        assert table[encode(vector)] == 0
    for vector in [(0, 1), (2, 0), (1, 3)]:
        assert table[encode(vector)] == 1
    assert (table >= 0).all()


def test_minimal_calls_two_bits():
    table = reference.minimal_calls_table(2)
    assert table[encode((0, 1, 1, 0))] == 2   # XOR: one flip per bit
    assert table[encode((0, 1, 2, 3))] == 2   # one register per bit
    assert table[encode((0, 0, 0, 1))] == 3   # AND, the known minimum
    assert table[encode((2, 2, 2, 2))] == 0


def test_restriction_and_its_bound():
    assert reference.restriction((0, 1, 2, 3), 0, 1) == (1, 3)
    assert reference.restriction((0, 1, 2, 3), 1, 0) == (0, 1)
    # AND of four bits: fixing any bit to 1 leaves the j = 3 AND (5 calls),
    # so 3k >= 4 * 5 and no program has fewer than 7 calls.
    table3 = np.zeros(4 ** 8, dtype=np.int16)
    table3[encode(reference.and_table(3))] = 5
    assert reference.restriction_lower_bound(reference.and_table(4), table3) == 7


def test_tables_of_monomials():
    assert reference.table_of_monomials(2, [1, 3]) == (0, 1, 0, 0)   # u1 + u1u2
    assert reference.table_of_monomials(2, [0]) == (1, 1, 1, 1)
    assert reference.and_table(2) == (0, 0, 0, 1)


def test_full_symmetry():
    assert reference.fully_symmetric(reference.and_table(3), 3)
    assert not reference.fully_symmetric((0, 1, 2, 3) * 2, 3)
