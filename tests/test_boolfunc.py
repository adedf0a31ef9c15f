import random

import pytest
from hypothesis import given, strategies as st

from romcomp import (
    Anf,
    ParseError,
    TruthTable,
    anf_of,
    format_monomials,
    parse_monomials,
    parse_table,
    truth_table_of,
)


def test_constant_zero_has_empty_anf():
    for j in (1, 2, 3):
        assert anf_of(TruthTable.constant(j, 0)).monomials == frozenset()


def test_worked_two_var_example():
    # f(u1, u2) = u1 XOR u1u2: true only at (u1, u2) = (1, 0).
    table = TruthTable(2, (0, 1, 0, 0))
    assert anf_of(table).monomials == {0b01, 0b11}
    assert truth_table_of(Anf(2, frozenset({0b01, 0b11}))) == table
    # A mask must be an int: a float used to fail on ``bit_length``.
    for mask in (1.0, True):
        with pytest.raises(ValueError, match="is not an int"):
            Anf(2, frozenset({mask}))
    # So must the width: 2.0 and True used to be taken for 2 and 1.
    for num_vars, monomials in ((2.0, frozenset()), (True, frozenset({1}))):
        with pytest.raises(ValueError, match="num_vars must be an integer >= 1"):
            Anf(num_vars, monomials)


def test_truth_table_entries_are_ints_zero_or_one():
    assert TruthTable(1, (False, True)).bits == (0, 1)
    # 1.0 == 1, but a float is not an int entry, as for Anf masks.
    for bad in (1.0, 0.0, 2, -1, 256, "1", None):
        with pytest.raises(ValueError, match="table entries must be 0 or 1"):
            TruthTable(1, (0, bad))
    # A float width used to escape as a TypeError from ``1 << 2.0``.
    for num_vars, bits in ((2.0, (0,) * 4), (True, (0, 1))):
        with pytest.raises(ValueError, match="num_vars must be an integer >= 1"):
            TruthTable(num_vars, bits)


def test_xor_of_two_vars():
    table = truth_table_of(Anf(3, frozenset({0b001, 0b100})))
    assert table.bits == tuple((u & 1) ^ (u >> 2 & 1) for u in range(8))


def test_full_monomial_is_and():
    for j in (1, 2, 3):
        table = truth_table_of(Anf(j, frozenset({(1 << j) - 1})))
        assert table.bits == (0,) * ((1 << j) - 1) + (1,)


def test_empty_anf_is_zero():
    assert truth_table_of(Anf(3, frozenset())).bits == (0,) * 8


def test_round_trip_exhaustive_small():
    for j in (1, 2, 3):
        seen = set()
        for packed in range(1 << (1 << j)):
            table = TruthTable.from_int(j, packed)
            anf = anf_of(table)
            assert truth_table_of(anf) == table
            seen.add(anf.monomials)
        # Bijection: as many monomial sets as tables.
        assert len(seen) == 1 << (1 << j)


def _loop_anf(table):
    """Reference: the per-entry Moebius loop."""
    coeffs = list(table.bits)
    step = 1
    while step < len(coeffs):
        for idx in range(len(coeffs)):
            if idx & step:
                coeffs[idx] ^= coeffs[idx ^ step]
        step <<= 1
    return frozenset(m for m, c in enumerate(coeffs) if c)


def _loop_table(anf):
    """Reference: XOR of each monomial's conjunction, one entry at a time."""
    bits = [0] * (1 << anf.num_vars)
    for mask in anf.monomials:
        for u in range(len(bits)):
            bits[u] ^= u & mask == mask
    return tuple(bits)


@pytest.mark.parametrize("j", range(1, 10))
def test_transforms_match_the_entry_loops(j):
    rng = random.Random(j)
    tables = [TruthTable.constant(j, 0), TruthTable.constant(j, 1)]
    tables += [TruthTable.from_int(j, rng.getrandbits(1 << j)) for _ in range(12)]
    for table in tables:
        anf = anf_of(table)
        assert anf.monomials == _loop_anf(table)
        assert truth_table_of(anf).bits == _loop_table(anf) == table.bits
        sparse = Anf(j, frozenset(rng.sample(range(1 << j), min(3, 1 << j))))
        assert truth_table_of(sparse).bits == _loop_table(sparse)


@given(st.integers(1, 6), st.data())
def test_anf_round_trip_random(j, data):
    masks = data.draw(st.sets(st.integers(0, (1 << j) - 1)))
    anf = Anf(j, frozenset(masks))
    assert anf_of(truth_table_of(anf)) == anf


def test_parse_monomials():
    anf = parse_monomials("1,1.2")
    assert anf.num_vars == 2
    assert anf.monomials == {0b01, 0b11}
    assert parse_monomials("").monomials == frozenset()
    assert parse_monomials("0", 3).monomials == {0}
    assert format_monomials(anf) == "1,1.2"


def test_parse_monomials_errors():
    with pytest.raises(ParseError):
        parse_monomials("1,,2")
    with pytest.raises(ParseError):
        parse_monomials("1.x")
    with pytest.raises(ParseError):
        parse_monomials("1.1")
    with pytest.raises(ParseError):
        parse_monomials("1,1")
    with pytest.raises(ParseError, match="variable 5 out of range for 4 vars"):
        parse_monomials("1.5", 4)
    err = None
    try:
        parse_monomials("1,2,bad")
    except ParseError as exc:
        err = exc
    assert err is not None and err.position == 4
    # Positions count from the monomial after its spaces; an empty monomial
    # points at the comma or end that closes it.
    for text, position in [("1, x", 3), ("1,  2.y", 6), ("1.2, 1.2", 5), ("1, x ,2", 3),
                           (" ,1", 1), ("1,,2", 2), ("1, ", 3)]:
        with pytest.raises(ParseError) as info:
            parse_monomials(text)
        assert info.value.position == position, text


def test_format_round_trip():
    anf = Anf(4, frozenset({0, 0b1010, 0b1111}))
    assert parse_monomials(format_monomials(anf), 4) == anf


def hex_of(table):
    """The table's bit sequence as a big-endian hex numeral."""
    return format(int(table.to_bit_string(), 2), f"0{max(1, len(table.bits) // 4)}x")


def test_table_text_forms():
    table = parse_table("0100")
    assert table.num_vars == 2 and table.bits == (0, 1, 0, 0)
    assert parse_table("4") == table  # single hex digit implies j=2
    assert parse_table("0x4") == table
    assert parse_table("0100", 2) == table
    longer = TruthTable.from_int(4, 0b1011000011110101)
    assert parse_table(hex_of(longer)) == longer
    assert parse_table(longer.to_bit_string()) == longer


def test_table_text_errors():
    with pytest.raises(ParseError):
        parse_table("010")  # not a power of two, not hex
    with pytest.raises(ParseError):
        parse_table("zz")
    with pytest.raises(ParseError):
        parse_table("0100", 3)
    with pytest.raises(ParseError):
        TruthTable.from_hex("ff", 2)


@pytest.mark.parametrize("text,position", [("1_00", 1), ("+1", 0), (" 1", 0), ("-0", 0),
                                           ("١", 0), ("0x1_00", 1)])
def test_hex_tables_take_ascii_hex_digits_only(text, position):
    # int(text, 16) would take each of these.
    with pytest.raises(ParseError, match="invalid hex digit") as excinfo:
        parse_table(text)
    assert excinfo.value.position == position


@pytest.mark.parametrize("text,position", [("١.2", 0), ("1.²", 2), ("1,2.٣", 4)])
def test_monomials_take_ascii_digits_only(text, position):
    with pytest.raises(ParseError, match="expected a variable index") as excinfo:
        parse_monomials(text)
    assert excinfo.value.position == position


@pytest.mark.parametrize("j", [1, 2, 5, 16])
def test_int_and_hex_tables_match_the_entry_loops(j):
    # One and two variables take one hex digit.
    rng = random.Random(j)
    length = 1 << j
    for packed in (rng.getrandbits(length) for _ in range(2)):
        text = format(packed, f"0{max(1, length // 4)}x")
        assert TruthTable.from_hex(text, j).bits == tuple(
            packed >> (length - 1 - u) & 1 for u in range(length))
        # Bits past the table, and a negative's two's complement, are read
        # the same way.
        for value in (packed, packed | 1 << (length + 3), -1 - packed):
            assert TruthTable.from_int(j, value).bits == tuple(
                value >> u & 1 for u in range(length))


@given(st.integers(1, 4), st.data())
def test_hex_round_trip(j, data):
    packed = data.draw(st.integers(0, (1 << (1 << j)) - 1))
    table = TruthTable.from_int(j, packed)
    assert TruthTable.from_hex(hex_of(table), j) == table
