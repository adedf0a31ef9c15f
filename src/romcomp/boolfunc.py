"""Truth tables, the XOR-of-AND normal form, and conversions between them.

Table index convention, shared with the program IR: variable u_1 is the least
significant bit of the index, so entry ``bits[u]`` is the function value at
the assignment whose mask is ``u``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


class ParseError(ValueError):
    """Bad textual input; carries the character position of the problem."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _check_table(num_vars: int, entries: bytes | tuple[int, ...]) -> None:
    """Refuse a table unless ``num_vars`` is an int >= 1 and ``entries`` holds
    2**num_vars entries, each 0 or 1."""
    if type(num_vars) is not int or num_vars < 1:
        raise ValueError(f"num_vars must be an integer >= 1, got {num_vars!r}")
    if len(entries) != 1 << num_vars:
        raise ValueError(f"table for {num_vars} vars needs {1 << num_vars} entries, "
                         f"got {len(entries)}")
    # One C-level pass that refuses floats; a generator cost more than the sweep.
    try:
        if bytes(entries).translate(None, b"\0\1"):
            raise ValueError
    except (TypeError, ValueError):
        raise ValueError("table entries must be 0 or 1") from None


@dataclass(frozen=True, slots=True)
class TruthTable:
    num_vars: int
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_table(self.num_vars, self.bits)

    @classmethod
    def from_bytes(cls, num_vars: int, data: bytes) -> "TruthTable":
        """The table of one 0/1 byte per entry, checked in one pass."""
        _check_table(num_vars, data)
        table = object.__new__(cls)
        object.__setattr__(table, "num_vars", num_vars)
        object.__setattr__(table, "bits", tuple(data))
        return table

    @classmethod
    def constant(cls, num_vars: int, value: int) -> "TruthTable":
        return cls(num_vars, (value,) * (1 << num_vars))

    @classmethod
    def from_int(cls, num_vars: int, packed: int) -> "TruthTable":
        """Unpack from an integer whose bit u is the entry at assignment u."""
        length = 1 << num_vars
        digits = format(packed & ((1 << length) - 1), f"0{length}b").encode()
        return cls.from_bytes(num_vars, digits[::-1].translate(_FROM_DIGITS))

    def to_bit_string(self) -> str:
        return "".join(str(b) for b in self.bits)

    @classmethod
    def from_hex(cls, text: str, num_vars: int | None = None) -> "TruthTable":
        """Read big-endian hex, inferring num_vars from the digit count if None."""
        if not text:
            raise ParseError("empty table", 0)
        if num_vars is None:
            if len(text) & (len(text) - 1):
                raise ParseError(
                    f"cannot infer num_vars from {len(text)} hex digits; pass it explicitly", 0
                )
            num_vars = (4 * len(text)).bit_length() - 1
        length = 1 << num_vars
        expected = max(1, (length + 3) // 4)
        if len(text) != expected:
            raise ParseError(f"hex table for {num_vars} vars needs {expected} digits", 0)
        # int() would also take signs, spaces, underscores and non-ASCII digits.
        for pos, ch in enumerate(text):
            if ch not in "0123456789abcdefABCDEF":
                raise ParseError(f"invalid hex digit {ch!r}", pos)
        numeral = int(text, 16)
        if numeral >= 1 << length:
            raise ParseError(f"hex value too large for {length} table bits", 0)
        digits = format(numeral, f"0{length}b").encode()
        return cls.from_bytes(num_vars, digits.translate(_FROM_DIGITS))


@dataclass(frozen=True, slots=True)
class Anf:
    """XOR of conjunctions: each monomial is a bitmask of variable indices.

    The zero mask is the constant-1 monomial; an empty set is the constant 0.
    """

    num_vars: int
    monomials: frozenset[int]

    def __post_init__(self) -> None:
        if type(self.num_vars) is not int or self.num_vars < 1:
            raise ValueError(f"num_vars must be an integer >= 1, got {self.num_vars!r}")
        for mask in self.monomials:
            if type(mask) is not int:
                raise ValueError(f"monomial mask {mask!r} is not an int")
            if mask < 0:
                raise ValueError(f"monomial mask {mask} is negative")
            if mask.bit_length() > self.num_vars:
                raise ValueError(f"u{mask.bit_length()} out of range for {self.num_vars} vars")

    def var_lists(self) -> list[list[int]]:
        """Monomials as sorted 1-based variable lists, smallest mask first."""
        out = []
        for mask in sorted(self.monomials):
            out.append([v + 1 for v in range(self.num_vars) if (mask >> v) & 1])
        return out


@dataclass(frozen=True, slots=True)
class VectorFunction:
    num_vars: int
    components: tuple[TruthTable, ...]

    def __post_init__(self) -> None:
        for table in self.components:
            if table.num_vars != self.num_vars:
                raise ValueError("all components must share num_vars")


# 0/1 bytes <-> ASCII digits, to move a 0/1 vector in and out of an int.
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _moebius(values: bytes | bytearray, num_vars: int) -> bytes:
    """Binary Moebius (Zhegalkin) transform of a 0/1 byte vector; it is its
    own inverse.  Entry u of the result is the XOR of the entries at the
    subsets of u.  The vector is packed into one int (entry u at bit u), so
    each variable costs one masked shift however long the vector is."""
    length = 1 << num_vars
    packed = int(values[::-1].translate(_TO_DIGITS), 2)
    for v in range(num_vars):
        step = 1 << v
        # The bits u with u_v = 0, a run of `step` ones repeated by doubling.
        low, width = (1 << step) - 1, 2 * step
        while width < length:
            low |= low << width
            width *= 2
        packed ^= (packed & low) << step
    return format(packed, f"0{length}b").encode()[::-1].translate(_FROM_DIGITS)


def anf_of(table: TruthTable) -> Anf:
    """Monomial set of a table, via the Moebius transform."""
    coeffs = _moebius(bytes(table.bits), table.num_vars)
    return Anf(table.num_vars, frozenset(itertools.compress(range(len(coeffs)), coeffs)))


def truth_table_of(anf: Anf) -> TruthTable:
    """Evaluate the XOR of the monomials, via the Moebius transform."""
    coeffs = bytearray(1 << anf.num_vars)
    for mask in anf.monomials:
        coeffs[mask] = 1
    return TruthTable.from_bytes(anf.num_vars, _moebius(coeffs, anf.num_vars))


def parse_monomials(text: str, num_vars: int | None = None) -> Anf:
    """Parse a monomial list like ``1,1.2`` (u1 XOR u1u2).

    Monomials are comma-separated; each is a dot-joined list of 1-based
    variable indices.  The bare token ``0`` denotes the constant-1 monomial.
    An empty string is the constant 0.  Defaults num_vars to the largest
    index present (minimum 1).
    """
    masks: set[int] = set()
    max_var = 1
    if text.strip():
        pos = 0
        for chunk in text.split(","):
            token = chunk.strip()
            start = pos + len(chunk) - len(chunk.lstrip())  # the monomial, after its spaces
            if token == "0":
                mask = 0
            elif not token:
                raise ParseError("empty monomial", start)
            else:
                mask = 0
                sub = start
                for part in token.split("."):
                    if not (part.isascii() and part.isdigit()) or int(part) < 1:
                        raise ParseError(f"expected a variable index, got {part!r}", sub)
                    var = int(part)
                    if num_vars is not None and var > num_vars:
                        raise ParseError(f"variable {var} out of range for {num_vars} vars", sub)
                    if mask >> (var - 1) & 1:
                        raise ParseError(f"variable {var} repeated in monomial", sub)
                    mask |= 1 << (var - 1)
                    max_var = max(max_var, var)
                    sub += len(part) + 1
            if mask in masks:
                raise ParseError(f"duplicate monomial {token!r}", start)
            masks.add(mask)
            pos += len(chunk) + 1
    if num_vars is None:
        num_vars = max_var
    return Anf(num_vars, frozenset(masks))


def format_monomials(anf: Anf) -> str:
    """Inverse of parse_monomials, smallest mask first."""
    parts = []
    for vars_ in anf.var_lists():
        parts.append("0" if not vars_ else ".".join(str(v) for v in vars_))
    return ",".join(parts)


def parse_table(text: str, num_vars: int | None = None) -> TruthTable:
    """Parse a truth table, as a 0/1 string or as big-endian hex.

    A string of 0/1 characters whose length is a power of two (>= 2) is read
    as the bit sequence itself; anything else is read as hex, with num_vars
    inferred from the digit count unless given.  A leading ``0x`` forces hex.
    """
    if text.startswith(("0x", "0X")):
        return TruthTable.from_hex(text[2:], num_vars)
    if text and all(ch in "01" for ch in text):
        length = len(text)
        if length >= 2 and not (length & (length - 1)):
            width = length.bit_length() - 1
            if num_vars is not None and width != num_vars:
                raise ParseError(f"bit string has {width} vars, expected {num_vars}", 0)
            return TruthTable.from_bytes(width, text.encode().translate(_FROM_DIGITS))
    return TruthTable.from_hex(text, num_vars)
