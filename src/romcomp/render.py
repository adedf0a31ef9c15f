"""Plain-text circuit diagrams: ROM bits above, writable wires below.

One column per instruction.  A ``*`` on a ROM row marks the control, joined
by ``|`` down to the gate; recognizable two-register gates are drawn as NOT
(``X``) and controlled-NOT (``o``/``X``), anything else as a ``P`` block.
"""

from __future__ import annotations

from .program import (
    DyadicGate,
    Instruction,
    RomProgram,
    UnitaryGate,
)

# Most cells (rows times columns, labels included) a diagram may have.
MAX_RENDER_CELLS = 2**24


def _rotation_label(gate: DyadicGate) -> str:
    if gate.exponent.log2den == 0 and gate.exponent.num == 1:
        return gate.axis
    return f"{gate.axis}^{gate.exponent}"


def _xor_constant(images: tuple[int, ...]) -> int | None:
    """If the permutation is s -> s ^ c for a constant c, return c."""
    c = images[0]
    if all(img == s ^ c for s, img in enumerate(images)):
        return c
    return None


def _wire_glyphs(inst: Instruction, num_writable: int) -> dict[int, str]:
    """Glyph per writable wire row (0-based, wire 1 first)."""
    gate = inst.gate
    if isinstance(gate, DyadicGate):
        return {0: _rotation_label(gate)}
    if isinstance(gate, UnitaryGate):
        return {0: "U"}
    images = gate.perm.images
    constant = _xor_constant(images)
    if constant is not None:
        if constant == 0:
            return {0: "I"}
        return {bit: "X" for bit in range(num_writable) if constant >> bit & 1}
    if num_writable == 2:
        if images == (0, 1, 3, 2):
            return {0: "X", 1: "o"}
        if images == (0, 3, 2, 1):
            return {0: "o", 1: "X"}
    return {bit: "P" for bit in range(num_writable)}


def render_program(program: RomProgram) -> str:
    """Deterministic monospace diagram of a program, if within ``MAX_RENDER_CELLS``."""
    j = program.space.num_rom_bits
    n = program.space.num_writable
    area = (j + n) * (len(program) + 1)
    if area > MAX_RENDER_CELLS:
        raise ValueError(f"the diagram needs {area} cells (limit {MAX_RENDER_CELLS})")
    kind_prefix = "q" if program.space.kind == "quantum" else "b"
    # Row order: u_j .. u_1 on top, then the writable wires.
    rom_row = {index: j - index for index in range(1, j + 1)}
    wire_row = {bit: j + bit for bit in range(n)}
    labels = [f"u{index}" for index in range(j, 0, -1)]
    labels += [f"{kind_prefix}{bit + 1}" for bit in range(n)]
    label_width = max(len(s) for s in labels)

    columns: list[list[str]] = []
    for inst in program.instructions:
        glyphs = _wire_glyphs(inst, n)
        cells = [""] * (j + n)
        for bit, glyph in glyphs.items():
            cells[wire_row[bit]] = glyph
        if inst.control is not None:
            top = rom_row[inst.control]
            cells[top] = "*"
            gate_top = min(wire_row[bit] for bit in glyphs) if glyphs else j + n - 1
            for row in range(top + 1, gate_top):
                cells[row] = "|"
        columns.append(cells)

    width_of = [max(2, max(len(c[row]) for row in range(j + n))) for c in columns]
    lines = []
    for row in range(j + n):
        on_wire = row >= j
        pad = "-" if on_wire else " "
        parts = [labels[row].rjust(label_width), " ", "-" if on_wire else " "]
        for col, cells in enumerate(columns):
            cell = cells[row]
            if not cell:
                cell = "-" if on_wire else " "
            parts.append(cell.center(width_of[col] + 2, pad))
        parts.append("-" if on_wire else " ")
        lines.append("".join(parts).rstrip())
    return "\n".join(lines) + "\n"
