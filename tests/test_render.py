from romcomp import (
    CLASSICAL,
    QUANTUM,
    Instruction,
    RomProgram,
    RomSpace,
    UnitaryGate,
    render_program,
)
from romcomp.program import permutation_gate
from romcomp.synth_quantum import and_fast

from test_sim_classical import worked_example_program


def test_empty_program_renders_header_only():
    out = render_program(RomProgram(RomSpace(2, 2, CLASSICAL)))
    lines = out.splitlines()
    assert len(lines) == 4  # u2, u1, b1, b2
    assert lines[0].startswith("u2")
    assert lines[-1].startswith("b2")
    assert "*" not in out


def test_worked_example_rendering():
    out = render_program(worked_example_program())
    lines = out.splitlines()
    assert len(lines) == 5  # three ROM rows, two wires
    wire1, wire2 = lines[3], lines[4]
    assert wire1.startswith("b1") and wire2.startswith("b2")
    # Four gate columns: X on wire 1, cnot (o over X), X on wire 2, X on wire 1.
    assert wire1.count("X") == 2 and wire1.count("o") == 1
    assert wire2.count("X") == 2
    # One control star per instruction, on the right ROM rows (u3 topmost).
    assert lines[0].count("*") == 1  # u3
    assert lines[1].count("*") == 1  # u2
    assert lines[2].count("*") == 2  # u1 controls two gates


def test_quantum_rendering_labels():
    out = render_program(and_fast([1, 2], 2))
    assert "X^1/2" in out
    assert "X^-1/2" in out
    assert out.splitlines()[2].startswith("q1")


def test_render_is_deterministic():
    prog = worked_example_program()
    assert render_program(prog) == render_program(prog)


def test_render_column_count():
    prog = worked_example_program()
    out = render_program(prog)
    # Every instruction occupies one column: count gate glyphs on wires.
    wires = out.splitlines()[3:]
    glyphs = sum(line.count("X") + line.count("o") + line.count("P") for line in wires)
    assert glyphs >= len(prog.instructions)


def test_identity_cnot_into_register_one_and_other_gates_have_their_own_glyphs():
    # I for the identity, X over o for the CNOT into register 1, a P block
    # for any other permutation and U for a raw matrix.
    gates = [((0, 1, 2, 3), None), ((0, 1, 3, 2), 1), ((1, 2, 3, 0), None)]
    classical = RomProgram(RomSpace(1, 2, CLASSICAL),
                           tuple(Instruction(permutation_gate(p), c) for p, c in gates))
    assert render_program(classical).splitlines() == [
        "u1       *",
        "b1 --I---X---P---",
        "b2 ------o---P---",
    ]
    raw = Instruction(UnitaryGate((0j, 1 + 0j, 1j, 0j)), 1)
    assert render_program(RomProgram(RomSpace(1, 1, QUANTUM), (raw,))).splitlines() == [
        "u1   *",
        "q1 --U---",
    ]
