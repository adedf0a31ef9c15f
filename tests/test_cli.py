import io
import json

import pytest

from romcomp import (
    ProgramFormatError,
    and_barrington,
    and_fast,
    and_naive,
    and_sequence,
    balanced_and_circuit,
    circuit_to_three_bit,
    dumps,
    extract_boolean,
    extract_function,
    loads,
    rom_call_count,
)
from romcomp.cli import main
from romcomp.synth_classical import MAX_CIRCUIT_DEPTH

from test_sim_classical import worked_example_program
from test_sim_quantum import two_control_flip_program


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_error_line(code, out, err):
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_anf_table_to_monomials(capsys):
    code, out, _ = run(capsys, "anf", "--table", "0100")
    assert code == 0
    assert out.strip() == "1,1.2"


def test_anf_monomials_to_table(capsys):
    code, out, _ = run(capsys, "anf", "--monomials", "1,1.2")
    assert code == 0
    assert out.strip() == "0100"


def test_anf_empty_monomials(capsys):
    code, out, _ = run(capsys, "anf", "--monomials", "", "--num-vars", "2")
    assert code == 0
    assert out.strip() == "0000"


def test_anf_round_trip_random(capsys):
    import random

    rng = random.Random(4)
    for _ in range(10):
        bits = "".join(rng.choice("01") for _ in range(16))
        code, monos, _ = run(capsys, "anf", "--table", bits)
        assert code == 0
        code, back, _ = run(capsys, "anf", "--monomials", monos.strip(), "--num-vars", "4")
        assert code == 0
        assert back.strip() == bits


def test_anf_parse_error_has_position(capsys):
    code, _, err = run(capsys, "anf", "--monomials", "1,,2")
    assert code == 2
    assert "position" in err


@pytest.mark.parametrize("argv,position", [
    (("anf", "--table", "1_00"), 1),
    (("anf", "--table", "+1"), 0),
    (("anf", "--table", " 1"), 0),
    (("anf", "--table", "-0"), 0),
    (("anf", "--table", "١"), 0),
    (("anf", "--monomials", "1.²"), 2),
    (("anf", "--monomials", "١.2"), 0),
    (("compile", "--backend", "quantum1", "--monomials", "١.2"), 0),
    (("compile", "--backend", "quantum1", "--f1", "t:1_00"), 1),
    (("compile", "--backend", "classical3", "--circuit", "(not x²)"), 5),
])
def test_text_inputs_take_ascii_digits_only(capsys, argv, position):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("parse error:")
    assert lines[0].endswith(f"(at position {position})")


def test_anf_requires_exactly_one_input(capsys):
    code, _, err = run(capsys, "anf")
    assert code == 2
    code, _, err = run(capsys, "anf", "--table", "01", "--monomials", "1")
    assert code == 2


def test_compile_and_of_four_quantum_fast(capsys):
    code, out, err = run(capsys, "compile", "--backend", "quantum1", "--and-of", "4")
    assert code == 0
    assert "rom_calls=16" in err
    prog = loads(out)
    assert prog.space.kind == "quantum"


def test_compile_and_of_two_quantum(capsys):
    code, out, err = run(capsys, "compile", "--backend", "quantum1", "--and-of", "2")
    assert code == 0
    assert "rom_calls=4" in err


def test_compile_and_of_two_classical2(capsys):
    code, out, err = run(capsys, "compile", "--backend", "classical2", "--and-of", "2")
    assert code == 0
    assert "rom_calls=4" in err
    assert loads(out).space.num_writable == 2


def test_compile_naive_flag(capsys):
    code, _, err = run(
        capsys, "compile", "--backend", "quantum1", "--and-of", "3", "--naive"
    )
    assert code == 0
    assert "rom_calls=10" in err


def test_compile_verify_pipe_quantum(capsys, tmp_path):
    code, out, _ = run(
        capsys, "compile", "--backend", "quantum1", "--monomials", "1,1.2",
    )
    assert code == 0
    path = tmp_path / "prog.json"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", str(path), "--monomials", "1,1.2")
    assert code == 0
    assert "ok" in out


def test_compile_verify_pipe_classical2(capsys, tmp_path):
    code, out, _ = run(
        capsys, "compile", "--backend", "classical2",
        "--f1", "1,3", "--f2", "1,1.2", "--num-rom-bits", "3",
    )
    assert code == 0
    path = tmp_path / "prog.json"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", str(path), "--f1", "1,3", "--f2", "1,1.2")
    assert code == 0


def test_compile_verify_pipe_classical3(capsys, tmp_path):
    code, out, _ = run(
        capsys, "compile", "--backend", "classical3", "--circuit", "(and x1 (or x2 x3))",
    )
    assert code == 0
    path = tmp_path / "prog.json"
    path.write_text(out)
    # (and x1 (or x2 x3)) = u1u2 XOR u1u3 XOR u1u2u3.
    code, out, _ = run(capsys, "verify", str(path), "--f1", "1.2,1.3,1.2.3")
    assert code == 0


def test_compile_verify_pipe_quantum1_circuit(capsys, tmp_path):
    code, out, err = run(
        capsys, "compile", "--backend", "quantum1", "--circuit", "(or (not x1) (and x2 x3))",
    )
    assert code == 0
    assert "rom_calls=10" in err
    path = tmp_path / "prog.json"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", str(path), "--table", "10101011")
    assert code == 0


def test_quantum1_folds_nested_or_fixups_into_one_gate(capsys):
    # The inner OR's NOT fixup lands on the step that already carries the
    # outer OR's: one uncontrolled gate, not two (25 gates when unfolded).
    code, _, err = run(
        capsys, "compile", "--backend", "quantum1", "--circuit", "(or (or x1 x2) x3)",
    )
    assert code == 0
    assert "rom_calls=10 gates=20" in err


def test_compile_classical3_from_monomials(capsys, tmp_path):
    code, out, _ = run(
        capsys, "compile", "--backend", "classical3", "--monomials", "1,2",
    )
    assert code == 0
    path = tmp_path / "prog.json"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", str(path), "--f1", "1,2")
    assert code == 0


def test_compile_output_file(capsys, tmp_path):
    path = tmp_path / "out.json"
    code, out, err = run(
        capsys, "compile", "--backend", "quantum1", "--and-of", "2", "-o", str(path)
    )
    assert code == 0
    assert out == ""
    assert loads(path.read_text()) == two_control_flip_program()


def test_verify_worked_example(capsys, tmp_path):
    path = tmp_path / "example.json"
    path.write_text(dumps(worked_example_program()))
    code, out, _ = run(capsys, "verify", str(path), "--f1", "1,3", "--f2", "1,1.2")
    assert code == 0


def test_verify_empty_program_constant_zero(capsys, tmp_path):
    from romcomp import CLASSICAL, RomProgram, RomSpace

    path = tmp_path / "empty.json"
    path.write_text(dumps(RomProgram(RomSpace(2, 2, CLASSICAL))))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0


def test_verify_mismatch_reports_first_point(capsys, tmp_path):
    path = tmp_path / "qand.json"
    path.write_text(dumps(two_control_flip_program()))
    # OR differs from AND first at u = (1, 0).
    code, out, _ = run(capsys, "verify", str(path), "--monomials", "1,2,1.2")
    assert code == 1
    assert "u=(1,0)" in out


@pytest.mark.parametrize("f1,f2,line", [
    # Component 1 differs only at u = 7, component 2 first at u = 2.
    ("1,3,1.2.3", "1,1.2,2", "mismatch at u=(0,1,0) component 2: got 0 expected 1"),
    # Both differ first at u = 1: the lower component is named.
    ("3", "1.2", "mismatch at u=(1,0,0) component 1: got 1 expected 0"),
    # Only the last assignment differs.
    ("1,3,1.2.3", "1,1.2", "mismatch at u=(1,1,1) component 1: got 0 expected 1"),
])
def test_verify_names_the_lowest_assignment_then_the_lowest_component(capsys, tmp_path, f1, f2,
                                                                       line):
    # The worked example computes (u1 XOR u3, u1 XOR u1u2).
    path = tmp_path / "example.json"
    path.write_text(dumps(worked_example_program()))
    code, out, _ = run(capsys, "verify", str(path), "--f1", f1, "--f2", f2)
    assert (code, out) == (1, line + "\n")


def test_verify_nonclassical_exit_code(capsys, tmp_path):
    from romcomp import DyadicExponent, DyadicGate, Instruction, RomProgram, RomSpace

    prog = RomProgram(
        RomSpace(1, 1, "quantum"),
        (Instruction(DyadicGate("X", DyadicExponent(1, 1)), None),),
    )
    path = tmp_path / "super.json"
    path.write_text(dumps(prog))
    code, out, _ = run(capsys, "verify", str(path), "--monomials", "")
    assert code == 3


def test_verify_bad_json_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2


def test_verify_refuses_quantum_width_past_sweep_limit(capsys, tmp_path):
    from romcomp import QUANTUM, RomProgram, RomSpace

    path = tmp_path / "wide.json"
    path.write_text(dumps(RomProgram(RomSpace(21, 1, QUANTUM))))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_verify_rejects_nan_matrix_on_stdin(capsys, monkeypatch):
    gate = {"matrix": [[1, 0], [0, 0], [0, 0], [float("nan"), 0]]}
    text = json.dumps({"num_rom_bits": 1, "num_writable": 1, "kind": "quantum",
                       "instructions": [{"control": None, "gate": gate}]})
    assert "NaN" in text
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "verify", "-")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_verify_rejects_huge_log2den_on_stdin(capsys, monkeypatch):
    gate = {"axis": "X", "num": 1, "log2den": 10**9}
    text = json.dumps({"num_rom_bits": 1, "num_writable": 1, "kind": "quantum",
                       "instructions": [{"control": 1, "gate": gate}]})
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "verify", "-")
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


HEAD = '{"num_rom_bits": 1, "num_writable": 1, "kind": "quantum", "instructions": '


@pytest.mark.parametrize("text", [
    HEAD + "[" * 100_000 + "]" * 100_000 + "}",
    HEAD + '[{"control": 1, "gate": {"axis": "X", "num": 1' + "0" * 5000 + ', "log2den": 0}}]}',
    HEAD + '[{"control": null, "gate": {"matrix": [[1' + "0" * 400 + ', 0], [0, 0], [0, 0], [1, 0]]}}]}',
], ids=["nested-100000-deep", "integer-of-5001-digits", "integer-too-large-for-a-float"])
def test_verify_refuses_unreadable_json_with_one_error_line(capsys, monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "verify", "-")
    assert_one_error_line(code, out, err)
    assert "Traceback" not in err
    with pytest.raises(ProgramFormatError):
        loads(text)


def test_verify_rejects_string_width(capsys, tmp_path):
    path = tmp_path / "width.json"
    path.write_text('{"num_rom_bits": "3", "num_writable": 2, "kind": "classical", '
                    '"instructions": []}')
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_render_worked_example(capsys, tmp_path):
    path = tmp_path / "example.json"
    path.write_text(dumps(worked_example_program()))
    code, out, _ = run(capsys, "render", str(path))
    assert code == 0
    assert out.splitlines()[0].startswith("u3")
    code2, out2, _ = run(capsys, "render", str(path))
    assert out2 == out


def test_render_refuses_a_diagram_with_too_many_rom_rows(capsys, monkeypatch):
    # One row per ROM bit: refused before any row is drawn.
    doc = {"num_rom_bits": 30_000_000, "num_writable": 1, "kind": "quantum", "instructions": []}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert_one_error_line(*run(capsys, "render", "-"))


def test_render_refuses_a_diagram_with_too_many_cells(capsys, monkeypatch):
    # 257 rows by 65,537 columns is 16,843,009 cells, just past 2^24.
    program = and_fast(list(range(1, 257)), 256)
    monkeypatch.setattr("sys.stdin", io.StringIO(dumps(program)))
    code, out, err = run(capsys, "render", "-")
    assert_one_error_line(code, out, err)
    assert "16843009 cells" in err


def test_counts_table(capsys):
    code, out, _ = run(capsys, "counts", "--j-max", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert lines[0].split() == ["j", "naive", "fast", "twobit", "threebit", "conjectured"]
    row2 = lines[2].split()
    assert row2 == ["2", "4", "4", "4", "4", "3"]
    row4 = lines[4].split()
    assert row4[0] == "4" and row4[2] == "16"
    # Fast column obeys the quadratic bound.
    for line in lines[1:]:
        j, _, fast = int(line.split()[0]), line.split()[1], int(line.split()[2])
        assert fast <= 4 * j * j


def test_counts_up_to_the_cli_cap(capsys):
    code, out, _ = run(capsys, "counts", "--j-max", "16")
    assert code == 0
    rows = [[int(x) for x in line.split()] for line in out.splitlines()[1:]]
    assert [row[0] for row in rows] == list(range(1, 17))
    # naive and twobit are the doubling constructions: 3 * 2^(j-1) - 2.
    assert all(row[1] == row[3] == 3 * 2 ** (row[0] - 1) - 2 for row in rows)
    assert rows[-1] == [16, 98302, 256, 98302, 256, 765]


def test_counts_columns_are_the_programs_that_compile_emits(capsys):
    code, out, _ = run(capsys, "counts", "--j-max", "8")
    assert code == 0
    header, *rows = [line.split() for line in out.splitlines()]
    backends = {"naive": ["quantum1", "--naive"], "fast": ["quantum1"],
                "twobit": ["classical2"], "threebit": ["classical3"]}
    assert header[1:5] == list(backends)
    assert [row[0] for row in rows] == [str(j) for j in range(1, 9)]
    for row in rows:
        for calls, backend in zip(row[1:5], backends.values()):
            code, _, err = run(capsys, "compile", "--backend", *backend, "--and-of", row[0])
            assert code == 0 and err.split()[0] == f"rom_calls={calls}"


def test_doubling_constructions_past_the_bound_are_refused(capsys):
    for backend in (["classical2"], ["quantum1", "--naive"]):
        code, out, err = run(capsys, "compile", "--backend", *backend, "--and-of", "21")
        assert_one_error_line(code, out, err)
        assert "21 ROM bits" in err


def test_counts_cap(capsys):
    for j_max in ("17", "0"):
        assert_one_error_line(*run(capsys, "counts", "--j-max", j_max))


def test_search_command(capsys):
    code, out, err = run(capsys, "search", "--j", "2")
    assert code == 0
    assert "j=2 min_rom_calls=3" in err
    prog = loads(out)
    assert prog.space.num_writable == 2


def test_search_j4_witness_verifies(capsys, tmp_path):
    code, out, err = run(capsys, "search", "--j", "4")
    assert code == 0
    assert "j=4 min_rom_calls=9" in err
    path = tmp_path / "witness.json"
    path.write_text(out)
    code, _, _ = run(capsys, "verify", str(path), "--f1", "1.2.3.4", "--f2", "")
    assert code == 0


def test_search_depth_exhausted(capsys):
    code, _, err = run(capsys, "search", "--j", "3", "--max-depth", "2")
    assert code == 1


def test_compile_search_verify_chain(capsys, tmp_path):
    code, out, _ = run(capsys, "search", "--j", "3")
    assert code == 0
    path = tmp_path / "witness.json"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", str(path), "--f1", "1.2.3", "--f2", "")
    assert code == 0


def _pipe_compile_verify(capsys, tmp_path, compile_argv, verify_argv):
    code, out, _ = run(capsys, *compile_argv)
    assert code == 0
    path = tmp_path / "pipe.json"
    path.write_text(out)
    assert run(capsys, "verify", str(path), *verify_argv)[0] == 0


def test_quantum_compile_verify_exhaustive_j3(capsys, tmp_path):
    from romcomp import TruthTable, anf_of, format_monomials

    for packed in range(256):
        monos = format_monomials(anf_of(TruthTable.from_int(3, packed)))
        _pipe_compile_verify(
            capsys, tmp_path,
            ["compile", "--backend", "quantum1", "--monomials", monos, "--num-rom-bits", "3"],
            ["--monomials", monos],
        )


def test_classical2_compile_verify_exhaustive_j2(capsys, tmp_path):
    from romcomp import TruthTable, anf_of, format_monomials

    tables = [format_monomials(anf_of(TruthTable.from_int(2, p))) for p in range(16)]
    for m1 in tables:
        for m2 in tables:
            _pipe_compile_verify(
                capsys, tmp_path,
                ["compile", "--backend", "classical2",
                 "--f1", m1, "--f2", m2, "--num-rom-bits", "2"],
                ["--f1", m1, "--f2", m2],
            )


def test_classical3_compile_verify_exhaustive_j2(capsys, tmp_path):
    from romcomp import TruthTable, anf_of, format_monomials

    for packed in range(16):
        monos = format_monomials(anf_of(TruthTable.from_int(2, packed)))
        _pipe_compile_verify(
            capsys, tmp_path,
            ["compile", "--backend", "classical3", "--monomials", monos, "--num-rom-bits", "2"],
            ["--f1", monos, "--f2", "", "--f3", ""],
        )


def test_verify_refuses_variable_past_the_width(capsys, tmp_path):
    # The index is checked before its mask is built: 1 << 99998 used to be
    # built and then printed in the error message.
    from romcomp import CLASSICAL, RomProgram, RomSpace

    path = tmp_path / "one.json"
    path.write_text(dumps(RomProgram(RomSpace(1, 2, CLASSICAL))))
    code, out, err = run(capsys, "verify", str(path), "--f1", "1.99999")
    assert code == 2
    assert out == ""
    assert err == "parse error: variable 99999 out of range for 1 vars (at position 2)\n"


def test_anf_refuses_tables_past_the_sweep_limit(capsys):
    # Each would build a table of 2^21 or more entries; the last one's mask
    # alone would need about 125 GB.
    for argv in (["--monomials", "", "--num-vars", "21"], ["--monomials", "1.21"],
                 ["--monomials", "1,2.1000000000000"]):
        code, out, err = run(capsys, "anf", *argv)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


def test_anf_accepts_the_sweep_limit(capsys):
    code, out, _ = run(capsys, "anf", "--monomials", "20")
    assert code == 0
    assert out == "0" * (1 << 19) + "1" * (1 << 19) + "\n"


# construction -> (compile flags, library program for the AND of u1..um in j ROM bits)
AND_CONSTRUCTIONS = {
    "fast": (["--backend", "quantum1"], lambda m, j: and_fast(list(range(1, m + 1)), j)),
    "naive": (
        ["--backend", "quantum1", "--naive"], lambda m, j: and_naive(list(range(1, m + 1)), j)
    ),
    "sequence": (["--backend", "classical2"], lambda m, j: and_sequence(m, j)[0]),
    "barrington": (
        ["--backend", "classical3"],
        lambda m, j: (
            and_barrington(m) if j == m else circuit_to_three_bit(balanced_and_circuit(m), j)
        ),
    ),
}


@pytest.mark.parametrize("construction", sorted(AND_CONSTRUCTIONS))
@pytest.mark.parametrize("m", range(1, 11))
def test_and_of_prints_the_library_construction(capsys, m, construction):
    # --and-of m goes through the same path as --monomials 1.2.….m.
    flags, build = AND_CONSTRUCTIONS[construction]
    for j in (m, m + 2):
        width = [] if j == m else ["--num-rom-bits", str(j)]
        code, out, _ = run(capsys, "compile", *flags, "--and-of", str(m), *width)
        assert code == 0
        assert out == dumps(build(m, j)) + "\n"


# Each names a flag the backend does not read, or mixes a whole-function
# flag with another function flag.
REFUSED = {
    "classical2-circuit": ["compile", "--backend", "classical2", "--circuit", "(and x1 x2)"],
    "classical2-monomials-f2": ["compile", "--backend", "classical2", "--monomials", "1.2",
                                "--f2", "1"],
    "classical2-table-f1": ["compile", "--backend", "classical2", "--table", "0110", "--f1", "1"],
    "classical3-and-of-monomials": ["compile", "--backend", "classical3", "--and-of", "3",
                                    "--monomials", "1"],
    "classical3-and-of-naive": ["compile", "--backend", "classical3", "--and-of", "3", "--naive"],
    "quantum1-naive-circuit": ["compile", "--backend", "quantum1", "--naive", "--circuit",
                               "(and x1 x2)"],
    "verify-f3-two-bit": ["verify", "TWO_BIT", "--f1", "1,3", "--f2", "1,1.2", "--f3", "1.2"],
    "verify-f2-quantum": ["verify", "QUANTUM", "--monomials", "1.2", "--f2", "1"],
    "verify-monomials-table": ["verify", "QUANTUM", "--monomials", "1.2", "--table", "0110"],
}


@pytest.mark.parametrize("argv", list(REFUSED.values()), ids=list(REFUSED))
def test_unread_or_conflicting_function_flags_are_refused(capsys, tmp_path, argv):
    programs = {"TWO_BIT": worked_example_program(), "QUANTUM": two_control_flip_program()}
    for name, program in programs.items():
        (tmp_path / name).write_text(dumps(program))
    argv = [str(tmp_path / arg) if arg in programs else arg for arg in argv]
    assert_one_error_line(*run(capsys, *argv))


def test_function_wider_than_the_rom_names_its_variable(capsys):
    for backend in ("quantum1", "classical2", "classical3"):
        code, out, err = run(capsys, "compile", "--backend", backend, "--and-of", "3",
                             "--num-rom-bits", "2")
        assert_one_error_line(code, out, err)
        assert err == "error: u3 out of range for 2 vars\n"


def test_and_of_below_one_is_one_error_on_every_backend(capsys):
    for m in ("0", "-3"):
        errors = set()
        for backend in ("quantum1", "classical2", "classical3"):
            code, out, err = run(capsys, "compile", "--backend", backend, "--and-of", m)
            assert_one_error_line(code, out, err)
            errors.add(err)
        assert errors == {f"error: --and-of must be at least 1, got {m}\n"}


@pytest.mark.parametrize("argv", [
    ["anf", "--table", "6b", "--num-vars", "-1"],
    ["anf", "--monomials", "1", "--num-vars", "0"],
    ["compile", "--backend", "quantum1", "--table", "6b", "--num-vars", "-1"],
    ["compile", "--backend", "classical2", "--f1", "1", "--num-rom-bits", "-1"],
    ["compile", "--backend", "classical3", "--circuit", "x1", "--num-rom-bits", "0"],
], ids=["anf-table", "anf-monomials", "compile-num-vars", "compile-num-rom-bits",
        "compile-circuit"])
def test_width_flags_below_one_are_one_error(capsys, argv):
    # -1 used to end in "error: negative shift count".
    code, out, err = run(capsys, *argv)
    assert_one_error_line(code, out, err)
    assert err == f"error: {argv[-2]} must be at least 1, got {argv[-1]}\n"


def test_search_negative_depth_is_a_usage_error(capsys):
    assert_one_error_line(*run(capsys, "search", "--j", "3", "--max-depth", "-1"))


def test_m_prefix_names_a_monomial_list(capsys, tmp_path):
    functions = ["--f2", "t:01101001"]
    plain = run(capsys, "compile", "--backend", "classical2", "--f1", "1.2,3", *functions)
    prefixed = run(capsys, "compile", "--backend", "classical2", "--f1", "m:1.2,3", *functions)
    assert prefixed[0] == 0 and prefixed == plain
    _pipe_compile_verify(capsys, tmp_path,
                         ["compile", "--backend", "classical2", "--f1", "m:1.2,3", *functions],
                         ["--f1", "m:1.2,3", *functions])


def test_registers_without_a_flag_hold_constant_zero(capsys, tmp_path):
    for backend in ("quantum1", "classical2", "classical3"):
        _pipe_compile_verify(
            capsys, tmp_path, ["compile", "--backend", backend, "--num-vars", "2"], []
        )
    # and_sequence leaves an even-width AND in register 2, and so does --and-of.
    _pipe_compile_verify(
        capsys, tmp_path, ["compile", "--backend", "classical2", "--and-of", "2"], ["--f2", "1.2"]
    )


# 20 distinct products of 20 of the variables 1..21 (20 x 1,572,862 calls).
TWENTY_PRODUCTS = ",".join(
    ".".join(str(v) for v in range(1, 22) if v != skip) for skip in range(1, 21)
)
# 960 products of 64 consecutive variables, under a balanced XOR ten levels
# deep: 960 x 4,096 calls.  Each fits the budget, the XOR of them does not.
MANY_PRODUCTS = ",".join(".".join(str(v) for v in range(s, s + 64)) for s in range(1, 961))
# Three products of about 1,024 ROM bits (3,142,656 calls; test_synth_classical).
THREE_WIDE_PRODUCTS = ",".join(".".join(map(str, variables))
                               for variables in (range(1, 1025), range(1, 1024), range(2, 1025)))
# A left-deep AND of x1..x39: 3 * 2^38 - 2 calls on the qubit.
LEFT_DEEP_AND = "(and " * 38 + "x1 " + " ".join(f"x{index})" for index in range(2, 40))


@pytest.mark.parametrize("argv", [
    ["--backend", "classical3", "--monomials", THREE_WIDE_PRODUCTS],
    ["--backend", "classical3", "--monomials", MANY_PRODUCTS],
    ["--backend", "classical2", "--monomials", TWENTY_PRODUCTS],
    ["--backend", "classical2", "--f2", TWENTY_PRODUCTS],
    ["--backend", "quantum1", "--naive", "--monomials", TWENTY_PRODUCTS],
    ["--backend", "quantum1", "--circuit", LEFT_DEEP_AND],
], ids=["classical3", "classical3-many-products", "classical2", "classical2-f2",
        "quantum1-naive", "quantum1-circuit"])
def test_compile_refuses_programs_past_the_rom_call_budget(capsys, argv):
    code, out, err = run(capsys, "compile", *argv)
    assert_one_error_line(code, out, err)
    assert "ROM calls" in err


@pytest.mark.parametrize("argv", [
    ["--monomials", "20000000000"],
    ["--monomials", "1,2.1000000000000"],
    ["--monomials", "1", "--num-rom-bits", "20000000000"],
    ["--monomials", "1", "--num-vars", "20000000000"],
    ["--table", "ff", "--num-vars", "20000000000"],
    ["--f1", "m:1.2000"],
    ["--and-of", "20000000000"],
    ["--monomials", "1", "--num-rom-bits", "1025"],
], ids=["index", "index-in-product", "num-rom-bits", "num-vars", "table-num-vars", "f1",
        "and-of", "one-past-the-cap"])
def test_compile_refuses_widths_past_the_cap(capsys, argv):
    # Each would build masks or tables of 2^width bits before failing.
    code, out, err = run(capsys, "compile", "--backend", "quantum1", *argv)
    assert_one_error_line(code, out, err)
    assert "exceed the limit (1024)" in err


def test_compile_width_cap_covers_every_backend(capsys):
    for argv in (["classical2", "--f2", "1.2000"], ["classical3", "--circuit", "(and x1 x2000)"]):
        code, out, err = run(capsys, "compile", "--backend", *argv)
        assert_one_error_line(code, out, err)
        assert "2000 variables exceed the limit (1024)" in err


def test_compile_accepts_the_width_cap(capsys):
    code, out, _ = run(capsys, "compile", "--backend", "quantum1", "--monomials", "1",
                       "--num-rom-bits", "1024")
    assert code == 0
    assert json.loads(out)["num_rom_bits"] == 1024


def test_anf_refuses_a_wide_table_width(capsys):
    assert_one_error_line(*run(capsys, "anf", "--table", "ff", "--num-vars", "20000000000"))


@pytest.mark.parametrize("flag", [["--f1", "1"], ["--table", "ff"]])
def test_verify_refuses_a_wide_program_before_building_the_expected_table(capsys, tmp_path, flag):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"num_rom_bits": 20000000000, "num_writable": 2,
                                "kind": "classical", "instructions": []}))
    code, out, err = run(capsys, "verify", str(path), *flag)
    assert_one_error_line(code, out, err)
    assert "sweep limit" in err


def nested_nots(depth):
    return "(not " * depth + "x1" + ")" * depth


@pytest.mark.parametrize("depth", [MAX_CIRCUIT_DEPTH + 1, 1200])
def test_compile_refuses_circuits_nested_past_the_cap(capsys, depth):
    # 1,200 levels used to end in a RecursionError traceback.
    code, out, err = run(capsys, "compile", "--backend", "classical3", "--circuit", nested_nots(depth))
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"parse error: circuit nested deeper than {MAX_CIRCUIT_DEPTH} levels"
        f" (at position {5 * MAX_CIRCUIT_DEPTH})"
    ]


@pytest.mark.parametrize("backend", ["classical3", "quantum1"])
def test_compile_refuses_ors_nested_to_the_cap_by_their_rom_calls(capsys, backend):
    # OR is NOT(AND(NOT, NOT)), so these are the deepest circuit walks the
    # parser admits: three frames per OR, and the ROM-call budget refuses them.
    circuit = "x1"
    for index in range(2, MAX_CIRCUIT_DEPTH + 2):
        circuit = f"(or {circuit} x{index})"
    code, out, err = run(capsys, "compile", "--backend", backend, "--circuit", circuit)
    assert_one_error_line(code, out, err)
    assert "ROM calls" in err


@pytest.mark.parametrize("backend, table_of", [
    ("classical3", lambda program: extract_function(program).components[0]),
    ("quantum1", extract_boolean),
], ids=["classical3", "quantum1"])
def test_compile_accepts_circuits_nested_to_the_cap(capsys, backend, table_of):
    # Ten ORs around NOTs up to the cap: both recursions go deepest through
    # the OR rewrite, and the whole circuit is the OR of x1..x11.
    circuit = nested_nots(MAX_CIRCUIT_DEPTH - 10)
    for index in range(2, 12):
        circuit = f"(or {circuit} x{index})"
    code, out, _ = run(capsys, "compile", "--backend", backend, "--circuit", circuit)
    assert code == 0
    assert table_of(loads(out)).bits == (0,) + (1,) * ((1 << 11) - 1)


@pytest.mark.parametrize("backend", ["classical3", "quantum1"])
def test_compile_accepts_xors_nested_to_the_cap(capsys, tmp_path, backend):
    # 200 nested XORs take one frame per level in each recursion, and cost
    # one call per input: 201.  x1..x9 are read 13 times, x10..x16 12 times.
    circuit = "x1"
    for k in range(2, MAX_CIRCUIT_DEPTH + 2):
        circuit = f"(xor {circuit} x{(k - 1) % 16 + 1})"
    code, out, _ = run(capsys, "compile", "--backend", backend, "--circuit", circuit)
    assert code == 0
    assert rom_call_count(loads(out)) == MAX_CIRCUIT_DEPTH + 1
    path = tmp_path / "xors.json"
    path.write_text(out)
    assert run(capsys, "verify", str(path), "--monomials", "1,2,3,4,5,6,7,8,9") == (
        0, "ok: all 65536 assignments match\n", "")


def test_classical3_compiles_many_narrow_products_at_their_predicted_calls(capsys):
    # 999 products of 8 variables: the XOR of ANDs costs 999 x 64 calls.
    products = ",".join(".".join(str(v) for v in range(s, s + 8)) for s in range(1, 1000))
    code, out, _ = run(capsys, "compile", "--backend", "classical3", "--monomials", products)
    assert code == 0
    assert rom_call_count(loads(out)) == 999 * 64
