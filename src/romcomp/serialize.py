"""JSON wire format for ROM programs.

This is the contract between the CLI, the simulators and the compilers:

    {"num_rom_bits": j, "num_writable": n, "kind": "classical" | "quantum",
     "instructions": [{"control": i | null, "gate": <gate>}, ...]}

where <gate> is one of

    {"perm": [s0, s1, ...]}                       classical permutation
    {"axis": "X" | "Z", "num": p, "log2den": k}   dyadic rotation X^t / Z^t
    {"matrix": [[re, im], [re, im], [re, im], [re, im]]}   raw unitary, row-major

Integer fields take JSON integers only: a JSON boolean is rejected, although
Python counts ``bool`` as an ``int``, so every check is ``type(x) is int``.

``dumps`` writes the canonical text, ``json.dumps(program_to_dict(program))``,
rendering each distinct (gate, control) once.  ``loads`` reads canonical text
per distinct instruction: it parses each distinct instruction text once and
accepts the result only if it renders back to the same bytes.  Any other text
goes through ``json.loads`` and ``program_from_dict``, which give every error
its message.
"""

from __future__ import annotations

import json
from typing import Any

from .program import (
    CLASSICAL,
    QUANTUM,
    DyadicGate,
    Gate,
    Instruction,
    PermutationGate,
    ProgramError,
    RomProgram,
    RomSpace,
    UnitaryGate,
    dyadic_gate,
    permutation_gate,
)


class ProgramFormatError(ProgramError):
    """The JSON document does not follow the program wire format."""


def gate_to_dict(gate: Gate) -> dict[str, Any]:
    if isinstance(gate, PermutationGate):
        return {"perm": list(gate.perm.images)}
    if isinstance(gate, DyadicGate):
        return {"axis": gate.axis, "num": gate.exponent.num, "log2den": gate.exponent.log2den}
    return {"matrix": [[z.real, z.imag] for z in gate.entries]}


def program_to_dict(program: RomProgram) -> dict[str, Any]:
    """The wire-format document, the reference for ``dumps``."""
    return {
        "num_rom_bits": program.space.num_rom_bits,
        "num_writable": program.space.num_writable,
        "kind": program.space.kind,
        "instructions": [
            {"control": inst.control, "gate": gate_to_dict(inst.gate)}
            for inst in program.instructions
        ],
    }


# Text of every instruction but the first begins with ", " + _ITEM.
_ITEM = '{"control": '
_NEXT_ITEM = ", " + _ITEM


def _head_text(space: RomSpace) -> str:
    """What ``dumps`` writes before the first instruction."""
    return json.dumps(program_to_dict(RomProgram(space)))[:-2]


def _instruction_text(inst: Instruction, gate_texts: dict[int, str]) -> str:
    """``json.dumps({"control": inst.control, "gate": gate_to_dict(inst.gate)})``;
    ``gate_texts`` holds the text of each gate object seen so far."""
    gate_text = gate_texts.get(id(inst.gate))
    if gate_text is None:
        gate_text = gate_texts[id(inst.gate)] = json.dumps(gate_to_dict(inst.gate))
    # str() writes a plain int as json.dumps does, at a tenth of the cost.
    control = str(inst.control) if type(inst.control) is int else json.dumps(inst.control)
    return f'{_ITEM}{control}, "gate": {gate_text}}}'


def dumps(program: RomProgram) -> str:
    """``json.dumps(program_to_dict(program))``, each distinct (gate, control)
    rendered once.  The program keeps its gates alive, so ids stay unique."""
    gate_texts: dict[int, str] = {}
    texts: dict[tuple[int, int | None], str] = {}
    parts = []
    for inst in program.instructions:
        key = (id(inst.gate), inst.control)
        text = texts.get(key)
        if text is None:
            text = texts[key] = _instruction_text(inst, gate_texts)
        parts.append(text)
    return _head_text(program.space) + ", ".join(parts) + "]}"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProgramFormatError(message)


def gate_from_dict(data: Any) -> Gate:
    # A plain if, not _require: the loader calls this once per instruction.
    if not isinstance(data, dict):
        raise ProgramFormatError(f"gate must be an object, got {type(data).__name__}")
    if "perm" in data:
        images = data["perm"]
        # Check the types before the lookup: [true, false] would otherwise
        # find the gate shared for [1, 0].
        _require(isinstance(images, list) and set(map(type, images)) <= {int},
                 "perm must be a list of integers")
        return permutation_gate(tuple(images))
    if "axis" in data:
        _require(type(data.get("num")) is int and type(data.get("log2den")) is int,
                 "dyadic gate needs integer num and log2den")
        return dyadic_gate(data["axis"], data["num"], data["log2den"])
    if "matrix" in data:
        rows = data["matrix"]
        _require(
            isinstance(rows, list) and len(rows) == 4
            and all(isinstance(e, list) and len(e) == 2 for e in rows)
            and all(type(x) in (int, float) for e in rows for x in e),
            "matrix must be four [re, im] pairs of numbers",
        )
        try:
            entries = tuple(complex(re, im) for re, im in rows)
        except OverflowError:  # an integer too large for a float
            raise ProgramFormatError("matrix entries must be finite") from None
        return UnitaryGate(entries)  # type: ignore[arg-type]
    raise ProgramFormatError(f"unrecognized gate object with keys {sorted(data)}")


def _instruction(item: Any, pos: int) -> Instruction:
    # Plain ifs, not _require: its message would be formatted every time.
    if not (isinstance(item, dict) and "gate" in item):
        raise ProgramFormatError(f"instruction {pos} must be an object with a gate")
    control = item.get("control")
    if not (control is None or type(control) is int):
        raise ProgramFormatError(f"instruction {pos}: control must be an integer or null")
    return Instruction(gate_from_dict(item["gate"]), control)


def program_from_dict(data: Any) -> RomProgram:
    _require(isinstance(data, dict), "program must be a JSON object")
    for key in ("num_rom_bits", "num_writable", "kind", "instructions"):
        _require(key in data, f"program is missing {key!r}")
    _require(data["kind"] in (CLASSICAL, QUANTUM), f"unknown kind {data['kind']!r}")
    _require(type(data["num_rom_bits"]) is int and type(data["num_writable"]) is int,
             "num_rom_bits and num_writable must be integers")
    space = RomSpace(data["num_rom_bits"], data["num_writable"], data["kind"])
    raw = data["instructions"]
    _require(isinstance(raw, list), "instructions must be a list")
    return RomProgram(space, tuple(_instruction(item, pos) for pos, item in enumerate(raw)))


# What reading a document can raise: ValueError covers JSON syntax,
# ProgramError and integers past Python's digit limit; RecursionError covers
# nesting past the recursion limit.
_REJECTIONS = (ValueError, RecursionError)


def _loads_canonical(text: str) -> RomProgram | None:
    """The program if ``text`` is ``dumps`` of it plus trailing whitespace,
    else None.

    The text is split into one piece per instruction with no whole copy of it
    first; the distinct pieces are parsed together and checked once each.
    The head and every piece must render back to the same bytes, which proves
    that the general path would read an equal program from ``text``."""
    pieces = text.split(_NEXT_ITEM)
    head, sep, pieces[0] = pieces[0].partition('"instructions": [')
    # JSON whitespace may follow: the CLI prints the text with a newline.
    last = pieces[-1].rstrip(" \t\n\r")
    if not sep or not last.endswith("]}"):
        return None
    head, pieces[-1] = head + sep, last[:-2]
    space = program_from_dict(json.loads(head + "]}")).space
    if _head_text(space) != head:
        return None
    if pieces == [""]:
        return RomProgram(space)
    if not pieces[0].startswith(_ITEM):
        return None
    pieces[0] = pieces[0][len(_ITEM):]
    distinct = list(set(pieces))
    items = json.loads("[" + _ITEM + _NEXT_ITEM.join(distinct) + "]")
    if len(items) != len(distinct):
        return None
    gate_texts: dict[int, str] = {}
    by_piece: dict[str, Instruction] = {}
    for piece, item in zip(distinct, items):
        # On a rejection the general path reports the real position.
        inst = _instruction(item, 0)
        if _instruction_text(inst, gate_texts) != _ITEM + piece:
            return None
        by_piece[piece] = inst
    return RomProgram(space, tuple(map(by_piece.__getitem__, pieces)))


def loads(text: str) -> RomProgram:
    """Parse a wire-format document; every rejection is a ProgramFormatError."""
    try:
        program = _loads_canonical(text)
    except _REJECTIONS:
        program = None
    if program is not None:
        return program
    try:
        return program_from_dict(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ProgramFormatError(f"invalid JSON: {exc}") from exc
    except ProgramFormatError:
        raise
    except _REJECTIONS as exc:
        # The model's own checks (widths, permutations, unitarity, controls),
        # and JSON past Python's nesting or integer-digit limits.
        raise ProgramFormatError(str(exc)) from exc
