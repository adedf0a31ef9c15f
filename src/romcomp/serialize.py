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
"""

from __future__ import annotations

import json
from typing import Any

from .program import (
    CLASSICAL,
    QUANTUM,
    DyadicExponent,
    DyadicGate,
    Gate,
    Instruction,
    PermutationGate,
    ProgramError,
    RomProgram,
    RomSpace,
    UnitaryGate,
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
    """The wire-format document.  Instructions that share a gate object share
    its gate dict, so compiled programs cost one dict per distinct gate."""
    gate_dicts: dict[int, dict[str, Any]] = {}
    instructions = []
    for inst in program.instructions:
        gate_dict = gate_dicts.get(id(inst.gate))
        if gate_dict is None:
            gate_dict = gate_dicts[id(inst.gate)] = gate_to_dict(inst.gate)
        instructions.append({"control": inst.control, "gate": gate_dict})
    return {
        "num_rom_bits": program.space.num_rom_bits,
        "num_writable": program.space.num_writable,
        "kind": program.space.kind,
        "instructions": instructions,
    }


def dumps(program: RomProgram) -> str:
    return json.dumps(program_to_dict(program))


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
        return DyadicGate(data["axis"], DyadicExponent(data["num"], data["log2den"]))
    if "matrix" in data:
        rows = data["matrix"]
        _require(
            isinstance(rows, list) and len(rows) == 4
            and all(isinstance(e, list) and len(e) == 2 for e in rows)
            and all(type(x) in (int, float) for e in rows for x in e),
            "matrix must be four [re, im] pairs of numbers",
        )
        entries = tuple(complex(re, im) for re, im in rows)
        return UnitaryGate(entries)  # type: ignore[arg-type]
    raise ProgramFormatError(f"unrecognized gate object with keys {sorted(data)}")


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
    instructions = []
    # Compiled classical programs repeat a few dozen gates, each shared by
    # permutation_gate: build one instruction per distinct (gate, control).
    interned: dict[tuple[int, int | None], Instruction] = {}
    for pos, item in enumerate(raw):
        # Plain ifs, not _require: its message would be formatted every time.
        if not (isinstance(item, dict) and "gate" in item):
            raise ProgramFormatError(f"instruction {pos} must be an object with a gate")
        control = item.get("control")
        if not (control is None or type(control) is int):
            raise ProgramFormatError(f"instruction {pos}: control must be an integer or null")
        gate = gate_from_dict(item["gate"])
        key = (id(gate), control)
        if key not in interned:
            interned[key] = Instruction(gate, control)
        instructions.append(interned[key])
    return RomProgram(space, tuple(instructions))


def loads(text: str) -> RomProgram:
    """Parse a wire-format document; every rejection is a ProgramFormatError."""
    try:
        return program_from_dict(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ProgramFormatError(f"invalid JSON: {exc}") from exc
    except ProgramFormatError:
        raise
    except ProgramError as exc:
        # The model's own checks (widths, permutations, unitarity, controls).
        raise ProgramFormatError(str(exc)) from exc
