"""Running a program under one ROM assignment, or under all of them at once.

``sweep`` keeps one state row per assignment, in blocks of ``2**BLOCK_BITS``
assignments sharing their high bits: a gate controlled by a bit inside a block
acts on a strided half of its rows, one controlled by a bit above it on all or
none of them.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from .program import Gate, RomProgram

# Widest ROM that either simulator sweeps: 2^20 assignments.
SWEEP_LIMIT = 20
# log2 of the rows in a block; memory stays at one block whatever the width.
BLOCK_BITS = 12


def active_gates(program: RomProgram, assignment: int) -> list[Gate]:
    """The gates that fire under one assignment, in application order."""
    if not 0 <= assignment < program.space.num_assignments:
        raise ValueError(f"assignment {assignment} out of range")
    return [
        inst.gate
        for inst in program.instructions
        if inst.control is None or assignment >> (inst.control - 1) & 1
    ]


def sweep(
    program: RomProgram,
    start: np.ndarray,
    act_of: Callable[[Gate], Callable[[np.ndarray], np.ndarray]],
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (first assignment, final rows) per block, in assignment order.

    Rows start as ``start``; ``act_of(gate)`` maps rows to their images under
    the gate.  It is called once per distinct gate object, since compiled
    programs repeat a few dozen gates many times.
    """
    j = program.space.num_rom_bits
    if j > SWEEP_LIMIT:
        raise ValueError(f"{j} ROM bits exceeds the sweep limit ({SWEEP_LIMIT})")
    # The program keeps its gates alive, so their ids stay unique.
    gates = {id(inst.gate): inst.gate for inst in program.instructions}
    acts = {key: act_of(gate) for key, gate in gates.items()}
    steps = [(inst.control or 0, acts[id(inst.gate)]) for inst in program.instructions]
    k = min(j, BLOCK_BITS)
    for high in range(1 << (j - k)):
        rows = np.tile(start, (1 << k, 1))
        # views[c] holds the rows where u_c = 1, and views[0] every row.
        views = [rows]
        views += [rows.reshape(1 << (k - c), 2, 1 << (c - 1), -1)[:, 1] for c in range(1, k + 1)]
        views += [rows if high >> b & 1 else rows[:0] for b in range(j - k)]
        for control, act in steps:
            view = views[control]
            view[...] = act(view)
        yield high << k, rows
