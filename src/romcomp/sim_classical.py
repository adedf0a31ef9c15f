"""Exact semantics of classical ROM programs.

A program plus a ROM assignment induces a permutation of the writable states;
sweeping all assignments from the all-zero start state recovers the boolean
function the program computes.
"""

from __future__ import annotations

import numpy as np

from .boolfunc import TruthTable, VectorFunction
from .program import CLASSICAL, Permutation, RomProgram, require_kind
from .sweep import Apply, active_gates, sweep


def permutation_of(program: RomProgram, assignment: int) -> Permutation:
    """The writable-state permutation induced under one ROM assignment."""
    require_kind(program, CLASSICAL)
    images = list(range(program.space.num_states))
    for gate in active_gates(program, assignment):
        perm = gate.perm.images
        images = [perm[s] for s in images]
    return Permutation(tuple(images))


def _gather(images: np.ndarray) -> Apply:
    """Maps state rows to ``part[..., state]``, where a part of ``images``
    (one image table per sub-assignment), shaped to broadcast over the rows,
    holds each row's table: one flat gather from each table's offset."""
    return lambda part, rows: part.ravel().take(
        np.arange(0, part.size, part.shape[-1]).reshape(*part.shape[:-1], 1) + rows)


def extract_function(program: RomProgram) -> VectorFunction:
    """The boolean function computed from the all-zero start state."""
    require_kind(program, CLASSICAL)
    states = sweep(
        program, np.zeros(1, dtype=np.uint8),
        lambda gate: np.array(gate.perm.images, dtype=np.uint8).take,
        np.arange(program.space.num_states, dtype=np.uint8), _gather,
    )[:, 0]
    j = program.space.num_rom_bits
    return VectorFunction(j, tuple(
        TruthTable.from_bytes(j, (states >> bit & 1).tobytes())
        for bit in range(program.space.num_writable)
    ))
