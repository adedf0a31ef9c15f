"""Running a program under one ROM assignment, or under all of them at once.

``sweep`` keeps one state row per assignment in one array, viewed as blocks
of ``2**BLOCK_BITS`` assignments sharing their high bits: a gate controlled by
a bit inside a block acts on a strided half of its rows, one controlled by a
bit above it on all or none of them.

Every gate is conditioned on one ROM bit, so a run of instructions that reads
s distinct bits acts in only 2^s ways, however long it is.  The sweep cuts the
program greedily into such runs (segments) of at most ``FUSE_BITS`` bits.  A
segment can be folded once, by running its gates over its 2^s sub-assignments
from a basis, and then applied to each block with one gather, indexed by each
row's sub-assignment.  That pays when the segment is long and its fold much
smaller than the blocks, so each segment is folded or run gate by gate by a
cost estimate.  The sweep makes one pass over the segments: each block runs
the gates up to a fold and then the fold, in place, and the fold is dropped
before the next is made, so memory is all rows plus one fold, however long
the program.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .program import Gate, RomProgram

# Widest ROM that either simulator sweeps: 2^20 assignments.
SWEEP_LIMIT = 20
# log2 of the rows in a block.
BLOCK_BITS = 12
# Most distinct ROM bits one segment reads: its fold has 2^FUSE_BITS rows.
FUSE_BITS = 8
# The cost estimate, measured on the four AND constructions at 9-13 bits (2
# vCPUs, numpy 2.4): a numpy call costs about as much as touching
# CALL_ELEMENTS elements, and a gather about GATHER_PASSES gate passes.
CALL_ELEMENTS = 500
GATHER_PASSES = 4

Act = Callable[[np.ndarray], np.ndarray]
Apply = Callable[[np.ndarray, np.ndarray], np.ndarray]


def active_gates(program: RomProgram, assignment: int) -> list[Gate]:
    """The gates that fire under one assignment, in application order."""
    if not 0 <= assignment < program.space.num_assignments:
        raise ValueError(f"assignment {assignment} out of range")
    return [
        inst.gate
        for inst in program.instructions
        if inst.control is None or assignment >> (inst.control - 1) & 1
    ]


def segments(controls: Sequence[int]) -> list[tuple[int, int, list[int]]]:
    """Cut a program, given by its instructions' controls (0 when
    uncontrolled), greedily into runs that read at most ``FUSE_BITS``
    distinct ROM bits: (first, stop, the bits read) per run."""
    runs = []
    # ``seen`` has bit c set for each control c read so far, and bit 0.
    first, seen = 0, 1
    for at, control in enumerate(controls):
        if not seen >> control & 1:
            if seen.bit_count() > FUSE_BITS:
                runs.append((first, at, seen))
                first, seen = at, 1
            seen |= 1 << control
    runs.append((first, len(controls), seen))
    return [(a, b, [c for c in range(1, seen.bit_length()) if seen >> c & 1]) for a, b, seen in runs]


def _play(rows: np.ndarray, k: int, high: int, above: int, steps: list[tuple[int, Act]]) -> None:
    """Run ``steps`` in place on the rows of ``2**k`` assignments whose bits
    k + 1 .. k + ``above`` are those of ``high``.  A step's control is 0 for
    every row, or the ROM bit whose rows it acts on."""
    # views[c] holds the rows where u_c = 1, and views[0] every row.
    views = [rows]
    views += [rows.reshape(1 << (k - c), 2, 1 << (c - 1), -1)[:, 1] for c in range(1, k + 1)]
    views += [rows if high >> b & 1 else rows[:0] for b in range(above)]
    for control, act in steps:
        view = views[control]
        view[...] = act(view)


def _pass_cost(size: int) -> float:
    """Estimated cost of one gate pass over rows of ``size`` elements."""
    return CALL_ELEMENTS + size / 2


def sweep(
    program: RomProgram,
    start: np.ndarray,
    act_of: Callable[[Gate], Act],
    basis: np.ndarray,
    apply_of: Callable[[np.ndarray], Apply],
) -> np.ndarray:
    """The final rows of every assignment, in assignment order.

    Rows start as ``start``; ``act_of(gate)`` maps rows to their images under
    the gate.  It is called once per distinct gate object, since compiled
    programs repeat a few dozen gates many times.  A segment folds to one
    ``basis`` row per sub-assignment, and ``apply_of(folded)(sub, rows)``
    maps each row to its image under the segment at sub-assignment ``sub``.
    """
    j = program.space.num_rom_bits
    if j > SWEEP_LIMIT:
        raise ValueError(f"{j} ROM bits exceeds the sweep limit ({SWEEP_LIMIT})")
    # The program keeps its gates alive, so their ids stay unique.
    gates = {id(inst.gate): inst.gate for inst in program.instructions}
    acts = {key: act_of(gate) for key, gate in gates.items()}
    steps = [(inst.control or 0, acts[id(inst.gate)]) for inst in program.instructions]
    k = min(j, BLOCK_BITS)
    low = np.arange(1 << k)
    rows = np.tile(start, (1 << j, 1))
    blocks = list(enumerate(rows.reshape(1 << (j - k), 1 << k, -1)))
    blocks_pass = _pass_cost(start.size << k) * (1 << (j - k))
    done = 0
    # Every segment but the last reads FUSE_BITS bits.  When a gate pass over
    # such a fold costs no less than one over the blocks, as in any sweep of
    # at most 2^FUSE_BITS rows, there is nothing to gain: skip the scan.
    wide = blocks_pass > _pass_cost(basis.size << FUSE_BITS)
    for first, stop, bits in segments([control for control, _ in steps]) if wide else []:
        saved = blocks_pass - _pass_cost(basis.size << len(bits))
        if (stop - first) * saved <= GATHER_PASSES * blocks_pass:
            continue
        local = {bit: i + 1 for i, bit in enumerate(bits)}
        folded = np.repeat(basis[None], 1 << len(bits), axis=0)
        _play(folded, len(bits), 0, 0, [(local.get(c, 0), act) for c, act in steps[first:stop]])
        apply = apply_of(folded)
        # Each row's sub-assignment: the bits read inside the block are the
        # same for every block, and those above it add a constant.
        index = sum(
            ((low >> (bit - 1) & 1) << i for i, bit in enumerate(bits) if bit <= k),
            np.zeros_like(low),
        ).astype(np.uint8)
        above = [(i, bit - 1 - k) for i, bit in enumerate(bits) if bit > k]
        run = steps[done:first]
        for high, block in blocks:
            if run:
                _play(block, k, high, j - k, run)
            rest = sum((high >> b & 1) << i for i, b in above)
            block[...] = apply(index + rest if rest else index, block)
        done = stop
    run = steps[done:]
    for high, block in blocks if run else []:
        _play(block, k, high, j - k, run)
    return rows
