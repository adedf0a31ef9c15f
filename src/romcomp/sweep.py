"""Running a program under one ROM assignment, or under all of them at once.

``sweep`` keeps one state row per assignment in one array, with one view per
ROM bit of the rows where that bit is 1, so each gate is one numpy call over
the rows it acts on: a strided half of all rows, or all of them if the gate is
uncontrolled.

Every gate is conditioned on one ROM bit, so a run of instructions that reads
s distinct bits acts in only 2^s ways, however long it is.  A sweep of at
most ``FUSE_BITS`` bits is one such run (segment); a wider sweep of j bits
cuts the program greedily into segments of at most ceil(j/2) bits.  A
segment can be folded once, by the sweep of its own gates over its 2^s
sub-assignments from a basis, into a table of one row per sub-assignment,
and then applied block by block.  A block of ``2**BLOCK_BITS`` rows sharing
their high bits is reshaped into runs of adjacent ROM bits, each read by the
segment or not; the bits above the block pick the table's part for it, and
the part broadcasts over the runs the segment does not read.  Folding pays
when the segment is long and its fold much smaller than the rows, so each
segment is folded or run gate by gate by a cost estimate.  A segment that
reads every bit of its sweep is never folded: its fold would be that sweep
again.  So a fold's own sweep runs gate by gate up to ``FUSE_BITS`` bits, and
folds in turn past 16 bits, where segments read 9 or 10 bits.  Segments with
the same steps share one fold, and at most j folds are kept for reuse: past
that, the one used farthest ahead is dropped.  The sweep makes one pass over
the segments in place, so memory is all rows, plus j + 1 folds, plus one
gate's temporaries over the rows it acts on.
"""

from __future__ import annotations

from itertools import groupby
from typing import Callable, Sequence

import numpy as np

from .program import Gate, RomProgram

# Widest ROM that either simulator sweeps: 2^20 assignments.
SWEEP_LIMIT = 20
# log2 of the rows in a block.
BLOCK_BITS = 12
# Widest sweep that is one segment; a wider one cuts segments of half its bits.
FUSE_BITS = 8
# The cost estimate, measured on the four AND constructions at 9-13 bits (2
# vCPUs, numpy 2.4) while folds were applied by gathers: a numpy call costs
# about as much as touching CALL_ELEMENTS elements, and a fold's apply to a
# block about GATHER_PASSES gate passes over it.
CALL_ELEMENTS = 500
GATHER_PASSES = 4

Act = Callable[[np.ndarray], np.ndarray]
# (part, rows) -> images: a part of a fold's table, shaped to broadcast over rows.
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


def segments(controls: Sequence[int], j: int) -> list[tuple[int, int, list[int]]]:
    """Cut a program over j ROM bits, given by its instructions' controls (0
    when uncontrolled), greedily into runs that read at most ceil(j/2)
    distinct ROM bits, or all j if j <= ``FUSE_BITS``: (first, stop, the
    bits read) per run."""
    width = j if j <= FUSE_BITS else (j + 1) // 2
    runs = []
    # ``seen`` has bit c set for each control c read so far, and bit 0.
    first, seen = 0, 1
    for at, control in enumerate(controls):
        if not seen >> control & 1:
            if seen.bit_count() > width:
                runs.append((first, at, seen))
                first, seen = at, 1
            seen |= 1 << control
    runs.append((first, len(controls), seen))
    return [(a, b, [c for c in range(1, seen.bit_length()) if seen >> c & 1]) for a, b, seen in runs]


def _views(rows: np.ndarray, k: int) -> list[np.ndarray]:
    """Views of the rows of ``2**k`` assignments: views[c] holds the rows
    where u_c = 1, and views[0] every row."""
    return [rows] + [rows.reshape(-1, 2, 1 << (c - 1), *rows.shape[1:])[:, 1] for c in range(1, k + 1)]


def _play(views: list[np.ndarray], steps: list[tuple[int, Act]]) -> None:
    """Run ``steps`` in place; a step acts on ``views[control]``."""
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
    the gate, in place or as new rows; it is called once per distinct gate
    object, since programs repeat a few dozen gates many times.  A segment
    folds to one ``basis`` row per sub-assignment, and ``apply_of(folded)(part,
    rows)`` maps rows to their images under the segment, where ``part`` holds the
    rows of ``folded`` that they read, shaped to broadcast over them.
    """
    j = program.space.num_rom_bits
    if j > SWEEP_LIMIT:
        raise ValueError(f"{j} ROM bits exceeds the sweep limit ({SWEEP_LIMIT})")
    # The program keeps its gates alive, so their ids stay unique.
    gates = {id(inst.gate): inst.gate for inst in program.instructions}
    acts = {key: act_of(gate) for key, gate in gates.items()}
    steps = [(inst.control or 0, acts[id(inst.gate)]) for inst in program.instructions]
    return _sweep_steps(steps, j, start, basis, apply_of)


def _sweep_steps(steps: list[tuple[int, Act]], j: int, start: np.ndarray, basis: np.ndarray,
                 apply_of: Callable[[np.ndarray], Apply]) -> np.ndarray:
    """``sweep`` of ``steps``, each a (control, act) pair, over j ROM bits."""
    k = min(j, BLOCK_BITS)
    rows = np.repeat(start[None], 1 << j, axis=0)
    views = _views(rows, j)
    # A gate is one pass over all rows, a fold GATHER_PASSES over every block.
    gate_pass = _pass_cost(start.size << j)
    gather = GATHER_PASSES * _pass_cost(start.size << k) * (1 << (j - k))
    runs = segments([control for control, _ in steps], j)
    # The segments to fold, each mapped to the next one with the same steps,
    # which reuses its fold, or to None; ``kept`` holds folds by that next one.
    # A segment that reads every bit is not folded: its fold is this sweep.
    folded, last, kept = {}, {}, {}
    for at, (first, stop, bits) in reversed(list(enumerate(runs))):
        if len(bits) < j and (stop - first) * (gate_pass - _pass_cost(basis.size << len(bits))) > gather:
            key = tuple(steps[first:stop])
            folded[at], last[key] = last.get(key), at
    for at, (first, stop, bits) in enumerate(runs):
        if at not in folded:
            _play(views, steps[first:stop])
            continue
        if (fold := kept.pop(at, None)) is None:
            local = {bit: i + 1 for i, bit in enumerate(bits)}
            table = _sweep_steps([(local.get(c, 0), act) for c, act in steps[first:stop]],
                                 len(bits), basis, basis, apply_of)
            # A block's bits, outermost first, fall into runs that the segment
            # reads or not; the table's part for a block broadcasts over the
            # runs it does not read, and the bits above the block pick the part.
            spans = [(read, 1 << len(list(span))) for read, span in
                     groupby(bit in local for bit in range(k, 0, -1))]
            parts = table.reshape(-1, *[size if read else 1 for read, size in spans], *basis.shape)
            above = [bit - 1 - k for bit in bits if bit > k]
            fold = apply_of(table), parts, [size for _, size in spans], above
        if folded[at] is not None:
            kept[folded[at]] = fold
            if len(kept) > j:
                del kept[max(kept)]  # the one used farthest ahead
        apply, parts, shape, above = fold
        for high, block in enumerate(rows.reshape(-1, *shape, *start.shape)):
            block[...] = apply(parts[sum((high >> b & 1) << i for i, b in enumerate(above))], block)
        del fold, apply, parts  # so that at most j + 1 folds are alive
    return rows
