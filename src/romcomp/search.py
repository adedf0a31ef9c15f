"""Exhaustive search for minimal-ROM-call two-bit programs.

A two-bit program hitting a per-assignment target from start state 0 is
searched as a path in "signature" space: the signature is the vector, over
all 2^j ROM assignments, of the state currently reached from 0.  Uncontrolled
gates are free, so signatures are identified up to a uniform relabeling of
the four states: any free gate can be absorbed into that relabeling, so a
cheapest program needs at most one free gate, at its start.  Each search
move is therefore a single controlled step (ROM index, non-identity
permutation), and a shortest path is a cheapest program.

When the target is invariant under permuting the ROM bits (the all-bits AND
is), signatures are additionally identified up to bit relabeling, which cuts
the explored space roughly by j!.  The one canonizer,
``_TablePipeline.canonize``, maps a signature to its class under both
identifications.

The class graph is undirected (the inverse of a move is a move), so the
search is bidirectional (Pohl 1971): BFS levels grow from the start class and
from the target class, each step growing the side with the smaller last
level, until a new level meets the other side's last level; no earlier pair
met, so that depth is the minimum.  Each level is expanded in bulk numpy
calls over all of its moves.  The witness is walked back on real signatures,
not classes: from the target's own signature, each step takes the first move
whose image's class lies in the previous level, down to a constant signature
c.  The inverse of move (i, p) is (i, p^-1), so that walk inverted, after one
free gate 0 -> c, is the program; no relabeling has to be undone.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .program import (
    CLASSICAL,
    Instruction,
    RomProgram,
    RomSpace,
    inverse,
    permutation_gate,
)

_STATES = 4
# Every state relabeling, identity first: the relabel rows, the moves (rows
# 1..23 for each ROM bit) and ``ranking``'s entries all index it.
_PERMS = tuple(itertools.permutations(range(_STATES)))
# Raw encodings canonized per bulk call while expanding a level.
_EXPAND_CHUNK = 1 << 20
# Positions per packed half-signature.
_HALF_WIDTH = 8


class NotFoundWithinDepth(Exception):
    """No program within the depth bound reaches the target."""

    def __init__(self, max_depth: int) -> None:
        super().__init__(f"no program with at most {max_depth} ROM calls reaches the target")
        self.max_depth = max_depth


@dataclass(frozen=True, slots=True)
class SearchTarget:
    """Required final state (from start 0) for every ROM assignment."""

    num_rom_bits: int
    targets: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.num_rom_bits) is not int or self.num_rom_bits < 1:
            raise ValueError(f"num_rom_bits must be an integer >= 1, got {self.num_rom_bits!r}")
        if len(self.targets) != 1 << self.num_rom_bits:
            raise ValueError("need one target state per ROM assignment")
        if any(type(t) is not int or not 0 <= t < _STATES for t in self.targets):
            raise ValueError("target states must be ints in 0..3")

    @classmethod
    def all_bits_and(cls, num_rom_bits: int) -> "SearchTarget":
        """Register 1 ends as the AND of all ROM bits, register 2 as 0."""
        length = 1 << num_rom_bits
        return cls(num_rom_bits, tuple(1 if u == length - 1 else 0 for u in range(length)))

    @property
    def packed(self) -> int:
        """The targets as one raw signature: two bits per assignment, u = 0 lowest."""
        return sum(state << (2 * u) for u, state in enumerate(self.targets))


@dataclass(frozen=True, slots=True)
class SearchResult:
    minimal_rom_calls: int
    witness: RomProgram
    nodes_expanded: int


def conjectured_minimal_calls(num_rom_bits: int) -> int:
    """Conjectured minimal ROM calls for the all-bits AND target, iterating
    the recurrence that adds 2^floor(j/2) per extra bit, from 1 at j = 1."""
    if num_rom_bits < 1:
        raise ValueError("num_rom_bits must be positive")
    calls = 1
    for j in range(2, num_rom_bits + 1):
        calls += 1 << (j // 2)
    return calls


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------


def _frozen(table: np.ndarray) -> np.ndarray:
    """Mark a lookup table read-only; the cached ones are shared by pipelines."""
    table.flags.writeable = False
    return table


@functools.cache
def _relabelings(num_rom_bits: int, enable: bool) -> np.ndarray:
    """Every ROM-bit relabeling as the image of each position: row r maps
    position u to u with bit b moved to bit pi[b], for the r-th bit
    permutation pi.  Without symmetry only the identity is used."""
    perms = itertools.permutations(range(num_rom_bits)) if enable else [range(num_rom_bits)]
    pis = np.array(list(perms), dtype=np.intp)
    bits = np.arange(1 << num_rom_bits)[:, None] >> np.arange(num_rom_bits) & 1
    return _frozen((bits[None] << pis[:, None, :]).sum(axis=2))


@functools.cache
def _order_tables() -> tuple[np.ndarray, np.ndarray]:
    """Over the 65 appearance orders, state v alone being order v + 1:
    ``compose[a, b]`` (a, then b's new states) and ``ranking[a, b]``, the
    ``_PERMS`` index of the relabeling that ranks states by that order, unseen last."""
    orders = [()]
    for size in range(1, _STATES + 1):
        orders.extend(itertools.permutations(range(_STATES), size))
    order_id = {order: idx for idx, order in enumerate(orders)}
    compose = np.array(
        [[order_id[a + tuple(v for v in b if v not in a)] for b in orders] for a in orders],
        dtype=np.uint8,
    )
    perm_id = {p: idx for idx, p in enumerate(_PERMS)}
    ranked = [a + tuple(v for v in range(_STATES) if v not in a) for a in orders]
    order_perm = np.array(
        [perm_id[tuple(full.index(v) for v in range(_STATES))] for full in ranked], dtype=np.uint8
    )
    return _frozen(compose), _frozen(order_perm[compose])


@functools.cache
def _scan_table(width: int) -> np.ndarray:
    """Appearance-order id of every packed half, scanned low position first."""
    compose, _ = _order_tables()
    half = np.arange(1 << (2 * width), dtype=np.uint32)
    ids = np.zeros(half.shape, dtype=np.uint8)
    for pos in range(width):
        ids = compose[ids, 1 + (half >> 2 * pos & 3)]
    return _frozen(ids)


def _half_tables(cols: np.ndarray) -> np.ndarray:
    """Row k maps every packed half of cols.shape[0] positions to the OR of
    cols[pos, k, v] over its positions, v being the half's value at pos."""
    acc = np.zeros((cols.shape[1], 1), dtype=np.uint32)
    for col in cols:
        acc = (col[:, :, None] | acc[:, None, :]).reshape(col.shape[0], -1)
    return _frozen(acc)


@functools.cache
def _relabel_table(width: int) -> np.ndarray:
    """relabel[perm_id, half] = half with every value mapped by ``_PERMS[perm_id]``."""
    perms = np.array(_PERMS, dtype=np.uint32)
    return _half_tables(perms << (2 * np.arange(width, dtype=np.uint32))[:, None, None])


def _gather_half_tables(relabelings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Low and high halves of every position permutation: each source half's
    contribution to the permuted packed value."""
    cols = np.arange(_STATES, dtype=np.uint32) << (2 * relabelings.T).astype(np.uint32)[:, :, None]
    return _half_tables(cols[:_HALF_WIDTH]), _half_tables(cols[_HALF_WIDTH:])


class _TablePipeline:
    """Precomputed lookup tables for bulk work on packed signatures.

    A signature vector packs into (2 * L)-bit integers, split into a low and
    a high half of at most 8 positions each.  Position permutations and state
    relabelings act independently on the halves, so each becomes two table
    lookups, and a move is a relabeling kept by one mask per ROM bit; the
    first-occurrence relabeling is a scan, so the halves compose through an
    automaton over the 65 appearance orders.  No table is per move: only the
    gathers depend on ``use_symmetry``, the rest are per half width and shared.
    """

    def __init__(self, num_rom_bits: int, use_symmetry: bool) -> None:
        self.moves = _moves(num_rom_bits)
        length = 1 << num_rom_bits
        self.low_width = min(length, _HALF_WIDTH)
        self.high_width = length - self.low_width
        self.low_mask = np.uint32((1 << (2 * self.low_width)) - 1)
        self.low_bits = np.uint32(2 * self.low_width)

        _, self.ranking = _order_tables()
        self.scan_low = _scan_table(self.low_width)
        self.scan_high = _scan_table(self.high_width)
        self.relabel_low = _relabel_table(self.low_width)
        self.relabel_high = _relabel_table(self.high_width)
        # bit_masks[i - 1] holds both bits of every position where u_i = 1.
        self.bit_masks = _frozen(np.array([sum(3 << 2 * u for u in range(length) if u >> i & 1)
                                           for i in range(num_rom_bits)], dtype=np.uint32))
        self.gather_low, self.gather_high = _gather_half_tables(
            _relabelings(num_rom_bits, use_symmetry))

    def split(self, encs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return encs & self.low_mask, encs >> self.low_bits

    def moved(self, encs: np.ndarray) -> np.ndarray:
        """Raw encodings of every move applied to ``encs``: shape (moves,) + encs.shape."""
        low, high = self.split(encs)
        relabeled = self.relabel_low[1:, low] | (self.relabel_high[1:, high] << self.low_bits)
        masks = self.bit_masks.reshape((-1, 1) + (1,) * np.ndim(encs))
        return (relabeled & masks | encs & ~masks).reshape((-1,) + np.shape(encs))

    def expand(self, encs: np.ndarray) -> np.ndarray:
        """Sorted distinct classes one move away from any of ``encs``."""
        step = max(1, _EXPAND_CHUNK // len(self.moves))
        return _unique(np.concatenate([
            _unique(self.canonize(self.moved(encs[at:at + step]).ravel()))
            for at in range(0, encs.shape[0], step)
        ]))

    def canonize(self, encs: np.ndarray) -> np.ndarray:
        low, high = self.split(encs)
        best = np.full(low.shape, 0xFFFFFFFF, dtype=np.uint32)
        for g_low, g_high in zip(self.gather_low, self.gather_high):
            glow, ghigh = self.split(g_low[low] | g_high[high])
            perm_id = self.ranking[self.scan_low[glow], self.scan_high[ghigh]]
            candidate = self.relabel_low[perm_id, glow] | (
                self.relabel_high[perm_id, ghigh] << self.low_bits
            )
            np.minimum(best, candidate, out=best)
        return best


def _unique(encs: np.ndarray) -> np.ndarray:
    """Sorted distinct encodings.  np.unique hashes (numpy >= 2.3), which
    measured 3x slower than sorting on 10^3 encodings and 45x on 10^6."""
    encs = np.sort(encs)
    keep = np.empty(encs.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(encs[1:], encs[:-1], out=keep[1:])
    return encs[keep]


@functools.cache
def _pipeline_for(num_rom_bits: int, use_symmetry: bool) -> _TablePipeline:
    return _TablePipeline(num_rom_bits, use_symmetry)


def _moves(num_rom_bits: int) -> list[tuple[int, tuple[int, ...]]]:
    """(ROM index, permutation images) for each ROM bit and each of ``_PERMS[1:]``."""
    return [(i, p) for i in range(1, num_rom_bits + 1) for p in _PERMS[1:]]


# ---------------------------------------------------------------------------
# Bidirectional level expansion
# ---------------------------------------------------------------------------


def minimal_program(
    target: SearchTarget, max_depth: int, use_symmetry: bool | None = None
) -> SearchResult:
    """Bidirectional breadth-first search for a cheapest program meeting the target.

    ``use_symmetry`` defaults to auto-detection: ROM-bit relabeling is used
    exactly when the target is invariant under it.  ``nodes_expanded`` counts
    the signatures whose outgoing moves were generated, in either direction;
    narrowing the levels for the witness walk-back is not counted.
    """
    j = target.num_rom_bits
    if j > 4:
        raise ValueError("the exhaustive search is capped at 4 ROM bits")
    targets = np.array(target.targets)
    symmetric = bool((targets[_relabelings(j, True)] == targets).all())
    if use_symmetry is None:
        use_symmetry = symmetric
    elif use_symmetry and not symmetric:
        raise ValueError("symmetry pruning requires a bit-relabeling-invariant target")
    pipeline = _pipeline_for(j, use_symmetry)

    # The start signature (state 0 on every assignment) is canonical and encodes to 0.
    target_enc = int(pipeline.canonize(np.uint32(target.packed)))
    if target_enc == 0:
        return SearchResult(0, _witness(pipeline, target, []), 0)

    fwd = [np.zeros(1, dtype=np.uint32)]
    bwd = [np.array([target_enc], dtype=np.uint32)]
    nodes_expanded = 0
    for depth in range(1, max_depth + 1):
        side, other = (fwd, bwd) if fwd[-1].size <= bwd[-1].size else (bwd, fwd)
        nodes_expanded += side[-1].size
        # Neighbours of level k lie in levels k - 1, k and k + 1.
        level = np.setdiff1d(pipeline.expand(side[-1]), np.concatenate(side[-2:]),
                             assume_unique=True)
        if not level.size:
            break
        side.append(level)
        if np.intersect1d(level, other[-1], assume_unique=True).size:
            witness = _witness(pipeline, target, _path_levels(pipeline, fwd, bwd))
            return SearchResult(depth, witness, nodes_expanded)
    raise NotFoundWithinDepth(max_depth)


def _path_levels(
    pipeline: _TablePipeline, fwd: list[np.ndarray], bwd: list[np.ndarray]
) -> list[np.ndarray]:
    """Levels 0..d-1 of the cheapest paths when fwd[-1] meets bwd[-1] at depth d.

    Level i holds classes at forward distance exactly i from the start.  Up to
    the meeting these are the forward levels; past it, level i is backward
    level d - i narrowed to the classes one move from level i - 1, which
    puts them at both distances.  So every class in level i has a neighbour
    in level i - 1, and the target one in level d - 1.  A meeting at the
    target drops fwd[-1].
    """
    depth = len(fwd) + len(bwd) - 2
    levels = list(fwd)
    on_path = np.intersect1d(fwd[-1], bwd[-1], assume_unique=True)
    for back in reversed(bwd[1:-1]):
        on_path = np.intersect1d(pipeline.expand(on_path), back, assume_unique=True)
        levels.append(on_path)
    return levels[:depth]


def _witness(
    pipeline: _TablePipeline, target: SearchTarget, level_sets: list[np.ndarray]
) -> RomProgram:
    """A cheapest program reaching ``target``, given levels 0..d-1 of its paths.

    The walk starts from the target's own signature.  At each level, taken in
    reverse, it keeps the first move (in ``_moves`` order) whose image's class
    lies in that level and goes on from the image itself, so it ends on a
    real constant signature c.  The walk maps the target to c, so its inverse,
    after one free gate s -> s ^ c, maps the start to the target.
    """
    enc = np.uint32(target.packed)
    walk: list[Instruction] = []
    for level in reversed(level_sets):
        images = pipeline.moved(enc)
        canon = pipeline.canonize(images)
        # Membership by binary search in the sorted level; np.isin hashes.
        found = level[np.searchsorted(level, canon).clip(max=level.size - 1)] == canon
        k = int(np.flatnonzero(found)[0])
        index, perm = pipeline.moves[k]
        walk.append(Instruction(permutation_gate(perm), index))
        enc = images[k]
    constant = int(enc) & 3
    if constant:
        flip = tuple(s ^ constant for s in range(_STATES))
        walk.append(Instruction(permutation_gate(flip), None))
    return inverse(RomProgram(RomSpace(target.num_rom_bits, 2, CLASSICAL), tuple(walk)))
