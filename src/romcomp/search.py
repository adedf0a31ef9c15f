"""Exhaustive search for minimal-ROM-call two-bit programs.

A two-bit program hitting a per-assignment target from start state 0 is
searched as a path in "signature" space: the signature is the vector, over
all 2^j ROM assignments, of the state currently reached from 0.  Uncontrolled
gates are free, so signatures are identified up to a uniform relabeling of
the four states: any free gate can be absorbed into that relabeling, and the
one trailing free gate is restored when the witness is rebuilt.  Each search
move is therefore a single controlled step (ROM index, non-identity
permutation), and a shortest path is a cheapest program.

When the target is invariant under permuting the ROM bits (the all-bits AND
is), signatures are additionally identified up to bit relabeling, which cuts
the explored space roughly by j!.  Witness reconstruction undoes both
identifications: state relabelings become free uncontrolled gates and bit
relabelings are pushed through the remaining moves by conjugation.

The class graph is undirected (the inverse of a move is a move), so the
search is bidirectional (Pohl 1971): BFS levels grow from the start class and
from the target class, each step growing the side with the smaller last
level, until a new level meets the other side's last level; no earlier pair
met, so that depth is the minimum.  Each level is expanded in bulk numpy
calls over all of its moves.  The witness is walked back from the target,
each step picking the smallest neighbour in the previous level and the first
move that leads from it to the current class.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .program import (
    CLASSICAL,
    Instruction,
    Permutation,
    PermutationGate,
    RomProgram,
    RomSpace,
)

_STATES = 4
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
        if len(self.targets) != 1 << self.num_rom_bits:
            raise ValueError("need one target state per ROM assignment")
        if any(not 0 <= t < _STATES for t in self.targets):
            raise ValueError("target states must be in 0..3")

    @classmethod
    def all_bits_and(cls, num_rom_bits: int) -> "SearchTarget":
        """Register 1 ends as the AND of all ROM bits, register 2 as 0."""
        length = 1 << num_rom_bits
        return cls(num_rom_bits, tuple(1 if u == length - 1 else 0 for u in range(length)))


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


def _relabel(vector: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """First-occurrence state relabeling.

    Returns the relabeled vector and the full map old-state -> new-state
    (unseen states getting the remaining labels in increasing order).
    """
    mapping = [-1] * _STATES
    nxt = 0
    out = []
    for v in vector:
        if mapping[v] < 0:
            mapping[v] = nxt
            nxt += 1
        out.append(mapping[v])
    for v in range(_STATES):
        if mapping[v] < 0:
            mapping[v] = nxt
            nxt += 1
    return tuple(out), tuple(mapping)


def _encode(vector: tuple[int, ...]) -> int:
    enc = 0
    for pos, v in enumerate(vector):
        enc |= v << (2 * pos)
    return enc


@functools.cache
def _gather_tables(num_rom_bits: int, enable: bool) -> tuple[tuple[int, ...], ...]:
    """Position maps canon-index -> source-index, one per ROM-bit relabeling.

    Table g for bit map pi satisfies: canonical[m] = vector[g[m]] where bit
    pi[b] of m equals bit b of g[m].  Without symmetry only the identity map
    is used.
    """
    length = 1 << num_rom_bits
    perms = itertools.permutations(range(num_rom_bits)) if enable else [tuple(range(num_rom_bits))]
    tables = []
    for pi in perms:
        gather = [0] * length
        for src in range(length):
            dst = 0
            for b in range(num_rom_bits):
                if src >> b & 1:
                    dst |= 1 << pi[b]
            gather[dst] = src
        tables.append(tuple(gather))
    return tuple(tables)


def _canonize(
    vector: tuple[int, ...], gathers: tuple[tuple[int, ...], ...]
) -> tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Minimal encoding over bit relabelings and state relabelings.

    Returns (encoding, canonical vector, winning gather table, state map).
    """
    best_enc = -1
    best = None
    for gather in gathers:
        permuted = tuple(vector[g] for g in gather)
        relabeled, mapping = _relabel(permuted)
        enc = _encode(relabeled)
        if best_enc < 0 or enc < best_enc:
            best_enc = enc
            best = (relabeled, gather, mapping)
    assert best is not None
    return best_enc, best[0], best[1], best[2]


def _frozen(table: np.ndarray) -> np.ndarray:
    """Mark a lookup table read-only; the cached ones are shared by pipelines."""
    table.flags.writeable = False
    return table


@functools.cache
def _order_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Over the 65 appearance orders: ``compose[a, b]`` (a, then b's new
    states), ``order_perm[a]`` (the index of the relabeling that ranks states
    by a, unseen ones last) and the id of each one-state order."""
    orders = [()]
    for size in range(1, _STATES + 1):
        orders.extend(itertools.permutations(range(_STATES), size))
    order_id = {order: idx for idx, order in enumerate(orders)}
    compose = np.array(
        [[order_id[a + tuple(v for v in b if v not in a)] for b in orders] for a in orders],
        dtype=np.uint8,
    )
    perm_id = {p: idx for idx, p in enumerate(itertools.permutations(range(_STATES)))}
    ranked = [a + tuple(v for v in range(_STATES) if v not in a) for a in orders]
    order_perm = np.array(
        [perm_id[tuple(full.index(v) for v in range(_STATES))] for full in ranked], dtype=np.uint8
    )
    single = np.array([order_id[(v,)] for v in range(_STATES)], dtype=np.uint8)
    return _frozen(compose), _frozen(order_perm), _frozen(single)


@functools.cache
def _scan_table(width: int) -> np.ndarray:
    """Appearance-order id of every packed half, scanned low position first."""
    compose, _, single = _order_tables()
    half = np.arange(1 << (2 * width), dtype=np.uint32)
    ids = np.zeros(half.shape, dtype=np.uint8)
    for pos in range(width):
        ids = compose[ids, single[half >> 2 * pos & 3]]
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
    """relabel[perm_id, half] = half with every value mapped by that permutation."""
    perms = np.array(list(itertools.permutations(range(_STATES))), dtype=np.uint32)
    return _half_tables(perms << (2 * np.arange(width, dtype=np.uint32))[:, None, None])


@functools.cache
def _move_tables(num_rom_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Low and high halves of every move: its permutation where its ROM bit
    is set, the identity elsewhere."""
    moves = _moves(num_rom_bits)
    index = np.array([i for i, _ in moves])
    perms = np.array([p for _, p in moves], dtype=np.uint32)
    positions = np.arange(1 << num_rom_bits)[:, None]
    active = (positions >> (index - 1) & 1)[:, :, None]
    cols = np.where(active, perms, np.arange(_STATES, dtype=np.uint32))
    cols <<= (2 * (positions % _HALF_WIDTH)).astype(np.uint32)[:, :, None]
    return _half_tables(cols[:_HALF_WIDTH]), _half_tables(cols[_HALF_WIDTH:])


def _gather_half_tables(gathers: tuple[tuple[int, ...], ...]) -> tuple[np.ndarray, np.ndarray]:
    """Low and high halves of every position permutation: each source half's
    contribution to the permuted packed value."""
    destinations = np.argsort(np.array(gathers), axis=1).T
    cols = np.arange(_STATES, dtype=np.uint32) << (2 * destinations).astype(np.uint32)[:, :, None]
    return _half_tables(cols[:_HALF_WIDTH]), _half_tables(cols[_HALF_WIDTH:])


class _TablePipeline:
    """Precomputed lookup tables for bulk work on packed signatures.

    A signature vector packs into (2 * L)-bit integers, split into a low and
    a high half of at most 8 positions each.  Position permutations and
    controlled moves act independently on the halves, so each becomes two
    table lookups; the first-occurrence relabeling is a scan, so the halves
    compose through a tiny automaton over appearance orders (sequences of
    distinct states, 65 of them).  Only the gather tables depend on
    ``use_symmetry``; the others are built once per width or per j and shared.
    """

    def __init__(self, num_rom_bits: int, use_symmetry: bool) -> None:
        self.gathers = _gather_tables(num_rom_bits, use_symmetry)
        self.moves = _moves(num_rom_bits)
        length = 1 << num_rom_bits
        self.low_width = min(length, _HALF_WIDTH)
        self.high_width = length - self.low_width
        self.low_mask = np.uint32((1 << (2 * self.low_width)) - 1)
        self.low_bits = np.uint32(2 * self.low_width)

        self.compose, self.order_perm, _ = _order_tables()
        self.scan_low = _scan_table(self.low_width)
        self.scan_high = _scan_table(self.high_width)
        self.relabel_low = _relabel_table(self.low_width)
        self.relabel_high = _relabel_table(self.high_width)
        self.move_low, self.move_high = _move_tables(num_rom_bits)
        self.gather_low, self.gather_high = _gather_half_tables(self.gathers)

    def split(self, encs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return encs & self.low_mask, encs >> self.low_bits

    def moved(self, encs: np.ndarray) -> np.ndarray:
        """Raw encodings of every move applied to ``encs``: shape (moves,) + encs.shape."""
        low, high = self.split(encs)
        return self.move_low[:, low] | (self.move_high[:, high] << self.low_bits)

    def neighbours(self, enc: int) -> np.ndarray:
        """Canonical encodings of every move applied to one encoding, in move order."""
        return self.canonize(self.moved(np.uint32(enc)))

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
            gathered = g_low[low] | g_high[high]
            glow = gathered & self.low_mask
            ghigh = gathered >> self.low_bits
            order = self.compose[self.scan_low[glow], self.scan_high[ghigh]]
            perm_id = self.order_perm[order]
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
    """(ROM index, permutation images) in lexicographic order."""
    perms = [p for p in itertools.permutations(range(_STATES)) if p != (0, 1, 2, 3)]
    return [(i, p) for i in range(1, num_rom_bits + 1) for p in perms]


def _apply_move(
    vector: tuple[int, ...], move: tuple[int, tuple[int, ...]]
) -> tuple[int, ...]:
    index, perm = move
    mask = 1 << (index - 1)
    return tuple(perm[v] if pos & mask else v for pos, v in enumerate(vector))


def _symmetric_target(target: SearchTarget, gathers: tuple[tuple[int, ...], ...]) -> bool:
    return all(
        tuple(target.targets[g] for g in gather) == target.targets for gather in gathers
    )


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
    sym_gathers = _gather_tables(j, True)
    if use_symmetry is None:
        use_symmetry = _symmetric_target(target, sym_gathers)
    elif use_symmetry and not _symmetric_target(target, sym_gathers):
        raise ValueError("symmetry pruning requires a bit-relabeling-invariant target")
    pipeline = _pipeline_for(j, use_symmetry)

    # The start signature (state 0 on every assignment) is canonical and encodes to 0.
    target_enc = _canonize(target.targets, pipeline.gathers)[0]
    if target_enc == 0:
        witness = _reconstruct(target, [], pipeline.gathers)
        return SearchResult(0, witness, 0)

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
            path = _walk_back(pipeline, target_enc, _path_levels(pipeline, fwd, bwd))
            return SearchResult(depth, _reconstruct(target, path, pipeline.gathers), nodes_expanded)
    raise NotFoundWithinDepth(max_depth)


def _path_levels(
    pipeline: _TablePipeline, fwd: list[np.ndarray], bwd: list[np.ndarray]
) -> list[np.ndarray]:
    """Levels 0..d-1 for the walk-back when fwd[-1] meets bwd[-1] at depth d.

    Past the meeting, level i is backward level d - i narrowed to shortest
    paths: among a walk-back class's neighbours these are exactly the ones at
    forward distance i.  A meeting at the target drops fwd[-1].
    """
    depth = len(fwd) + len(bwd) - 2
    levels = list(fwd)
    on_path = np.intersect1d(fwd[-1], bwd[-1], assume_unique=True)
    for back in reversed(bwd[1:-1]):
        on_path = np.intersect1d(pipeline.expand(on_path), back, assume_unique=True)
        levels.append(on_path)
    return levels[:depth]


def _walk_back(
    pipeline: _TablePipeline, final_enc: int, level_sets: list[np.ndarray]
) -> list[tuple[int, tuple[int, ...]]]:
    """Recover a deterministic move path from the per-level signature sets.

    The class graph is undirected (moves commute with relabelings up to
    conjugation), so the predecessors of a class are its neighbours in the
    previous level.  Each step takes the smallest such neighbour and the
    first move that leads from it forward.
    """
    path: list[tuple[int, tuple[int, ...]]] = []
    cur_enc = final_enc
    for prev in reversed(level_sets):
        preds = np.intersect1d(_unique(pipeline.neighbours(cur_enc)), prev, assume_unique=True)
        if not preds.size:
            raise AssertionError("level sets lost the predecessor of a hit signature")
        pred = int(preds[0])
        move_idx = int(np.flatnonzero(pipeline.neighbours(pred) == cur_enc)[0])
        path.append(pipeline.moves[move_idx])
        cur_enc = pred
    path.reverse()
    return path


# ---------------------------------------------------------------------------
# Witness reconstruction
# ---------------------------------------------------------------------------


def _reconstruct(
    target: SearchTarget,
    moves: list[tuple[int, tuple[int, ...]]],
    gathers: tuple[tuple[int, ...], ...],
) -> RomProgram:
    """Turn a canonical-space move path into a real program hitting the target.

    Tracks the accumulated state relabeling H (real value -> canon value) and
    position map realpos (canon position -> real position).  Each canon move
    is conjugated back through both before being emitted; state relabelings
    chosen by canonization reappear as a single free fixup gate at the end.
    """
    j = target.num_rom_bits
    length = 1 << j
    space = RomSpace(j, 2, CLASSICAL)
    instructions: list[Instruction] = []

    canon_vec = (0,) * length
    state_map = tuple(range(_STATES))  # real value -> canon value
    realpos = tuple(range(length))  # canon position -> real position
    real_vec = [0] * length

    for move in moves:
        index, perm = move
        inv_map = _invert(state_map)
        # H^-1 . perm . H: conjugate the canon-space move back to real values.
        real_perm = tuple(inv_map[perm[state_map[x]]] for x in range(_STATES))
        real_index = realpos[1 << (index - 1)].bit_length()
        instructions.append(
            Instruction(PermutationGate(Permutation(real_perm)), real_index)
        )
        mask = 1 << (real_index - 1)
        for pos in range(length):
            if pos & mask:
                real_vec[pos] = real_perm[real_vec[pos]]

        raw = _apply_move(canon_vec, move)
        _, canon_vec, gather, relabel_map = _canonize(raw, gathers)
        state_map = tuple(relabel_map[v] for v in state_map)
        realpos = tuple(realpos[g] for g in gather)

    # Final free permutation lining the reached states up with the target.
    fixup = _mapping_to_permutation(tuple(real_vec), target.targets)
    if not fixup.is_identity():
        instructions.append(Instruction(PermutationGate(fixup), None))
        real_vec = [fixup.images[v] for v in real_vec]
    if tuple(real_vec) != target.targets:
        raise AssertionError("witness reconstruction failed to meet the target")
    return RomProgram(space, tuple(instructions))


def _invert(mapping: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(mapping)
    for src, dst in enumerate(mapping):
        inv[dst] = src
    return tuple(inv)


def _mapping_to_permutation(reached: tuple[int, ...], wanted: tuple[int, ...]) -> Permutation:
    """The state permutation g with g(reached[u]) = wanted[u], extended to a
    bijection by pairing leftover states in increasing order."""
    images = [-1] * _STATES
    for got, want in zip(reached, wanted):
        if images[got] < 0:
            images[got] = want
        elif images[got] != want:
            raise AssertionError("reached states are not a relabeling of the target")
    used = {v for v in images if v >= 0}
    spare = [v for v in range(_STATES) if v not in used]
    for state in range(_STATES):
        if images[state] < 0:
            images[state] = spare.pop(0)
    return Permutation(tuple(images))
