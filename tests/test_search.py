import functools
import itertools
import math
import random

import numpy as np
import pytest

from romcomp import (
    NotFoundWithinDepth,
    SearchTarget,
    conjectured_minimal_calls,
    dumps,
    extract_function,
    minimal_program,
    permutation_of,
    rom_call_count,
)
from romcomp.search import _moves, _pipeline_for, _relabelings


# Scalar reference canonizer for the table pipeline: the minimal encoding of
# a signature over ROM-bit relabelings (gather tables) and first-occurrence
# state relabelings.


def _relabel(vector: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """First-occurrence state relabeling.

    Returns the relabeled vector and the full map old-state -> new-state
    (unseen states getting the remaining labels in increasing order).
    """
    mapping = [-1] * 4
    nxt = 0
    out = []
    for v in vector:
        if mapping[v] < 0:
            mapping[v] = nxt
            nxt += 1
        out.append(mapping[v])
    for v in range(4):
        if mapping[v] < 0:
            mapping[v] = nxt
            nxt += 1
    return tuple(out), tuple(mapping)


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


def _neighbours(pipeline, enc: int) -> np.ndarray:
    """Canonical encodings of every move applied to one encoding, in move order."""
    return pipeline.canonize(pipeline.moved(np.uint32(enc)))


def _encode(vector: tuple[int, ...]) -> int:
    enc = 0
    for pos, v in enumerate(vector):
        enc |= v << (2 * pos)
    return enc


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


def _apply_move(
    vector: tuple[int, ...], move: tuple[int, tuple[int, ...]]
) -> tuple[int, ...]:
    index, perm = move
    mask = 1 << (index - 1)
    return tuple(perm[v] if pos & mask else v for pos, v in enumerate(vector))


def check_witness(result, target):
    assert rom_call_count(result.witness) == result.minimal_rom_calls
    got = tuple(
        permutation_of(result.witness, u).images[0] for u in range(1 << target.num_rom_bits)
    )
    assert got == target.targets


def pinned(*instructions, j=3):
    """Wire form of a two-bit witness, from (control, perm) pairs."""
    body = ", ".join(
        f'{{"control": {"null" if c is None else c}, "gate": {{"perm": {list(p)}}}}}'
        for c, p in instructions
    )
    return f'{{"num_rom_bits": {j}, "num_writable": 2, "kind": "classical", "instructions": [{body}]}}'


AND3_WITNESS = pinned(
    (1, (1, 0, 2, 3)), (2, (0, 2, 1, 3)), (3, (0, 1, 3, 2)), (2, (0, 3, 1, 2)),
    (1, (2, 0, 1, 3)),
)

# Checked with extract_function: register 1 ends as the AND of u1..u4 and
# register 2 as 0.
AND4_WITNESS = pinned(
    (1, (1, 0, 2, 3)), (2, (0, 2, 1, 3)), (3, (0, 1, 3, 2)), (1, (1, 0, 2, 3)),
    (4, (0, 3, 2, 1)), (3, (0, 1, 3, 2)), (1, (1, 0, 2, 3)), (2, (0, 2, 1, 3)),
    (1, (1, 0, 2, 3)), j=4,
)

# The witness bytes are fixed by the walk-back rule: from the target's own
# signature, each step takes the first move (in ``_moves`` order) into the
# previous level, and the walk inverted is the program, after one free gate
# when the walk ends on a nonzero constant.  Each witness was checked with
# ``permutation_of`` on every assignment before it was pinned.  ``nodes`` counts
# the classes the bidirectional search expanded, in both directions.
PINNED_SEARCHES = [
    (SearchTarget.all_bits_and(3), True, 5, 11, AND3_WITNESS),
    (SearchTarget.all_bits_and(3), False, 5, 35, AND3_WITNESS),
    (SearchTarget(3, (1, 1, 2, 3, 0, 0, 3, 2)), None, 3, 5, pinned(
        (None, (1, 0, 3, 2)), (3, (1, 0, 2, 3)), (2, (3, 2, 0, 1)), (1, (0, 1, 3, 2)),
    )),
    (SearchTarget(3, (1, 1, 3, 3, 3, 1, 1, 1)), None, 5, 46, pinned(
        (None, (1, 0, 3, 2)), (2, (0, 3, 1, 2)), (1, (1, 2, 3, 0)), (3, (1, 3, 2, 0)),
        (2, (1, 2, 0, 3)), (1, (0, 3, 1, 2)),
    )),
    (SearchTarget(3, (3, 0, 0, 1, 0, 2, 0, 2)), None, 4, 29, pinned(
        (None, (3, 2, 1, 0)), (1, (1, 2, 3, 0)), (2, (0, 2, 3, 1)), (3, (2, 1, 3, 0)),
        (2, (1, 0, 2, 3)),
    )),
    (SearchTarget.all_bits_and(4), True, 9, 2645, AND4_WITNESS),
]
PINNED_IDS = ["and3-sym", "and3-plain", "seeded3-3", "seeded3-5", "seeded3-4", "and4-sym"]


@pytest.mark.parametrize("target,symmetry,calls,nodes,witness", PINNED_SEARCHES, ids=PINNED_IDS)
def test_search_outputs_are_pinned(target, symmetry, calls, nodes, witness):
    result = minimal_program(target, max_depth=12, use_symmetry=symmetry)
    assert result.minimal_rom_calls == calls
    assert result.nodes_expanded == nodes
    assert dumps(result.witness) == witness


def test_witness_has_one_leading_free_gate_at_most():
    rng = random.Random(8)
    targets = [SearchTarget(2, t) for t in itertools.product(range(4), repeat=4)]
    targets += [SearchTarget(3, tuple(rng.randrange(4) for _ in range(8))) for _ in range(50)]
    for target in targets:
        result = minimal_program(target, max_depth=12)
        check_witness(result, target)
        free = [k for k, inst in enumerate(result.witness.instructions) if inst.control is None]
        assert free in ([], [0])
        assert len(result.witness) == result.minimal_rom_calls + len(free)


def _unreduced_minimal_calls(j):
    """Minimal ROM calls of every j-bit target, by a BFS over raw state vectors.

    Only controlled moves are walked; a free gate can be pushed to the end of
    a program by conjugating the moves after it, so a target costs the
    fewest calls over all of its state relabelings.
    """
    perms = list(itertools.permutations(range(4)))
    start = (0,) * (1 << j)
    calls = {start: 0}
    frontier = [start]
    while frontier:
        reached = []
        for vector in frontier:
            for index, perm in itertools.product(range(j), perms):
                moved = tuple(perm[v] if u >> index & 1 else v for u, v in enumerate(vector))
                if moved not in calls:
                    calls[moved] = calls[vector] + 1
                    reached.append(moved)
        frontier = reached
    return {
        target: min(calls.get(tuple(perm[v] for v in target), math.inf) for perm in perms)
        for target in itertools.product(range(4), repeat=1 << j)
    }


@pytest.mark.parametrize("j", [1, 2])
def test_search_matches_unreduced_bfs(j):
    for targets, calls in _unreduced_minimal_calls(j).items():
        target = SearchTarget(j, targets)
        result = minimal_program(target, max_depth=12)
        assert result.minimal_rom_calls == calls
        check_witness(result, target)
        if calls:
            with pytest.raises(NotFoundWithinDepth):
                minimal_program(target, max_depth=calls - 1)


def test_recurrence_values():
    assert [conjectured_minimal_calls(j) for j in range(1, 7)] == [1, 3, 5, 9, 13, 21]
    with pytest.raises(ValueError):
        conjectured_minimal_calls(0)


@pytest.mark.parametrize("j,expected", [(1, 1), (2, 3), (3, 5)])
def test_minimal_and_matches_recurrence(j, expected):
    target = SearchTarget.all_bits_and(j)
    result = minimal_program(target, max_depth=expected + 2)
    assert result.minimal_rom_calls == expected == conjectured_minimal_calls(j)
    check_witness(result, target)


@pytest.mark.parametrize("j", [2, 3])
def test_symmetry_pruning_changes_nothing(j):
    target = SearchTarget.all_bits_and(j)
    plain = minimal_program(target, max_depth=8, use_symmetry=False)
    pruned = minimal_program(target, max_depth=8, use_symmetry=True)
    assert plain.minimal_rom_calls == pruned.minimal_rom_calls
    assert plain.nodes_expanded >= pruned.nodes_expanded
    check_witness(plain, target)
    check_witness(pruned, target)


def test_search_is_deterministic():
    target = SearchTarget.all_bits_and(3)
    first = minimal_program(target, max_depth=6)
    second = minimal_program(target, max_depth=6)
    assert first == second


def test_trivial_target_needs_no_calls():
    target = SearchTarget(1, (0, 0))
    result = minimal_program(target, max_depth=3)
    assert result.minimal_rom_calls == 0
    check_witness(result, target)


def test_constant_flip_needs_no_calls():
    # Reaching state 2 on every assignment is one free gate.
    target = SearchTarget(1, (2, 2))
    result = minimal_program(target, max_depth=3)
    assert result.minimal_rom_calls == 0
    check_witness(result, target)
    assert len(result.witness) == 1
    assert result.witness.instructions[0].control is None


def test_single_bit_copy():
    target = SearchTarget(1, (0, 1))
    result = minimal_program(target, max_depth=3)
    assert result.minimal_rom_calls == 1
    check_witness(result, target)


def test_asymmetric_target():
    # f1 = u1, f2 = u1 AND u2.
    target = SearchTarget(2, (0, 1, 0, 3))
    result = minimal_program(target, max_depth=6)
    check_witness(result, target)
    assert result.minimal_rom_calls == 2
    with pytest.raises(ValueError):
        minimal_program(target, max_depth=6, use_symmetry=True)


def test_witness_extracts_and_function():
    target = SearchTarget.all_bits_and(3)
    result = minimal_program(target, max_depth=6)
    vf = extract_function(result.witness)
    assert vf.components[0].bits == (0,) * 7 + (1,)
    assert vf.components[1].bits == (0,) * 8


def test_not_found_within_depth():
    target = SearchTarget.all_bits_and(3)
    with pytest.raises(NotFoundWithinDepth):
        minimal_program(target, max_depth=4)


def test_depth_zero_edge():
    target = SearchTarget(1, (0, 1))
    with pytest.raises(NotFoundWithinDepth):
        minimal_program(target, max_depth=0)


@pytest.mark.parametrize("j,symmetric", [(1, True), (2, True), (3, True), (3, False), (4, True)])
def test_table_pipeline_matches_scalar_canonization(j, symmetric):
    rng = random.Random(j)
    length = 1 << j
    gathers = _gather_tables(j, symmetric)
    moves = _moves(j)
    pipeline = _pipeline_for(j, symmetric)
    vectors = [tuple(rng.randrange(4) for _ in range(length)) for _ in range(300)]
    encs = np.array([_encode(v) for v in vectors], dtype=np.uint32)
    bulk = pipeline.canonize(encs)
    for vector, got in zip(vectors, bulk):
        assert _canonize(vector, gathers)[0] == int(got)
    move_idx = rng.randrange(len(moves))
    moved = pipeline.moved(encs)[move_idx]
    for vector, got in zip(vectors, moved):
        assert _encode(_apply_move(vector, moves[move_idx])) == int(got)
    # Each move lands in the class the scalar path computes, and the class
    # graph is undirected: every neighbour of a class leads back to it.
    for vector in vectors[:10]:
        around = _neighbours(pipeline, _encode(vector))
        assert [int(n) for n in around] == [
            _canonize(_apply_move(vector, move), gathers)[0] for move in moves
        ]
        canon = _canonize(vector, gathers)[0]
        for neighbour in _neighbours(pipeline, canon):
            assert canon in _neighbours(pipeline, neighbour)


# Scalar references for the pipeline's lookup tables: the loops that built
# them before the numpy builders.
ORDERS = [()] + [p for size in range(1, 5) for p in itertools.permutations(range(4), size)]
ORDER_ID = {order: idx for idx, order in enumerate(ORDERS)}
PERMS = list(itertools.permutations(range(4)))


def reference_order_tables():
    compose = np.empty((65, 65), dtype=np.uint8)
    for a, first in enumerate(ORDERS):
        for b, second in enumerate(ORDERS):
            merged = list(first) + [v for v in second if v not in first]
            compose[a, b] = ORDER_ID[tuple(merged)]
    order_perm = np.empty(65, dtype=np.uint8)
    for idx, order in enumerate(ORDERS):
        full = list(order) + [v for v in range(4) if v not in order]
        label = [0] * 4
        for rank, value in enumerate(full):
            label[value] = rank
        order_perm[idx] = PERMS.index(tuple(label))
    return compose, order_perm


@functools.cache
def reference_scan(width):
    """First-occurrence order id of every packed half, low position first."""
    table = np.empty(1 << (2 * width), dtype=np.uint8)
    for packed in range(table.shape[0]):
        seen = []
        for pos in range(width):
            value = packed >> (2 * pos) & 3
            if value not in seen:
                seen.append(value)
        table[packed] = ORDER_ID[tuple(seen)]
    return table


def reference_value_map(luts):
    """Every packed half with the value at position pos mapped by luts[pos]."""
    half = np.arange(1 << (2 * len(luts)), dtype=np.uint32)
    acc = np.zeros_like(half)
    for pos, lut in enumerate(luts):
        values = (half >> np.uint32(2 * pos)) & np.uint32(3)
        acc |= np.array(lut, dtype=np.uint32)[values] << np.uint32(2 * pos)
    return acc


def reference_gather(gather, base, width):
    """One source half's contribution to the position-permuted packed value."""
    src = np.arange(1 << (2 * width), dtype=np.uint32)
    acc = np.zeros_like(src)
    for dst_pos, src_pos in enumerate(gather):
        if base <= src_pos < base + width:
            values = (src >> np.uint32(2 * (src_pos - base))) & np.uint32(3)
            acc |= values << np.uint32(2 * dst_pos)
    return acc


def assert_same(table, reference):
    assert table.dtype == reference.dtype and table.shape == reference.shape
    assert np.array_equal(table, reference)


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_lookup_tables_match_scalar_loops(j):
    pipeline = _pipeline_for(j, False)
    compose, order_perm = reference_order_tables()
    # The scan tables below are built through compose, so they check it too.
    assert_same(pipeline.ranking, order_perm[compose])
    halves = [(0, pipeline.low_width), (pipeline.low_width, pipeline.high_width)]
    scans = (pipeline.scan_low, pipeline.scan_high)
    relabels = (pipeline.relabel_low, pipeline.relabel_high)
    for (_, width), scan, relabel in zip(halves, scans, relabels):
        assert_same(scan, reference_scan(width))
        assert_same(relabel, np.stack([reference_value_map([perm] * width) for perm in PERMS]))
    # Moves have no tables: moved() relabels through the relabel tables and
    # keeps the result where the move's ROM bit is set.  Checked per position
    # on every move up to j = 3 and a seeded sample of the 92 at j = 4, over
    # a batch of encodings and over one 0-d encoding, as the witness walk
    # passes it.
    moves = _moves(j)
    sample = range(len(moves)) if j < 4 else random.Random(4).sample(range(len(moves)), 12)
    rng = random.Random(j)
    vectors = [tuple(rng.randrange(4) for _ in range(1 << j)) for _ in range(21)]
    encs = np.array([_encode(v) for v in vectors], dtype=np.uint32)
    batch, single = pipeline.moved(encs[1:]), pipeline.moved(encs[0])
    assert batch.dtype == single.dtype == np.uint32
    assert batch.shape == (len(moves), len(vectors) - 1) and single.shape == (len(moves),)
    for k in sample:
        assert int(single[k]) == _encode(_apply_move(vectors[0], moves[k]))
        expected = [_encode(_apply_move(v, moves[k])) for v in vectors[1:]]
        assert [int(e) for e in batch[k]] == expected
    symmetric = _pipeline_for(j, True)
    gathers = _gather_tables(j, True)
    for (base, width), tables in zip(halves, (symmetric.gather_low, symmetric.gather_high)):
        assert len(tables) == len(gathers) == math.factorial(j)
        for table, gather in zip(tables, gathers):
            assert_same(table, reference_gather(gather, base, width))


@pytest.mark.parametrize("j", [1, 2, 3, 4])
@pytest.mark.parametrize("symmetric", [True, False])
def test_relabelings_invert_the_scalar_gathers(j, symmetric):
    relabelings = _relabelings(j, symmetric)
    gathers = _gather_tables(j, symmetric)
    assert relabelings.shape == (len(gathers), 1 << j)
    assert not relabelings.flags.writeable
    for images, gather in zip(relabelings, gathers):
        assert [int(images[src]) for src in gather] == list(range(1 << j))
    # Both pipelines' half tables are the scalar gathers' contributions.
    pipeline = _pipeline_for(j, symmetric)
    halves = [(0, pipeline.low_width), (pipeline.low_width, pipeline.high_width)]
    for (base, width), tables in zip(halves, (pipeline.gather_low, pipeline.gather_high)):
        assert tables.shape == (len(gathers), 1 << (2 * width))
        for table, gather in zip(tables, gathers):
            assert_same(table, reference_gather(gather, base, width))


def test_pipelines_share_their_tables():
    names = ["ranking", "scan_low", "scan_high", "relabel_low", "relabel_high"]
    for j in range(1, 5):
        symmetric, plain = _pipeline_for(j, True), _pipeline_for(j, False)
        for name in names:
            assert getattr(symmetric, name) is getattr(plain, name)
            assert not getattr(plain, name).flags.writeable
    # A half of 8 positions serves the one half at j = 3 and both at j = 4.
    three, four = _pipeline_for(3, True), _pipeline_for(4, True)
    assert three.scan_low is four.scan_low is four.scan_high
    assert three.relabel_low is four.relabel_low is four.relabel_high


@pytest.mark.parametrize("j", [1, 2, 3, 4])
@pytest.mark.parametrize("symmetric", [True, False])
def test_pipeline_tables_stay_small(j, symmetric):
    # Tables scale with the half width and the relabeling group, not with
    # the moves: a table per move held 48 MiB at j = 4.
    pipeline = _pipeline_for(j, symmetric)
    held = {id(v): v for v in vars(pipeline).values() if isinstance(v, np.ndarray)}
    assert sum(v.nbytes for v in held.values()) < 32 << 20


def test_target_validation():
    with pytest.raises(ValueError):
        SearchTarget(2, (0, 0, 0))
    with pytest.raises(ValueError):
        SearchTarget(1, (0, 4))
    # A state must be an int: a float used to fail in ``packed`` and True to
    # be searched as state 1.
    for state in (1.5, True, 1.0):
        with pytest.raises(ValueError, match="must be ints in 0..3"):
            SearchTarget(1, (0, state))
    # j > 4 is refused outright.
    with pytest.raises(ValueError):
        minimal_program(SearchTarget(5, (0,) * 32), max_depth=3)


@pytest.mark.parametrize("num_rom_bits,targets", [(0, (0,)), (-1, ()), (True, (0, 0))])
def test_target_needs_at_least_one_rom_bit(num_rom_bits, targets):
    # Zero bits used to reach numpy as an empty move list and end in a
    # TypeError; a negative count in "negative shift count".
    with pytest.raises(ValueError, match="num_rom_bits must be an integer >= 1"):
        SearchTarget(num_rom_bits, targets)
