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
    evaluate,
    extract_function,
    minimal_program,
    rom_call_count,
)
from romcomp.search import (
    _apply_move,
    _canonize,
    _encode,
    _gather_tables,
    _moves,
    _pipeline_for,
)


def check_witness(result, target):
    assert rom_call_count(result.witness) == result.minimal_rom_calls
    got = tuple(
        evaluate(result.witness, u, 0) for u in range(1 << target.num_rom_bits)
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
    (1, (1, 0, 2, 3)), (2, (0, 2, 1, 3)), (3, (0, 1, 3, 2)), (2, (0, 2, 1, 3)),
    (1, (1, 0, 2, 3)), (None, (0, 2, 3, 1)),
)

# Checked with extract_function: register 1 ends as the AND of u1..u4 and
# register 2 as 0.
AND4_WITNESS = pinned(
    (1, (1, 0, 2, 3)), (2, (0, 2, 1, 3)), (3, (0, 1, 3, 2)), (4, (3, 0, 2, 1)),
    (1, (0, 3, 1, 2)), (4, (3, 1, 2, 0)), (3, (0, 2, 1, 3)), (2, (0, 3, 2, 1)),
    (1, (3, 1, 2, 0)), (None, (0, 2, 3, 1)), j=4,
)

# The j = 3 witness bytes were recorded from the forward-only search with the
# orbit-based walk-back, and any search strategy must keep them; the j = 4 one
# is the bidirectional search's (the forward-only search took about 30 min).
# ``nodes`` counts the classes the bidirectional search expanded, in both
# directions.
PINNED_SEARCHES = [
    (SearchTarget.all_bits_and(3), True, 5, 11, AND3_WITNESS),
    (SearchTarget.all_bits_and(3), False, 5, 35, AND3_WITNESS),
    (SearchTarget(3, (1, 1, 2, 3, 0, 0, 3, 2)), None, 3, 5, pinned(
        (2, (1, 0, 2, 3)), (1, (0, 2, 1, 3)), (3, (3, 2, 1, 0)), (None, (1, 2, 3, 0)),
    )),
    (SearchTarget(3, (1, 1, 3, 3, 3, 1, 1, 1)), None, 5, 46, pinned(
        (1, (1, 0, 2, 3)), (2, (2, 3, 0, 1)), (3, (2, 1, 3, 0)), (2, (1, 3, 2, 0)),
        (1, (2, 0, 1, 3)), (None, (1, 0, 3, 2)),
    )),
    (SearchTarget(3, (3, 0, 0, 1, 0, 2, 0, 2)), None, 4, 29, pinned(
        (3, (1, 0, 2, 3)), (2, (2, 1, 0, 3)), (1, (2, 0, 1, 3)), (3, (3, 2, 0, 1)),
        (None, (3, 1, 0, 2)),
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
        around = pipeline.neighbours(_encode(vector))
        assert [int(n) for n in around] == [
            _canonize(_apply_move(vector, move), gathers)[0] for move in moves
        ]
        canon = _canonize(vector, gathers)[0]
        for neighbour in pipeline.neighbours(canon):
            assert canon in pipeline.neighbours(neighbour)


def test_target_validation():
    with pytest.raises(ValueError):
        SearchTarget(2, (0, 0, 0))
    with pytest.raises(ValueError):
        SearchTarget(1, (0, 4))
    # j > 4 is refused outright.
    with pytest.raises(ValueError):
        minimal_program(SearchTarget(5, (0,) * 32), max_depth=3)
