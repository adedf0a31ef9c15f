"""Reference answers that the benchmark checks romcomp's verdicts against.

Nothing here calls romcomp: the truth tables, the two-bit evaluator and the
minimal-ROM-call table are computed from first principles, so a defect in the
code under test cannot also hide in its reference.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

STATES = 4
_IDENTITY = tuple(range(STATES))
_PERMS = list(itertools.permutations(range(STATES)))


def table_of_monomials(num_vars: int, monomials: list[int]) -> tuple[int, ...]:
    """Truth table (entry u = value at assignment mask u) of an XOR of ANDs.

    Each monomial is a bitmask of variables; mask 0 is the constant 1.
    """
    return tuple(
        sum(1 for mask in monomials if u & mask == mask) & 1 for u in range(1 << num_vars)
    )


def and_table(m: int) -> tuple[int, ...]:
    """The AND of u_1..u_m: 1 only at the all-ones assignment."""
    return tuple(int(u == (1 << m) - 1) for u in range(1 << m))


def evaluate_two_bit(program_json: str) -> tuple[int, ...]:
    """Final state from start 0 for every assignment of a two-bit program.

    Reads the JSON wire format directly: ``perm`` images and an optional
    1-based ``control`` per instruction.
    """
    data = json.loads(program_json)
    if data["num_writable"] != 2 or data["kind"] != "classical":
        raise ValueError("not a two-bit classical program")
    out = []
    for u in range(1 << data["num_rom_bits"]):
        state = 0
        for inst in data["instructions"]:
            control = inst["control"]
            if control is None or u >> (control - 1) & 1:
                state = inst["gate"]["perm"][state]
        out.append(state)
    return tuple(out)


def program_size(program_json: str) -> tuple[int, int]:
    """ROM calls (controlled instructions) and instructions of a JSON program."""
    instructions = json.loads(program_json)["instructions"]
    return sum(1 for inst in instructions if inst["control"] is not None), len(instructions)


def encode(vector: tuple[int, ...]) -> int:
    """Pack a per-assignment state vector, assignment 0 in the low bits."""
    return sum(v << (2 * pos) for pos, v in enumerate(vector))


def minimal_calls_table(num_rom_bits: int) -> np.ndarray:
    """Minimal ROM calls from the all-zero vector to every state vector.

    A plain 0-1 breadth-first search over all 4^(2^j) vectors, with no
    canonisation: uncontrolled gates (any state permutation applied at every
    position) are free, controlled ones cost one call.  Entry ``encode(v)``
    holds the minimum for target ``v``.
    """
    if not 1 <= num_rom_bits <= 3:
        raise ValueError("the unreduced search is only feasible for j <= 3")
    length = 1 << num_rom_bits
    shifts = 2 * np.arange(length, dtype=np.int64)
    dist = np.full(4 ** length, -1, dtype=np.int16)

    def apply(codes: np.ndarray, perm: tuple[int, ...], positions: np.ndarray) -> np.ndarray:
        digits = (codes[:, None] >> shifts) & 3
        digits[:, positions] = np.asarray(perm)[digits[:, positions]]
        return (digits << shifts).sum(axis=1)

    every = np.arange(length)
    controlled = [every[(every >> bit) & 1 == 1] for bit in range(num_rom_bits)]
    frontier = np.array([0], dtype=np.int64)
    cost = 0
    while frontier.size:
        # Close the frontier under free relabelings (a group, so one step).
        closed = np.unique(np.concatenate([apply(frontier, p, every) for p in _PERMS]))
        closed = closed[dist[closed] < 0]
        dist[closed] = cost
        moved = [
            apply(closed, p, positions)
            for positions in controlled
            for p in _PERMS
            if p != _IDENTITY
        ]
        frontier = np.unique(np.concatenate(moved))
        frontier = frontier[dist[frontier] < 0]
        cost += 1
    return dist


def restriction(vector: tuple[int, ...], bit: int, value: int) -> tuple[int, ...]:
    """The target on the assignments with ROM bit ``bit`` (0-based) fixed,
    indexed by the remaining bits in order."""
    return tuple(v for u, v in enumerate(vector) if (u >> bit) & 1 == value)


def restriction_lower_bound(vector: tuple[int, ...], table3: np.ndarray) -> int:
    """Lower bound on the ROM calls of any two-bit program for a j = 4 target.

    Fixing ROM bit i to 0 or to 1 turns a k-call program into a j = 3
    program with k - c_i calls, c_i being its calls controlled by bit i (they
    vanish or become free).  So k - c_i >= M_i, the larger j = 3 minimum of
    the two restrictions, and summing over the four bits gives
    3k >= sum(M_i).
    """
    if len(vector) != 16:
        raise ValueError("the restriction bound is for j = 4 targets")
    total = 0
    for bit in range(4):
        total += max(int(table3[encode(restriction(vector, bit, b))]) for b in (0, 1))
    return -(-total // 3)


def fully_symmetric(vector: tuple[int, ...], num_rom_bits: int) -> bool:
    """True when the target is invariant under every relabeling of ROM bits."""
    for pi in itertools.permutations(range(num_rom_bits)):
        for u, v in enumerate(vector):
            w = sum(((u >> b) & 1) << pi[b] for b in range(num_rom_bits))
            if vector[w] != v:
                return False
    return True
