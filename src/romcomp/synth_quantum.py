"""Compile boolean functions into one-qubit ROM programs.

Every construction is ``synth_classical._commutator_run`` on X and Z
rotations, by the identities Z X^t Z = e^(i*pi*t) X^(-t) and
X Z^t X = e^(i*pi*t) Z^(-t).  Phases are irrelevant to projective readout,
since the controls are classical bits.  A run at a rotation applies it to
the power g, up to a phase, with g odd exactly when its circuit is true, so
an XOR is its two operands' runs back to back at any target.  A circuit costs
``branching_length`` ROM calls: 3 * 2^(m-1) - 2 for ``and_naive``'s
right-deep chain of m controls, m * 2^ceil(log2 m) for ``and_fast``'s padded
balanced tree.
"""

from __future__ import annotations

import functools

from .boolfunc import Anf
from .program import (
    QUANTUM, AXIS_X, AXIS_Z, DyadicExponent, Instruction, RomProgram, RomSpace, check_rom_calls,
    doubling_calls, dyadic_gate,
)
from .synth_classical import (
    AndNode, CircuitNode, InputNode, _balanced, _commutator_run, branching_length, circuit_inputs,
)

Rotation = tuple[str, int, int]  # axis**(num / 2**log2den) as (axis, num, log2den)
# The root, X^(-1), is a bit flip that makes a top AND's bracket X^(-1/2) ... X^(1/2) ....
_ROOT = (AXIS_X, -1, 0)


def _check_controls(controls: list[int], num_rom_bits: int, method: str) -> None:
    """Refuse the controls of an AND, and an AND past the ROM-call budget."""
    if not controls:
        raise ValueError("need at least one control")
    if len(set(controls)) != len(controls):
        raise ValueError(f"duplicate control indices in {controls}")
    for c in controls:
        if not 1 <= c <= num_rom_bits:
            raise ValueError(f"control u_{c} out of range for {num_rom_bits} ROM bits")
    check_rom_calls(_AND_CALLS[method](len(controls)))


@functools.lru_cache(maxsize=4096)
def _then(first: Rotation, second: Rotation) -> Rotation:
    """Rotations on one axis add their exponents; a zero one is I on either axis."""
    if not (first[1] and second[1]):
        return second if second[1] else first
    total = DyadicExponent(*first[1:]) + DyadicExponent(*second[1:])
    return first[0], total.num, total.log2den


def _inverse(rotation: Rotation) -> Rotation:
    return rotation[0], -rotation[1], rotation[2]


@functools.cache
def _split(target: Rotation) -> tuple[tuple[str, Rotation], ...]:
    """The bracket in time order: the right child's flip of the other axis
    around the left child at -+half, then +-half ((-, +) on X, (+, -) on Z).
    A run is target**g up to a phase, g odd iff its node is true; each AND on
    Z negates g, so only at exponent +-1 is a run a clean flip or identity."""
    axis, num, log2den = target
    flip = (AXIS_Z if axis == AXIS_X else AXIS_X, 1, 0)
    half = (axis, -num if axis == AXIS_X else num, log2den + 1)
    return ("right", flip), ("left", half), ("right", flip), ("left", _inverse(half))


def _step(bit: int | None, if0: Rotation, if1: Rotation) -> tuple[Instruction, ...]:
    """A step's gates in time order: the controlled if0^-1 if1, then the
    uncontrolled fixup if0 unless it is I (one axis, so they commute)."""
    if not if0[1]:
        return (Instruction(dyadic_gate(*if1), bit),)
    return (Instruction(dyadic_gate(*_then(_inverse(if0), if1)), bit),
            Instruction(dyadic_gate(*if0), None))


# The AND of two or more controls as a circuit: "naive" peels one control
# per level, "fast" balances them over leaves padded to a power of two.
_AND_TREES = {
    "naive": lambda leaves: functools.reduce(lambda tail, leaf: AndNode(leaf, tail), leaves[::-1]),
    "fast": lambda leaves: _balanced(
        leaves + [None] * ((1 << (len(leaves) - 1).bit_length()) - len(leaves)), AndNode),
}
# ROM calls of the AND of m controls: doubling_calls(m) by "naive", and
# m * 2^ceil(log2 m) by "fast", since its padding's leaves are free.
_AND_CALLS = {"naive": doubling_calls, "fast": lambda m: m << (m - 1).bit_length()}


def _and_run(controls: list[int], method: str) -> tuple[CircuitNode | None, Rotation]:
    """The AND of ``controls`` as a (circuit, rho) by the ``naive`` or
    ``fast`` tree; one control or none (an always-true leaf) is one X^1."""
    leaves = [InputNode(c) for c in controls]
    if len(leaves) <= 1:
        return (leaves[0] if leaves else None), (AXIS_X, 1, 0)
    return _AND_TREES[method](leaves), _ROOT


def _program(num_rom_bits: int, runs: list[tuple[CircuitNode | None, Rotation]]) -> RomProgram:
    """The runs' gates in time order, all built through one cache of steps."""
    ops = _commutator_run(runs, _split, _then, _inverse, functools.cache(_step))
    return RomProgram(RomSpace(num_rom_bits, 1, QUANTUM), tuple(ops))


def and_naive(controls: list[int], num_rom_bits: int) -> RomProgram:
    """XOR the AND of the given ROM bits into the qubit, doubling recursion."""
    _check_controls(controls, num_rom_bits, "naive")
    return _program(num_rom_bits, [_and_run(controls, "naive")])


def and_fast(controls: list[int], num_rom_bits: int) -> RomProgram:
    """XOR the AND of the given ROM bits into the qubit at m * 2^ceil(log2 m) ROM calls."""
    _check_controls(controls, num_rom_bits, "fast")
    return _program(num_rom_bits, [_and_run(controls, "fast")])


def circuit_to_qubit(circuit: CircuitNode, num_rom_bits: int) -> RomProgram:
    """One-qubit program XOR-ing a circuit's value into the qubit, at exactly
    ``branching_length(circuit)`` ROM calls."""
    for index in circuit_inputs(circuit):
        if index > num_rom_bits:
            raise ValueError(f"circuit reads x{index} but space has {num_rom_bits} ROM bits")
    check_rom_calls(branching_length(circuit))
    return _program(num_rom_bits, [(circuit, _ROOT)])


def compile_function(anf: Anf, num_rom_bits: int, method: str = "fast") -> RomProgram:
    """Compile an XOR-of-AND form, one AND block per monomial.

    The constant-1 monomial compiles to a single uncontrolled bit flip.
    """
    if anf.num_vars != num_rom_bits:
        raise ValueError(f"function has {anf.num_vars} vars, space has {num_rom_bits}")
    if method not in ("fast", "naive"):
        raise ValueError(f"method must be 'fast' or 'naive', got {method!r}")
    var_lists = anf.var_lists()
    check_rom_calls(sum(_AND_CALLS[method](len(vars_)) for vars_ in var_lists))
    return _program(num_rom_bits, [_and_run(vars_, method) for vars_ in var_lists])
