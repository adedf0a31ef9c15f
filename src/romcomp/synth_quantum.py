"""Compile boolean functions into one-qubit ROM programs.

Every construction is one commutator recursion over an AND/OR/NOT circuit
(``_block``), on the identities Z X^t Z = e^(i*pi*t) X^(-t) and
X Z^t X = e^(i*pi*t) Z^(-t).  Phases are irrelevant to projective readout,
since the controls are classical bits.  A circuit costs ``branching_length``
ROM calls: 3 * 2^(m-1) - 2 for ``and_naive``'s right-deep chain of m
controls, at most 4^ceil(log2 m) for ``and_fast``'s padded balanced tree.
"""

from __future__ import annotations

import functools

from .boolfunc import Anf
from .program import (
    QUANTUM, AXIS_X, AXIS_Z, DyadicExponent, Instruction, RomProgram, RomSpace, check_rom_calls,
    doubling_calls, dyadic_gate,
)
from .synth_classical import (
    AndNode, CircuitNode, InputNode, NotNode, OrNode, _balanced, branching_length, circuit_inputs,
)

_ONE = DyadicExponent(1)
# The root's exponent: X^(-1) is still a bit flip, and makes a top AND's
# bracket come out as X^(-1/2) ... X^(1/2) ....
_ROOT = DyadicExponent(-1)


def _check_controls(controls: list[int], num_rom_bits: int) -> None:
    if not controls:
        raise ValueError("need at least one control")
    if len(set(controls)) != len(controls):
        raise ValueError(f"duplicate control indices in {controls}")
    for c in controls:
        if not 1 <= c <= num_rom_bits:
            raise ValueError(f"control u_{c} out of range for {num_rom_bits} ROM bits")


def _rotation(axis: str, exponent: DyadicExponent, control: int | None) -> Instruction:
    return Instruction(dyadic_gate(axis, exponent.num, exponent.log2den), control)


def _block(axis: str, exponent: DyadicExponent, node: CircuitNode | None,
           memo: dict) -> list[Instruction]:
    """Operator-ordered gates realizing axis**(g * exponent) up to a phase,
    for an integer g that is odd exactly when the circuit ``node`` is true:
    at exponent +-1, a flip iff ``node`` is true, else the identity.

    None is an always-true leaf, an uncontrolled gate.  AND runs its left
    child at +-exponent/2 ((+, -) on X, (-, +) on Z, so g is 0 or 1 on X but
    each AND on Z negates it) around a full flip of the other axis by its
    right child; NOT pairs an uncontrolled axis**exponent with its child at
    -exponent, and cancels a NOT below it; OR is NOT(AND(NOT l, NOT r)).
    ``memo`` holds each block built by (node id, axis, exponent), with its
    node kept alive so that no id is reused.
    """
    if node is None or isinstance(node, InputNode):
        return [_rotation(axis, exponent, node and node.index)]
    key = (id(node), axis, exponent.num, exponent.log2den)
    if key in memo:
        return memo[key][1]
    if isinstance(node, AndNode):
        half = exponent.halved()
        first, second = (half, -half) if axis == AXIS_X else (-half, half)
        flip = _block(AXIS_Z if axis == AXIS_X else AXIS_X, _ONE, node.right, memo)
        ops = _block(axis, first, node.left, memo) + flip
        ops += _block(axis, second, node.left, memo) + flip
    elif isinstance(node, OrNode):
        ops = _block(axis, exponent, NotNode(AndNode(NotNode(node.left), NotNode(node.right))),
                     memo)
    elif isinstance(node.child, NotNode):
        ops = _block(axis, exponent, node.child.child, memo)
    else:
        ops = [_rotation(axis, exponent, None)] + _block(axis, -exponent, node.child, memo)
    memo[key] = node, ops
    return ops


# The AND of two or more controls as a circuit: "naive" peels one control
# per level, "fast" balances them over leaves padded to a power of two.
_AND_TREES = {
    "naive": lambda leaves: functools.reduce(lambda tail, leaf: AndNode(leaf, tail), leaves[::-1]),
    "fast": lambda leaves: _balanced(
        leaves + [None] * ((1 << (len(leaves) - 1).bit_length()) - len(leaves)), AndNode),
}


def _and_ops(controls: list[int], method: str) -> list[Instruction]:
    """Gates in time order XOR-ing the AND of ``controls`` into the qubit by
    the ``naive`` or ``fast`` tree; no controls is an uncontrolled bit flip."""
    if len(controls) <= 1:
        return [_rotation(AXIS_X, _ONE, controls[0] if controls else None)]
    return _block(AXIS_X, _ROOT, _AND_TREES[method]([InputNode(c) for c in controls]), {})[::-1]


def and_naive(controls: list[int], num_rom_bits: int) -> RomProgram:
    """XOR the AND of the given ROM bits into the qubit, doubling recursion."""
    _check_controls(controls, num_rom_bits)
    doubling_calls(len(controls))
    return RomProgram(RomSpace(num_rom_bits, 1, QUANTUM), tuple(_and_ops(controls, "naive")))


def and_fast(controls: list[int], num_rom_bits: int) -> RomProgram:
    """XOR the AND of the given ROM bits into the qubit in 4^ceil(log2 m) gates."""
    _check_controls(controls, num_rom_bits)
    return RomProgram(RomSpace(num_rom_bits, 1, QUANTUM), tuple(_and_ops(controls, "fast")))


def circuit_to_qubit(circuit: CircuitNode, num_rom_bits: int) -> RomProgram:
    """One-qubit program XOR-ing a circuit's value into the qubit, at exactly
    ``branching_length(circuit)`` ROM calls."""
    for index in circuit_inputs(circuit):
        if index > num_rom_bits:
            raise ValueError(f"circuit reads x{index} but space has {num_rom_bits} ROM bits")
    check_rom_calls(branching_length(circuit))
    ops = _block(AXIS_X, _ROOT, circuit, {})[::-1]
    return RomProgram(RomSpace(num_rom_bits, 1, QUANTUM), tuple(ops))


def compile_function(anf: Anf, num_rom_bits: int, method: str = "fast") -> RomProgram:
    """Compile an XOR-of-AND form, one AND block per monomial.

    The constant-1 monomial compiles to a single uncontrolled bit flip.
    """
    if anf.num_vars != num_rom_bits:
        raise ValueError(f"function has {anf.num_vars} vars, space has {num_rom_bits}")
    if method not in ("fast", "naive"):
        raise ValueError(f"method must be 'fast' or 'naive', got {method!r}")
    var_lists = anf.var_lists()
    # and_fast's 4^ceil(log2 m) counts the free dummy slots of its padding.
    check_rom_calls(sum(
        4 ** (len(v) - 1).bit_length() if method == "fast" and v else doubling_calls(len(v))
        for v in var_lists
    ))
    instructions = [op for vars_ in var_lists for op in _and_ops(vars_, method)]
    return RomProgram(RomSpace(num_rom_bits, 1, QUANTUM), tuple(instructions))
