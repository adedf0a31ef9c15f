"""Compile boolean functions into one-qubit ROM programs.

Both AND constructions hinge on the conjugation identities

    Z X^t Z = e^(i*pi*t) X^(-t)        X Z^t X = e^(i*pi*t) Z^(-t)

so a rotation bracketed by a conditionally-applied involution either cancels
against its inverse (control inactive) or doubles (control active), up to a
scalar phase.  Phases accumulate per assignment but are irrelevant to
projective readout, since the controls are classical bits.

``and_naive`` peels one control per level and doubles the remaining work:
3 * 2^(m-1) - 2 controlled gates for an m-way AND.  ``and_fast`` instead
splits the controls over a balanced binary tree, alternating the X and Z
axes per level and halving the rotation exponent along each left spine,
which brings the cost down to 4^ceil(log2 m).
"""

from __future__ import annotations

from .boolfunc import Anf
from .program import (
    QUANTUM,
    AXIS_X,
    AXIS_Z,
    DyadicExponent,
    Instruction,
    RomProgram,
    RomSpace,
    check_rom_calls,
    doubling_calls,
    dyadic_gate,
)

_ONE = DyadicExponent(1)


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


def _naive_block(axis: str, controls: list[int]) -> list[Instruction]:
    """Operator-ordered gates flipping `axis` iff all controls are 1.

    One level: A^(-1/2) on the first control around a full flip of the other
    axis on the rest, which telescopes to identity unless every bit is set.
    """
    other = AXIS_Z if axis == AXIS_X else AXIS_X
    if len(controls) == 1:
        return [_rotation(axis, _ONE, controls[0])]
    half = DyadicExponent(1, 1)
    inner = _naive_block(other, controls[1:])
    head = controls[0]
    return [_rotation(axis, -half, head)] + inner + [_rotation(axis, half, head)] + inner


def and_naive(controls: list[int], num_rom_bits: int) -> RomProgram:
    """XOR the AND of the given ROM bits into the qubit, doubling recursion."""
    _check_controls(controls, num_rom_bits)
    doubling_calls(len(controls))
    return RomProgram(RomSpace(num_rom_bits, 1, QUANTUM), tuple(_and_ops(controls, "naive")))


def _fast_block(axis: str, exponent: DyadicExponent, leaves: list[int | None]) -> list[Instruction]:
    """Operator-ordered gates realizing axis**exponent iff all leaves are 1.

    ``leaves`` has power-of-two length; None marks a dummy slot compiled as an
    uncontrolled (always active) gate.  The left half carries the halved
    exponents, the right half a full flip of the other axis; the sign order
    of the halves differs between the axes so that each bracket cancels
    exactly when inactive.
    """
    if len(leaves) == 1:
        return [_rotation(axis, exponent, leaves[0])]
    mid = len(leaves) // 2
    left, right = leaves[:mid], leaves[mid:]
    other = AXIS_Z if axis == AXIS_X else AXIS_X
    half = exponent.halved()
    flip = _fast_block(other, _ONE, right)
    if axis == AXIS_X:
        first, second = half, -half
    else:
        first, second = -half, half
    return (
        _fast_block(axis, first, left)
        + flip
        + _fast_block(axis, second, left)
        + flip
    )


def _and_ops(controls: list[int], method: str) -> list[Instruction]:
    """Gates in time order XOR-ing the AND of ``controls`` into the qubit by
    the ``naive`` or ``fast`` block; no controls is an uncontrolled bit flip.

    ``fast`` pads the controls to a power of two with dummy slots; a dummy
    compiles to an uncontrolled gate, which is always active and costs no ROM
    call.
    """
    if len(controls) <= 1:
        return [_rotation(AXIS_X, _ONE, controls[0] if controls else None)]
    if method == "naive":
        ops = _naive_block(AXIS_X, controls)
    else:
        width = 1 << (len(controls) - 1).bit_length()
        leaves: list[int | None] = list(controls) + [None] * (width - len(controls))
        # Exponent -1 at the root makes the top level come out as the
        # half-rotation bracket A^(-1/2) ... A^(1/2) ...; X^(-1) is still a
        # bit flip.
        ops = _fast_block(AXIS_X, DyadicExponent(-1), leaves)
    return ops[::-1]


def and_fast(controls: list[int], num_rom_bits: int) -> RomProgram:
    """XOR the AND of the given ROM bits into the qubit in 4^ceil(log2 m) gates."""
    _check_controls(controls, num_rom_bits)
    return RomProgram(RomSpace(num_rom_bits, 1, QUANTUM), tuple(_and_ops(controls, "fast")))


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
