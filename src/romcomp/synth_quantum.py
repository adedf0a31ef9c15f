"""Compile boolean functions into one-qubit ROM programs.

Every construction is ``synth_classical._commutator_run`` on X and Z
rotations, by the identities Z X^t Z = e^(i*pi*t) X^(-t) and
X Z^t X = e^(i*pi*t) Z^(-t).  Phases are irrelevant to projective readout,
since the controls are classical bits.  A run at a rotation applies it to
the power g, up to a phase, with g odd exactly when its circuit is true, so
an XOR is its two operands' runs back to back at any target.  A circuit costs
``branching_length`` ROM calls: 3 * 2^(m-1) - 2 for ``and_naive``'s
right-deep chain of m controls, 2^(d-1) (3m - 2^d) for ``and_fast``'s
balanced tree of depth d = ceil(log2 m), as ``monomial_runs`` counts them.
"""

from __future__ import annotations

import functools

from .boolfunc import Anf
from .program import (
    QUANTUM, AXIS_X, AXIS_Z, DyadicExponent, Instruction, RomProgram, RomSpace, dyadic_gate,
)
from .synth_classical import CircuitNode, _commutator_run, circuit_runs, monomial_runs

Rotation = tuple[str, int, int]  # axis**(num / 2**log2den) as (axis, num, log2den)
# The root, X^(-1), is a bit flip that makes a top AND's bracket X^(-1/2) ... X^(1/2) ....
_ROOT = (AXIS_X, -1, 0)


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


def _program(num_rom_bits: int, runs: list[tuple[CircuitNode | None, Rotation]]) -> RomProgram:
    """The runs' gates in time order, all built through one cache of steps."""
    ops = _commutator_run(runs, _split, _then, _inverse, functools.cache(_step))
    return RomProgram(RomSpace(num_rom_bits, 1, QUANTUM), tuple(ops))


def _and(controls: list[int], num_rom_bits: int, shape: str) -> RomProgram:
    """XOR the AND of ``controls`` into the qubit, as a ``shape`` tree."""
    if not controls:
        raise ValueError("need at least one control")
    if len(set(controls)) != len(controls):
        raise ValueError(f"duplicate control indices in {controls}")
    for c in controls:
        if not 1 <= c <= num_rom_bits:
            raise ValueError(f"control u_{c} out of range for {num_rom_bits} ROM bits")
    return _program(num_rom_bits, monomial_runs([([controls], _ROOT)], shape))


def and_naive(controls: list[int], num_rom_bits: int) -> RomProgram:
    """XOR the AND of the given ROM bits into the qubit, doubling recursion."""
    return _and(controls, num_rom_bits, "right")


def and_fast(controls: list[int], num_rom_bits: int) -> RomProgram:
    """XOR the AND of the given ROM bits into the qubit by a balanced tree."""
    return _and(controls, num_rom_bits, "balanced")


def circuit_to_qubit(circuit: CircuitNode, num_rom_bits: int) -> RomProgram:
    """One-qubit program XOR-ing a circuit's value into the qubit, at exactly
    ``branching_length(circuit)`` ROM calls."""
    return _program(num_rom_bits, circuit_runs(circuit, num_rom_bits, _ROOT))


def compile_function(anf: Anf, num_rom_bits: int, method: str = "fast") -> RomProgram:
    """Compile an XOR-of-AND form, one run at the root flip per monomial:
    a balanced AND by ``fast``, a right-deep chain by ``naive``, and a single
    uncontrolled flip for the constant-1 monomial."""
    if anf.num_vars != num_rom_bits:
        raise ValueError(f"function has {anf.num_vars} vars, space has {num_rom_bits}")
    shape = {"fast": "balanced", "naive": "right"}.get(method)
    if shape is None:
        raise ValueError(f"method must be 'fast' or 'naive', got {method!r}")
    return _program(num_rom_bits, monomial_runs([(anf.var_lists(), _ROOT)], shape))
