"""Exact single-qubit semantics: per-assignment unitaries and readout.

Rotation gates use the closed forms Z^t = diag(1, e^(i*pi*t)) and
X^t = H Z^t H, so X and Z themselves come out exact and half-integer powers
match their textbook matrices to machine precision.

Readout is projective: the final state must sit on a computational basis
state up to a scalar phase, because a per-assignment global phase carries no
information when the conditioning bits are classical.
"""

from __future__ import annotations

import cmath
import functools

import numpy as np

from .boolfunc import TruthTable
from .program import (
    QUANTUM,
    DyadicGate,
    Gate,
    KindMismatchError,
    MAX_SHARED_DYADIC_GATES,
    RomProgram,
    Unitary2,
    UnitaryGate,
    require_kind,
)
from .sweep import Act, Apply, active_gates, sweep

# |amplitude|^2 above this counts as a definite basis-state outcome.
OUTCOME_THRESHOLD = 1e-9


class NonClassicalOutput(Exception):
    """The program left the qubit in superposition for some assignment."""

    def __init__(self, assignment: int, amplitudes: tuple[complex, complex]) -> None:
        p0 = abs(amplitudes[0]) ** 2
        super().__init__(
            f"assignment {assignment}: output is not a basis state "
            f"(|amp0|^2 = {p0:.6f})"
        )
        self.assignment = assignment
        self.amplitudes = amplitudes


@functools.lru_cache(maxsize=MAX_SHARED_DYADIC_GATES)
def _rotation_matrix(axis: str, num: int, log2den: int) -> Unitary2:
    """axis**(num / 2**log2den), memoised on plain ints, which hash in C, and
    bounded like ``dyadic_gate``'s cache: loaded exponents come from outside."""
    phase = cmath.exp(1j * cmath.pi * (num / (1 << log2den)))
    if axis == "Z":
        return Unitary2(1.0, 0.0, 0.0, phase)
    # X, the only other axis a DyadicGate takes: H diag(1, phase) H, written out.
    p = (1 + phase) / 2
    m = (1 - phase) / 2
    return Unitary2(p, m, m, p)


def matrix_of_gate(gate: Gate) -> Unitary2:
    """The matrix of a rotation or a raw unitary gate."""
    if isinstance(gate, DyadicGate):
        return _rotation_matrix(gate.axis, gate.exponent.num, gate.exponent.log2den)
    if isinstance(gate, UnitaryGate):
        return Unitary2(*gate.entries)
    raise KindMismatchError("classical gate has no matrix")


def unitary_of(program: RomProgram, assignment: int) -> Unitary2:
    """Product of the active gates; later instructions multiply on the left."""
    require_kind(program, QUANTUM)
    # A fold over plain complex entries: a Unitary2 per gate cost more than
    # the products.  Same arithmetic as ``Unitary2.__matmul__``.
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    for gate in active_gates(program, assignment):
        m = matrix_of_gate(gate)
        a, b, c, d = m.a * a + m.b * c, m.a * b + m.b * d, m.c * a + m.d * c, m.c * b + m.d * d
    return Unitary2(a, b, c, d)


def _rotate(gate: Gate) -> Act:
    """Maps amplitude rows (amplitudes last) to ``rows @ mat^T``, mat the gate's
    matrix: in place for diag(1, z) and for p*I + m*swap, as new rows else."""
    mat = matrix_of_gate(gate)
    if mat.a == 1 and mat.b == mat.c == 0:
        def phase(rows: np.ndarray) -> np.ndarray:
            rows[..., 1] *= mat.d
            return rows
        return phase
    if mat.a == mat.d and mat.b == mat.c:
        def rotate(rows: np.ndarray) -> np.ndarray:
            swapped = rows[..., ::-1] * mat.b
            rows *= mat.a
            rows += swapped
            return rows
        return rotate
    mat_t = np.array([[mat.a, mat.c], [mat.b, mat.d]])
    return lambda rows: (rows.reshape(-1, 2) @ mat_t).reshape(rows.shape)


def _combine(columns: np.ndarray) -> Apply:
    """Maps amplitude rows (amplitudes last) to ``mat @ row``, where a part of
    ``columns``, shaped to broadcast over the rows, holds each mat's columns."""
    def combine(part: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # mat[0, 0], mat[1, 0], mat[0, 1], mat[1, 1] on the last axis; rows of
        # several states (the identity's) broadcast over one more axis.
        mat = part.reshape(*part.shape[:-2], *[1] * (rows.ndim + 1 - part.ndim), 4)
        a0, a1 = rows[..., 0], rows[..., 1]
        out = np.empty_like(rows)
        for i, amp in enumerate((out[..., 0], out[..., 1])):
            np.multiply(mat[..., i], a0, out=amp)
            amp += mat[..., i + 2] * a1
        return out

    return combine


def extract_boolean(program: RomProgram) -> TruthTable:
    """The boolean function read out from |0> over every assignment.

    Raises NonClassicalOutput if any assignment ends away from the basis.
    """
    require_kind(program, QUANTUM)
    amps = sweep(
        program, np.array([1, 0], dtype=complex), _rotate, np.eye(2, dtype=complex), _combine,
    )
    p1 = amps[:, 1].real ** 2
    p1 += amps[:, 1].imag ** 2
    unsure = np.flatnonzero((p1 > OUTCOME_THRESHOLD) & (p1 < 1.0 - OUTCOME_THRESHOLD))
    if unsure.size:
        raise NonClassicalOutput(int(unsure[0]), tuple(amps[unsure[0]].tolist()))
    del amps  # 32 MB at the sweep limit: freed before the table is built
    bits = (p1 >= 1.0 - OUTCOME_THRESHOLD).tobytes()
    return TruthTable.from_bytes(program.space.num_rom_bits, bits)
