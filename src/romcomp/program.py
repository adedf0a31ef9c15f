"""Machine-neutral IR for ROM-conditioned reversible gate programs.

A program acts on a small writable register (1-3 bits or one qubit) and may
condition each gate on the value of exactly one read-only input bit (a "ROM
bit").  ROM bits are never written: the instruction set simply has no way to
target them.  Instructions are stored first-applied-first.

Everything here is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass

CLASSICAL = "classical"
QUANTUM = "quantum"

# Max entrywise deviation of U*U^dagger from the identity tolerated for raw
# unitary gates.
UNITARITY_TOL = 1e-12

# Largest accepted exponent denominator 2**log2den.  It keeps |num| <= 2**52,
# so ``_rotation_matrix``'s ``num / (1 << log2den)`` is exact.  The compilers
# need ceil(log2 m) for an AND of m ROM bits (and_fast), and for a circuit one
# per AND/OR level on a left path: at most 19, as each level at least doubles the calls.
MAX_LOG2DEN = 51

# Most ROM calls a compiler may spend on one program: a product of up to 20
# ROM bits as a chain, of up to 1,365 as a balanced tree (``AND_SHAPES``).
MAX_ROM_CALLS = 2**21


def check_rom_calls(calls: int) -> None:
    if calls > MAX_ROM_CALLS:
        raise ValueError(f"the program needs {calls} ROM calls (limit {MAX_ROM_CALLS})")


class ProgramError(ValueError):
    """A program or one of its parts failed validation."""


class KindMismatchError(ProgramError):
    """A classical program was given to a quantum routine or vice versa."""


@dataclass(frozen=True, slots=True)
class RomSpace:
    """Shape of a program: ROM width, writable width, machine kind."""

    num_rom_bits: int
    num_writable: int
    kind: str

    def __post_init__(self) -> None:
        if type(self.num_rom_bits) is not int or type(self.num_writable) is not int:
            raise ProgramError("num_rom_bits and num_writable must be integers")
        if self.num_rom_bits < 1:
            raise ProgramError(f"need at least one ROM bit, got {self.num_rom_bits}")
        if self.num_writable not in (1, 2, 3):
            raise ProgramError(f"writable width must be 1, 2 or 3, got {self.num_writable}")
        if self.kind not in (CLASSICAL, QUANTUM):
            raise ProgramError(f"unknown machine kind {self.kind!r}")
        if self.kind == QUANTUM and self.num_writable != 1:
            raise ProgramError("the quantum backend has exactly one writable qubit")

    @property
    def num_states(self) -> int:
        return 1 << self.num_writable

    @property
    def num_assignments(self) -> int:
        return 1 << self.num_rom_bits


@dataclass(frozen=True, slots=True)
class Permutation:
    """A bijection on {0, ..., S-1}, stored as the tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise ProgramError(f"not a permutation of 0..{n - 1}: {self.images}")

    @classmethod
    def identity(cls, size: int) -> "Permutation":
        return cls(tuple(range(size)))

    @classmethod
    def from_cycles(cls, size: int, cycles: tuple[tuple[int, ...], ...]) -> "Permutation":
        """Build from disjoint cycles; unlisted states are fixed."""
        images = list(range(size))
        for cycle in cycles:
            for pos, state in enumerate(cycle):
                images[state] = cycle[(pos + 1) % len(cycle)]
        return cls(tuple(images))

    @property
    def size(self) -> int:
        return len(self.images)

    def apply(self, state: int) -> int:
        return self.images[state]

    def then(self, other: "Permutation") -> "Permutation":
        """Composition in application order: self first, then other."""
        return Permutation(tuple(other.images[s] for s in self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for src, dst in enumerate(self.images):
            inv[dst] = src
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(dst == src for src, dst in enumerate(self.images))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each starting at its smallest element."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cycle = [start]
            seen[start] = True
            nxt = self.images[start]
            while nxt != start:
                cycle.append(nxt)
                seen[nxt] = True
                nxt = self.images[nxt]
            out.append(tuple(cycle))
        return tuple(out)


@dataclass(frozen=True, slots=True)
class DyadicExponent:
    """A rotation exponent t = num / 2**log2den, kept in lowest terms, |t| <= 2."""

    num: int
    log2den: int = 0

    def __post_init__(self) -> None:
        num, log2den = self.num, self.log2den
        if type(num) is not int or type(log2den) is not int:
            raise ProgramError("exponent needs integer num and log2den")
        if not 0 <= log2den <= MAX_LOG2DEN:
            raise ProgramError(f"log2den must be in 0..{MAX_LOG2DEN}, got {log2den}")
        while log2den > 0 and num % 2 == 0:
            num //= 2
            log2den -= 1
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "log2den", log2den)
        if abs(num) > (2 << log2den):
            raise ProgramError(f"|{num}/2^{log2den}| exceeds 2")

    def __neg__(self) -> "DyadicExponent":
        return DyadicExponent(-self.num, self.log2den)

    def __add__(self, other: "DyadicExponent") -> "DyadicExponent":
        k = max(self.log2den, other.log2den)
        num = (self.num << (k - self.log2den)) + (other.num << (k - other.log2den))
        return DyadicExponent(num, k)

    def __str__(self) -> str:
        if self.log2den == 0:
            return str(self.num)
        return f"{self.num}/{1 << self.log2den}"


AXIS_X = "X"
AXIS_Z = "Z"


@dataclass(frozen=True, slots=True)
class PermutationGate:
    """A classical reversible gate: a permutation of the writable states."""

    perm: Permutation

    def inverse(self) -> "PermutationGate":
        return permutation_gate(self.perm.inverse().images)


@functools.cache
def permutation_gate(images: tuple[int, ...]) -> PermutationGate:
    """The one gate for ``images``, shared so that per-gate caches work once
    per distinct gate.  A miss refuses non-int images, so (True, False) finds
    (1, 0)'s gate but is never cached as its own.  Only 2, 4 or 8 states are
    cached, at most 2! + 4! + 8! gates."""
    if len(images) not in (2, 4, 8):
        raise ProgramError(f"a gate acts on 2, 4 or 8 states, got {len(images)}")
    if set(map(type, images)) != {int}:
        raise ProgramError(f"permutation images must be integers, got {images}")
    return PermutationGate(Permutation(images))


@dataclass(frozen=True, slots=True)
class DyadicGate:
    """A single-qubit rotation X**t or Z**t with dyadic exponent t."""

    axis: str
    exponent: DyadicExponent

    def __post_init__(self) -> None:
        if self.axis not in (AXIS_X, AXIS_Z):
            raise ProgramError(f"axis must be X or Z, got {self.axis!r}")

    def inverse(self) -> "DyadicGate":
        return dyadic_gate(self.axis, -self.exponent.num, self.exponent.log2den)


# Most dyadic gates kept shared at once.  Loaded exponents come from outside
# the program, so unlike permutation_gate's this cache needs a bound; the
# compilers use a few dozen gates.
MAX_SHARED_DYADIC_GATES = 4096


def dyadic_gate(axis: str, num: int, log2den: int = 0) -> DyadicGate:
    """The one gate for ``axis**(num / 2**log2den)``, shared like
    ``permutation_gate``; unreduced exponents find the reduced one's gate."""
    # Check the types before the lookup: a list axis is unhashable, and True
    # would find the gate of 1.
    if type(num) is not int or type(log2den) is not int:
        raise ProgramError("dyadic gate needs integer num and log2den")
    if type(axis) is not str:
        # Uncached: DyadicGate refuses any axis but X and Z with its own message.
        return DyadicGate(axis, DyadicExponent(num, log2den))
    return _shared_dyadic_gate(axis, num, log2den)


@functools.lru_cache(maxsize=MAX_SHARED_DYADIC_GATES)
def _shared_dyadic_gate(axis: str, num: int, log2den: int) -> DyadicGate:
    exponent = DyadicExponent(num, log2den)
    if (exponent.num, exponent.log2den) != (num, log2den):
        return _shared_dyadic_gate(axis, exponent.num, exponent.log2den)
    return DyadicGate(axis, exponent)


@dataclass(frozen=True, slots=True)
class Unitary2:
    """A 2x2 complex matrix [[a, b], [c, d]]: ``UnitaryGate``'s checks and the
    quantum simulator's products."""

    a: complex
    b: complex
    c: complex
    d: complex

    @classmethod
    def identity(cls) -> "Unitary2":
        return cls(1.0, 0.0, 0.0, 1.0)

    def __matmul__(self, other: "Unitary2") -> "Unitary2":
        return Unitary2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def adjoint(self) -> "Unitary2":
        return Unitary2(
            self.a.conjugate(), self.c.conjugate(),
            self.b.conjugate(), self.d.conjugate(),
        )

    def apply(self, amp0: complex, amp1: complex) -> tuple[complex, complex]:
        return (self.a * amp0 + self.b * amp1, self.c * amp0 + self.d * amp1)

    def max_entry_distance(self, other: "Unitary2") -> float:
        return max(
            abs(self.a - other.a), abs(self.b - other.b),
            abs(self.c - other.c), abs(self.d - other.d),
        )

    def unitarity_residual(self) -> float:
        return (self @ self.adjoint()).max_entry_distance(Unitary2.identity())

    def scaled(self, factor: complex) -> "Unitary2":
        return Unitary2(factor * self.a, factor * self.b, factor * self.c, factor * self.d)


@dataclass(frozen=True, slots=True)
class UnitaryGate:
    """An arbitrary single-qubit gate, four row-major complex entries."""

    entries: tuple[complex, complex, complex, complex]

    def __post_init__(self) -> None:
        # A NaN residual compares false against the tolerance, so check first.
        if not all(cmath.isfinite(z) for z in self.entries):
            raise ProgramError("matrix entries must be finite")
        residual = Unitary2(*self.entries).unitarity_residual()
        if residual > UNITARITY_TOL:
            raise ProgramError(f"matrix is not unitary (residual {residual:.3e})")

    def inverse(self) -> "UnitaryGate":
        adjoint = Unitary2(*self.entries).adjoint()
        return UnitaryGate((adjoint.a, adjoint.b, adjoint.c, adjoint.d))


Gate = PermutationGate | DyadicGate | UnitaryGate


@dataclass(frozen=True, slots=True)
class Instruction:
    """One gate, optionally conditioned on a single ROM bit (1-based index)."""

    gate: Gate
    control: int | None = None

    def __post_init__(self) -> None:
        if self.control is not None and (type(self.control) is not int or self.control < 1):
            raise ProgramError(f"ROM indices are 1-based, got control {self.control}")

    def inverse(self) -> "Instruction":
        return Instruction(self.gate.inverse(), self.control)


@dataclass(frozen=True, slots=True)
class RomProgram:
    """A time-ordered instruction sequence over a fixed RomSpace."""

    space: RomSpace
    instructions: tuple[Instruction, ...] = ()

    def __post_init__(self) -> None:
        # Compiled programs repeat a few instruction objects many times: check
        # each object once, in order of first position, and look that
        # position up only to report it.  The program keeps its instructions
        # alive, so their ids stay unique.
        def at(inst: Instruction) -> int:
            return next(pos for pos, other in enumerate(self.instructions) if other is inst)

        for inst in {id(inst): inst for inst in self.instructions}.values():
            if isinstance(inst.gate, PermutationGate):
                if self.space.kind != CLASSICAL:
                    raise KindMismatchError(f"classical gate at {at(inst)} in a quantum program")
                if inst.gate.perm.size != self.space.num_states:
                    raise ProgramError(
                        f"gate at {at(inst)} acts on {inst.gate.perm.size} states, "
                        f"space has {self.space.num_states}"
                    )
            else:
                if self.space.kind != QUANTUM:
                    raise KindMismatchError(f"quantum gate at {at(inst)} in a classical program")
            if inst.control is not None and inst.control > self.space.num_rom_bits:
                raise ProgramError(f"control u_{inst.control} at {at(inst)} exceeds "
                                   f"{self.space.num_rom_bits} ROM bits")

    def __len__(self) -> int:
        return len(self.instructions)


def require_kind(program: RomProgram, kind: str) -> None:
    if program.space.kind != kind:
        raise KindMismatchError(f"expected a {kind} program")


def rom_call_count(program: RomProgram) -> int:
    """Number of controlled instructions; uncontrolled gates are free."""
    return sum(1 for inst in program.instructions if inst.control is not None)


def concat(a: RomProgram, b: RomProgram) -> RomProgram:
    if a.space != b.space:
        raise ProgramError(f"cannot concatenate programs over {a.space} and {b.space}")
    return RomProgram(a.space, a.instructions + b.instructions)


def inverse(program: RomProgram) -> RomProgram:
    """Reversed instruction order with every gate inverted."""
    return RomProgram(
        program.space,
        tuple(inst.inverse() for inst in reversed(program.instructions)),
    )

