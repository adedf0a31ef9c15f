"""Classical compilers: two- and three-bit register machines, and width-5
branching programs.

Each is a commutator recursion over an input/NOT/AND/XOR circuit, so a run
costs one ROM call per input leaf; OR is built by De Morgan.  Both register
machines split on the affine bracket of their registers (Ben-Or & Cleve): on
three registers every NOT and XOR splits, and every target is an involution,
so an XOR is its operands' runs back to back and a circuit flips bit 1 in
``branching_length`` calls; on two only the NOTs split, which is the doubling
of a product of ROM bits, a left-deep AND chain whose partial product
alternates between the registers.  ``barrington`` keeps Barrington's theorem:
a depth-d circuit becomes a width-5 permutation branching program of length
at most 4^d that applies a chosen 5-cycle exactly when the circuit accepts.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cache, lru_cache, reduce
from typing import Callable, TypeVar

from .boolfunc import Anf, ParseError, TruthTable
from .program import (
    CLASSICAL,
    Instruction,
    Permutation,
    RomProgram,
    RomSpace,
    MAX_ROM_CALLS,
    check_rom_calls,
    permutation_gate,
)


def not_gate(register: int, rom_bit: int | None) -> Instruction:
    """NOT on one register, optionally conditioned on a ROM bit."""
    if register not in (1, 2):
        raise ValueError(f"register must be 1 or 2, got {register}")
    return Instruction(permutation_gate(_affine(register, None, 2)), rom_bit)


def cnot_gate(target: int, rom_bit: int | None) -> Instruction:
    """XOR the other register into ``target``, conditioned on a ROM bit."""
    if target not in (1, 2):
        raise ValueError(f"target must be 1 or 2, got {target}")
    return Instruction(permutation_gate(_affine(target, 3 - target, 2)), rom_bit)


def and_sequence(m: int, num_rom_bits: int) -> tuple[RomProgram, int]:
    """Program XOR-ing u_1 u_2 ... u_m into one register, and that register.

    The result register alternates with m: odd m lands in register 1, even m
    in register 2, with the other register restored on every start state.
    """
    if not 1 <= m <= num_rom_bits:
        raise ValueError(f"m must be in 1..{num_rom_bits}, got {m}")
    register = 2 - m % 2
    product, zero = Anf(num_rom_bits, frozenset({(1 << m) - 1})), Anf(num_rom_bits, frozenset())
    pair = (product, zero) if register == 1 else (zero, product)
    return compile_pair(*pair, num_rom_bits), register


def compile_pair(f1: Anf, f2: Anf, num_rom_bits: int) -> RomProgram:
    """Two-bit program computing (f1, f2) into registers (1, 2): each
    monomial is a left-deep AND chain run at its register's NOT on ``_DOUBLING``."""
    if f1.num_vars != num_rom_bits or f2.num_vars != num_rom_bits:
        raise ValueError("component arities must match num_rom_bits")
    forms = [(anf.var_lists(), flip) for anf, flip in zip((f1, f2), _DOUBLING)]
    return RomProgram(RomSpace(num_rom_bits, 2, CLASSICAL), tuple(_commutator_run(
        monomial_runs(forms, "left"), _DOUBLING.__getitem__, _then, _inverse, _step_instructions)))


# ---------------------------------------------------------------------------
# Boolean circuits and Barrington's construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class InputNode:
    index: int


@dataclass(frozen=True, slots=True)
class NotNode:
    child: "CircuitNode"


@dataclass(frozen=True, slots=True)
class AndNode:
    left: "CircuitNode"
    right: "CircuitNode"


@dataclass(frozen=True, slots=True)
class XorNode:
    left: "CircuitNode"
    right: "CircuitNode"


CircuitNode = InputNode | NotNode | AndNode | XorNode


def OrNode(left: CircuitNode, right: CircuitNode) -> CircuitNode:  # noqa: N802 (a node constructor)
    """OR by De Morgan: NOT(AND(NOT left, NOT right))."""
    return NotNode(AndNode(NotNode(left), NotNode(right)))


T, G = TypeVar("T"), TypeVar("G")


def _fold(circuit: CircuitNode, leaf: Callable[[int], T], negate: Callable[[T], T],
          join: Callable[[T, T], T], xor: Callable[[T, T], T]) -> T:
    """The circuit's value built bottom up: ``leaf(index)`` at an input,
    ``negate`` through NOT, ``join(left, right)`` at AND and ``xor(left,
    right)`` at XOR.  Each node is valued once, keyed by id, so a subtree
    shared by several parents is walked once."""
    memo: dict[int, T] = {}

    def value(node: CircuitNode) -> T:
        if id(node) not in memo:
            if isinstance(node, InputNode):
                memo[id(node)] = leaf(node.index)
            elif isinstance(node, NotNode):
                memo[id(node)] = negate(value(node.child))
            else:
                both = join if isinstance(node, AndNode) else xor
                memo[id(node)] = both(value(node.left), value(node.right))
        return memo[id(node)]

    result = value(circuit)
    del value  # break the closure's cycle, as in _commutator_run
    return result


def circuit_depth(node: CircuitNode) -> int:
    """Longest path to an input, counting AND nodes only: an OR is one AND,
    and an XOR two, the depth of OR(AND(a, NOT b), AND(NOT a, b)), so
    ``barrington``'s length stays within 4^depth."""
    return _fold(node, lambda _: 0, lambda d: d, lambda left, right: 1 + max(left, right),
                 lambda left, right: 2 + max(left, right))


def circuit_width(node: CircuitNode) -> int:
    """The largest input index: the ROM bits a circuit reads."""
    return _fold(node, lambda index: index, lambda w: w, max, max)


def eval_circuit(node: CircuitNode, assignment: int) -> int:
    return _fold(node, lambda index: assignment >> (index - 1) & 1, lambda v: 1 - v,
                 lambda left, right: left & right, lambda left, right: left ^ right)


def branching_length(circuit: CircuitNode) -> int:
    """Length of a commutator run of the circuit, without building it: 1 per
    input, the child's through NOT, twice both children's through AND (so
    through OR, its De Morgan form) and both children's through XOR.  It is
    the exact ROM calls of ``circuit_to_three_bit`` and ``circuit_to_qubit``,
    and ``barrington``'s program length for a circuit without XOR."""
    return _fold(circuit, lambda _: 1, lambda n: n, lambda left, right: 2 * (left + right),
                 lambda left, right: left + right)


def _balanced(nodes: list[CircuitNode], join: Callable[..., CircuitNode]) -> CircuitNode:
    """The nodes joined over a balanced tree, the left half the larger."""
    if len(nodes) == 1:
        return nodes[0]
    mid = (len(nodes) + 1) // 2
    return join(_balanced(nodes[:mid], join), _balanced(nodes[mid:], join))


def balanced_and_circuit(num_inputs: int) -> CircuitNode:
    """AND of x1..xn as a balanced tree of depth ceil(log2 n)."""
    if num_inputs < 1:
        raise ValueError("need at least one input")
    return _balanced([InputNode(i) for i in range(1, num_inputs + 1)], AndNode)


def doubling_calls(m: int) -> int:
    """ROM calls of a chain AND of m ROM bits; past the budget, refused by m alone."""
    if m > MAX_ROM_CALLS.bit_length() - 2:
        raise ValueError(f"a product of {m} ROM bits needs over {MAX_ROM_CALLS} ROM calls")
    return 3 * 2 ** (m - 1) - 2 if m else 0


def _balanced_calls(m: int) -> int:
    d = (m - 1).bit_length()  # each leaf sits at depth d or d - 1 and costs 2^depth
    return ((3 * m << d) - (1 << 2 * d)) >> 1 if m else 0


# The AND of a monomial's m variables by shape, with its exact ROM calls from m
# alone: "balanced" has depth d = ceil(log2 m) and costs 2^(d-1) (3m - 2^d);
# "left" is the two-bit doubling, whose right children must be leaves;
# "right" is the qubit's naive chain.  Both chains cost ``doubling_calls``.
AND_SHAPES = {
    "balanced": (lambda leaves: _balanced(leaves, AndNode), _balanced_calls),
    "left": (lambda leaves: reduce(AndNode, leaves), doubling_calls),
    "right": (lambda leaves: reduce(lambda tail, leaf: AndNode(leaf, tail), reversed(leaves)),
              doubling_calls),
}


def circuit_runs(circuit: CircuitNode, num_rom_bits: int, rho: G) -> list[tuple[CircuitNode, G]]:
    """The one (circuit, rho) run of a circuit compile, ``monomial_runs``'
    counterpart: refused if the circuit reads past ``num_rom_bits`` or its
    ``branching_length`` is past the budget."""
    width = circuit_width(circuit)
    if width > num_rom_bits:
        raise ValueError(f"circuit reads x{width} but space has {num_rom_bits} ROM bits")
    check_rom_calls(branching_length(circuit))
    return [(circuit, rho)]


def monomial_runs(forms: list[tuple[list[list[int]], G]],
                  shape: str) -> list[tuple[CircuitNode | None, G]]:
    """A (circuit, rho) run per monomial of each (monomials, rho) of ``forms``:
    its AND in ``shape``, None (always true) for none.  The summed ROM calls
    are checked against the budget before any node is built."""
    build, calls = AND_SHAPES[shape]
    check_rom_calls(sum(calls(len(v)) for monomials, _ in forms for v in monomials))
    return [(build([InputNode(i) for i in v]) if v else None, rho)
            for monomials, rho in forms for v in monomials]


# Deepest nesting of parenthesised gates that ``parse_circuit`` accepts.  The
# parser takes a frame per level, ``_fold`` and ``_commutator_run`` one per NOT,
# AND and XOR, so three per OR.  The least recursion limits at which
# ``python -m romcomp compile`` runs (binary search, one process per trial):
# 200 nested XORs, 201 ROM calls, 220 on both backends; 200 nested ORs, which
# the ROM-call budget refuses, 614; the deepest OR nest the budget admits, 19
# ORs around NOTs to the cap, 252 (three bits) and 256 (qubit).  Python's
# default is 1000.
MAX_CIRCUIT_DEPTH = 200


_BINARY = {"and": AndNode, "or": OrNode, "xor": XorNode}


def parse_circuit(text: str) -> CircuitNode:
    """Parse prefix form like ``(and (or x1 x2) (xor x3 (not x4)))``, nested
    at most ``MAX_CIRCUIT_DEPTH`` deep."""
    tokens = [(match.group(), match.start()) for match in re.finditer(r"[()]|[^\s()]+", text)]
    cursor = 0

    def parse(depth: int) -> CircuitNode:
        nonlocal cursor
        if cursor >= len(tokens):
            raise ParseError("unexpected end of circuit", len(text))
        token, at = tokens[cursor]
        cursor += 1
        if token == "(":
            if depth == MAX_CIRCUIT_DEPTH:
                raise ParseError(f"circuit nested deeper than {MAX_CIRCUIT_DEPTH} levels", at)
            if cursor >= len(tokens):
                raise ParseError("unexpected end of circuit", len(text))
            op, op_at = tokens[cursor]
            cursor += 1
            if op == "not":
                node: CircuitNode = NotNode(parse(depth + 1))
            elif op in _BINARY:
                node = _BINARY[op](parse(depth + 1), parse(depth + 1))
            else:
                raise ParseError(f"expected and/or/xor/not, got {op!r}", op_at)
            if cursor >= len(tokens) or tokens[cursor][0] != ")":
                raise ParseError("expected ')'", tokens[cursor - 1][1])
            cursor += 1
            return node
        if token == ")":
            raise ParseError("unexpected ')'", at)
        if re.fullmatch(r"x[0-9]+", token) and int(token[1:]) >= 1:
            return InputNode(int(token[1:]))
        raise ParseError(f"expected a variable like x1, got {token!r}", at)

    node = parse(0)
    if cursor != len(tokens):
        raise ParseError("trailing input after circuit", tokens[cursor][1])
    return node


def anf_to_circuit(anf: Anf) -> CircuitNode:
    """An XOR-of-AND form as a balanced XOR of balanced ANDs, one per
    monomial, refused past the ROM-call budget before a node is built.  The
    constant-1 monomial is a NOT at the root; the empty form is x1 AND NOT x1."""
    x1 = InputNode(1)
    products = [circuit for circuit, _ in
                monomial_runs([([v for v in anf.var_lists() if v], None)], "balanced")]
    root = _balanced(products, XorNode) if products else AndNode(x1, NotNode(x1))
    return NotNode(root) if 0 in anf.monomials else root


@dataclass(frozen=True, slots=True)
class BranchingProgram:
    """Permutation branching program: each step applies one of two
    permutations of the workspace depending on one ROM bit."""

    steps: tuple[tuple[int, Permutation, Permutation], ...]

    @property
    def length(self) -> int:
        return len(self.steps)

    def evaluate(self, assignment: int) -> Permutation:
        result = Permutation.identity(self.steps[0][1].size)
        for bit, if0, if1 in self.steps:
            result = result.then(if1 if assignment >> (bit - 1) & 1 else if0)
        return result


# Permutations as image tuples, composed (``_then``: ``first`` first) through
# caches, since a commutator run reuses a few dozen of them.
Images = tuple[int, ...]


@cache
def _then(first: Images, second: Images) -> Images:
    return tuple(second[s] for s in first)


@cache
def _inverse(images: Images) -> Images:
    return tuple(images.index(s) for s in range(len(images)))


# In time order sigma, tau, sigma^-1, tau^-1 is the 5-cycle 0 -> 1 -> 2 -> 3 -> 4 -> 0.
_SIGMA, _TAU = (2, 0, 4, 1, 3), (1, 4, 3, 0, 2)


@cache
def _commutator_pair(target: Images) -> tuple[tuple[str, Images], ...]:
    """Barrington's four (child, target) runs in time order for the 5-cycle
    ``target``: left at s, right at t, left at s', right at t', with t' s' t s
    = target.  s and t are ``_SIGMA`` and ``_TAU`` relabeled onto target's
    cycle c: each sends state c[i] to c[_SIGMA[i]] or c[_TAU[i]]."""
    (cycle,) = Permutation(target).cycles()
    sigma, tau = list(target), list(target)  # states off the cycle stay fixed
    for i, state in enumerate(cycle):
        sigma[state], tau[state] = cycle[_SIGMA[i]], cycle[_TAU[i]]
    sigma, tau = tuple(sigma), tuple(tau)
    return (("left", sigma), ("right", tau), ("left", _inverse(sigma)), ("right", _inverse(tau)))


def _commutator_run(runs: list[tuple[CircuitNode | None, G]], split: Callable[[G], tuple],
                    then: Callable[[G, G], G], inverse: Callable[[G], G],
                    emit: Callable[..., tuple[T, ...]]) -> list[T]:
    """``emit``'s items per step (bit, if0, if1), in time order, of a program
    that applies each (circuit, rho) of ``runs`` in turn: ``rho`` exactly when
    the circuit is true, in the group of ``then`` (``first`` first) and
    ``inverse``.  AND runs its children at ``split``'s four (child, target)s
    in time order; NOT runs its child at the inverse target and folds a fixup
    into the last step, so OR, built by De Morgan, needs no case of its own;
    None is always true.  XOR runs both children at the target, back to back
    (Ben-Or & Cleve), which applies rho^(a + b): rho^(a XOR b) where rho
    squares to the identity, as on the register machines, and on the qubit,
    where only the parity of a run's exponent is read.  All runs write one
    list: a node's run appends the items of all its steps but the last and
    returns that last step, which a NOT above may fix up.  Within a run, the
    first visit to each (gate node, target), keyed by the node's id, records
    its slice of the list and its last step; a later visit appends the slice
    again.  ``emit`` is called per step: cache it."""
    items: list[T] = []
    memo: dict[tuple[int, G], tuple[int, int, tuple]] = {}

    def run(node: CircuitNode | None, target: G) -> tuple[int | None, G, G]:
        if node is None or isinstance(node, InputNode):
            return node and node.index, identity, target
        key = (id(node), target)
        if key in memo:
            start, stop, last = memo[key]
            items.extend(items[start:stop])
            return last
        start, last = len(items), None
        if isinstance(node, NotNode):
            bit, if0, if1 = run(node.child, inverse(target))
            last = bit, then(if0, target), then(if1, target)
        else:
            both = (split(target) if isinstance(node, AndNode)
                    else (("left", target), ("right", target)))
            for child, child_target in both:
                if last:
                    items.extend(emit(*last))
                last = run(getattr(node, child), child_target)
        memo[key] = start, len(items), last
        return last

    for circuit, rho in runs:
        identity = then(rho, inverse(rho))
        items.extend(emit(*run(circuit, rho)))
        memo.clear()
    del run  # break the closure's cycle: free it now, not in a GC pass
    return items


def barrington(circuit: CircuitNode, rho: Permutation) -> BranchingProgram:
    """Branching program of length <= 4^depth that applies ``rho``, a
    5-cycle on any number of states, exactly when the circuit accepts and
    fixes every state otherwise.  A 5-cycle does not square to the identity,
    so each XOR is first rewritten as OR(AND(a, NOT b), AND(NOT a, b))."""
    if [len(cycle) for cycle in rho.cycles()] != [5]:
        raise ValueError("rho must be a 5-cycle")
    circuit = _fold(circuit, InputNode, NotNode, AndNode,
                    lambda a, b: OrNode(AndNode(a, NotNode(b)), AndNode(NotNode(a), b)))
    emit = cache(lambda bit, if0, if1: ((bit, Permutation(if0), Permutation(if1)),))
    return BranchingProgram(tuple(
        _commutator_run([(circuit, rho.images)], _commutator_pair, _then, _inverse, emit)))


# Flipping writable bit 1 of three is the state permutation
# (0 1)(2 3)(4 5)(6 7); these four 5-cycles compose to it in time order
# (first tuple applied first).  Each touches only five of the eight states.
BIT_FLIP_FIVE_CYCLES: tuple[tuple[int, ...], ...] = (
    (0, 1, 2, 5, 4),
    (0, 4, 5, 3, 2),
    (4, 5, 6, 1, 0),
    (4, 0, 1, 7, 6),
)

BIT_FLIP_PERMUTATION = Permutation.from_cycles(8, ((0, 1), (2, 3), (4, 5), (6, 7)))


def _affine(i: int, j: int | None, n: int) -> Images:
    """NOT_i (``j`` None) or XOR_ij (j into i) of ``n`` registers; register i is state bit i - 1."""
    return tuple(s ^ ((1 if j is None else s >> (j - 1) & 1) << (i - 1)) for s in range(1 << n))


def _bracket(n: int) -> dict[Images, tuple[tuple[str, Images], ...]]:
    """The affine bracket of ``n`` registers as a split table, NOTs first in
    register order: in time order (NOT_j, XOR_ij)^2 = NOT_i with j = i mod n + 1,
    and (XOR_ij, XOR_jk)^2 = XOR_ik with j a third register.  Two registers
    have no third, so only their NOTs split: the doubling."""
    nots = {_affine(i, None, n): (("left", _affine(j, None, n)), ("right", _affine(i, j, n))) * 2
            for i in range(1, n + 1) for j in [i % n + 1]}
    return nots | {_affine(i, k, n): (("left", _affine(i, j, n)), ("right", _affine(j, k, n))) * 2
                   for i, k, j in itertools.permutations(range(1, n + 1), 3)}


_DOUBLING, _AFFINE = _bracket(2), _bracket(3)


def circuit_to_three_bit(circuit: CircuitNode, num_rom_bits: int) -> RomProgram:
    """Three-bit program XOR-ing a circuit's value into writable bit 1, with
    bits 2 and 3 restored, on every start state.

    One commutator run at NOT_1 on the affine bracket: each input costs one
    step, and a step (if0, if1) becomes an uncontrolled if0 followed by the
    controlled difference if1 * if0^-1, which is never the identity, so the
    program costs exactly ``branching_length`` ROM calls.
    """
    return RomProgram(RomSpace(num_rom_bits, 3, CLASSICAL), tuple(_commutator_run(
        circuit_runs(circuit, num_rom_bits, BIT_FLIP_PERMUTATION.images),
        _AFFINE.__getitem__, _then, _inverse, _step_instructions)))


# Steps are keyed by their ROM bit, so unlike the gate caches this is bounded.
@lru_cache(maxsize=4096)
def _step_instructions(bit: int, if0: Images, if1: Images) -> tuple[Instruction, ...]:
    parts = ((if0, None), (_then(_inverse(if0), if1), bit))
    return tuple(Instruction(permutation_gate(p), control)
                 for p, control in parts if p != tuple(range(len(p))))


def and_barrington(num_rom_bits: int) -> RomProgram:
    """Three-bit program computing the AND of all ROM bits into bit 1: the name
    is historical, since ``circuit_to_three_bit`` no longer runs Barrington."""
    return circuit_to_three_bit(balanced_and_circuit(num_rom_bits), num_rom_bits)


def one_bit_reachable(num_rom_bits: int) -> set[TruthTable]:
    """Closure of the functions a one-writable-bit machine can compute.

    The only reversible one-bit gate is NOT, so every program toggles the bit
    by an XOR of its generators: "toggle everywhere" and "toggle where u_i
    is 1", one per ROM bit.  The closure is their span.
    """
    if num_rom_bits > 10:
        raise ValueError(f"the closure of {num_rom_bits} ROM bits has 2^{num_rom_bits + 1}"
                         " tables; capped at 10 ROM bits")
    length = 1 << num_rom_bits
    span = {0}
    for mask in (0, *(1 << i for i in range(num_rom_bits))):
        generator = sum(1 << u for u in range(length) if u & mask == mask)
        span |= {packed ^ generator for packed in span}
    return {TruthTable.from_int(num_rom_bits, packed) for packed in span}
