"""Seeded inputs, the op of each kind, and the check of every verdict.

An op is the library call sequence that one ``romcomp compile | romcomp
verify`` pipeline (or one ``romcomp search``) performs, so its latency is
what a user of the CLI waits for, minus interpreter start.  Each call into a
layer goes through ``Tracer.call`` so a traced run can attribute time to it.

Workloads (closed loop, one client, ops back to back):

* ``wide_and`` - the AND of m ROM bits through each AND construction,
  verified over all 2^m assignments.  Each batch holds every m of each
  construction's range once, in seeded order, so the batch's work is the
  same for every seed: few, short programs over many assignments, where
  the simulator sweeps do nearly all the work.
* ``random_functions`` - seeded random functions of j = 3..6 variables,
  each compiled by quantum1 fast, quantum1 naive and classical2, plus
  classical3 at j = 3 (a j = 4 classical3 op takes about 10 s).  Each
  function has a prescribed number of monomials per degree and the seed
  picks which, so ROM-call and gate totals repeat across seeds and a change
  in them is a change in the compilers: thousands of gates over few
  assignments, where synthesis and the wire format dominate.
* ``search`` - minimal-ROM-call queries: the all-bits AND for j = 1..3 (and
  j = 3 again without symmetry), the j = 4 AND bounded at depth 6, seeded
  non-symmetric j = 3 targets run to their minimum (eight each with minimum
  3, 4 and 5) and one seeded j = 4 target bounded at depth 5.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import comb

from romcomp import (
    QUANTUM,
    Anf,
    NotFoundWithinDepth,
    SearchTarget,
    and_barrington,
    and_fast,
    and_naive,
    and_sequence,
    anf_of,
    circuit_to_three_bit,
    compile_function,
    compile_pair,
    dumps,
    extract_boolean,
    extract_function,
    loads,
    minimal_program,
    parse_monomials,
    parse_table,
    rom_call_count,
    truth_table_of,
)
from romcomp.synth_classical import anf_to_circuit

import reference

WORKLOADS = ("wide_and", "random_functions", "search")

# wide_and: the seeded m ranges of each AND construction.
AND_RANGES = {
    "fast": range(13, 17),
    "barrington": range(13, 17),
    "naive": range(9, 12),
    "sequence": range(9, 12),
}
AND_BACKENDS = {
    "fast": "quantum1", "naive": "quantum1",
    "sequence": "classical2", "barrington": "classical3",
}

# random_functions: functions per width per batch, and the classical3 ops.
RANDOM_WIDTHS = range(3, 7)
FUNCTIONS_PER_WIDTH = 4
# Monomials of degree 0..3 in each classical3 input.  With four monomials a
# j = 3 function costs ~0.2 s to compile; for these profiles the cost does
# not depend on which monomials the seed picks.
CLASSICAL3_PROFILES = ((1, 1, 1, 1), (0, 1, 2, 1), (0, 2, 1, 1), (1, 2, 1, 0)) * 2

# search: the known minima of the all-bits AND (1, 3, 5, 9 for j = 1..4).
AND_MINIMA = {1: 1, 2: 3, 3: 5, 4: 9}
# Seeded j = 3 targets per batch for each minimum.  Drawn by minimum so the
# batch's mix of easy and hard queries, and with it op_p50_s and the
# witnesses' ROM calls, is the same for every seed.
J3_TARGETS_PER_MINIMUM = {3: 8, 4: 8, 5: 8}
J3_POOL = 256
SEARCH_DEPTH = 12
J4_AND_DEPTH = 6
J4_RANDOM_DEPTH = 5
J4_CANDIDATES = 16


@dataclass
class Op:
    """One op's inputs.  ``expected`` holds the reference answer: a table per
    register for compile ops, the target vector for search ops."""

    kind: str
    args: dict
    expected: tuple = ()


@dataclass
class Outcome:
    texts: list[str] = field(default_factory=list)   # emitted program JSON
    tables: tuple = ()                                # simulated output per register
    matched: bool | None = None                       # the op's own verify verdict
    minimum: int | None = None                        # search: None means "none found"


def gate_applications(program) -> int:
    """Active gates summed over assignments: the simulator's inner steps."""
    j = program.space.num_rom_bits
    return sum(1 << j if inst.control is None else 1 << (j - 1) for inst in program.instructions)


def _bits(table: tuple[int, ...]) -> str:
    return "".join(map(str, table))


def _and_monomial(m: int) -> str:
    return ".".join(str(v) for v in range(1, m + 1))


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _random_monomials(rng: random.Random, j: int, profile: tuple[int, ...]) -> list[int]:
    """``profile[d]`` monomials of degree d, chosen by ``rng``."""
    chosen = []
    for degree, count in enumerate(profile):
        masks = [m for m in range(1 << j) if bin(m).count("1") == degree]
        chosen += rng.sample(masks, count)
    return sorted(chosen)


def _half_profile(j: int) -> tuple[int, ...]:
    return tuple((comb(j, d) + 1) // 2 for d in range(j + 1))


def _table_op(kind: str, j: int, *functions: list[int]) -> Op:
    tables = tuple(reference.table_of_monomials(j, f) for f in functions)
    if kind == "classical3":
        tables += ((0,) * (1 << j),) * 2
    return Op(kind, {"tables": [_bits(t) for t in tables[: len(functions)]]}, tables)


def _and_op(construction: str, m: int) -> Op:
    zero = (0,) * (1 << m)
    target = reference.and_table(m)
    if construction in ("fast", "naive"):
        expected = (target,)
    elif construction == "sequence":
        expected = (target, zero) if m % 2 else (zero, target)
    else:
        expected = (target, zero, zero)
    return Op("and." + construction, {"m": m}, expected)


def _search_and_op(j: int, depth: int, symmetry: bool | None = None) -> Op:
    kind = "search.and" if symmetry is None else "search.and_nosym"
    return Op(kind, {"j": j, "depth": depth, "symmetry": symmetry}, reference.and_table(j))


def _random_target(rng: random.Random, j: int) -> tuple[int, ...]:
    while True:
        target = tuple(rng.randrange(reference.STATES) for _ in range(1 << j))
        if not reference.fully_symmetric(target, j):
            return target


def make_ops(workload: str, seed: int) -> list[Op]:
    """The seeded batch of a workload, in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    ops: list[Op] = []
    if workload == "wide_and":
        ops = [_and_op(c, m) for c, ms in AND_RANGES.items() for m in ms]
    elif workload == "random_functions":
        for j in RANDOM_WIDTHS:
            for _ in range(FUNCTIONS_PER_WIDTH):
                f = _random_monomials(rng, j, _half_profile(j))
                g = _random_monomials(rng, j, _half_profile(j))
                ops += [_table_op("quantum1.fast", j, f), _table_op("quantum1.naive", j, f),
                        _table_op("classical2", j, f, g)]
        ops += [_table_op("classical3", 3, _random_monomials(rng, 3, p))
                for p in CLASSICAL3_PROFILES]
    elif workload == "search":
        ops = [_search_and_op(j, SEARCH_DEPTH) for j in (1, 2, 3)]
        ops += [_search_and_op(3, SEARCH_DEPTH, symmetry=False),
                _search_and_op(4, J4_AND_DEPTH)]
        # Targets come from seeded candidate pools; ``references`` picks
        # them, since only the reference knows each candidate's answer.
        pool3 = [_random_target(rng, 3) for _ in range(J3_POOL)]
        ops += [Op("search.random", {"j": 3, "depth": SEARCH_DEPTH, "minimum": minimum,
                                     "candidates": pool3})
                for minimum, count in J3_TARGETS_PER_MINIMUM.items() for _ in range(count)]
        pool4 = [_random_target(rng, 4) for _ in range(J4_CANDIDATES)]
        ops.append(Op("search.random", {"j": 4, "depth": J4_RANDOM_DEPTH, "candidates": pool4}))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def warmup_ops(workload: str) -> list[Op]:
    """One small op per op kind, run untimed during set-up.

    They fill ``search._PIPELINES`` and the ``_commutator_pair`` cache, so
    lazy set-up finishes before timing starts.
    """
    if workload == "wide_and":
        return [_and_op(c, 2) for c in AND_RANGES]
    if workload == "random_functions":
        parity, majority = [1, 2, 4], [3, 5, 6]
        return [_table_op("quantum1.fast", 3, parity), _table_op("quantum1.naive", 3, parity),
                _table_op("classical2", 3, parity, majority),
                _table_op("classical3", 3, majority)]
    # Depth-1 queries: each builds its table pipeline and stops.
    asymmetric = tuple(range(4)) * 4
    return ([_search_and_op(j, 1) for j in (1, 2, 3, 4)]
            + [_search_and_op(3, 1, symmetry=False),
               Op("search.random", {"j": 4, "depth": 1}, asymmetric)])


def references(workload: str, ops: list[Op]):
    """The reference data ``check`` needs beyond ``Op.expected``.

    For ``search`` this is the unreduced j = 3 minimal-call table.  Each
    random op then takes the first unused candidate of its pool that the
    table can answer: a j = 3 target with the op's minimum, or a j = 4 target
    whose restriction bound certifies that no program within the depth bound
    reaches it.  Other workloads need nothing.
    """
    if workload != "search":
        return None
    table3 = reference.minimal_calls_table(3)

    def fits(op: Op, target: tuple[int, ...]) -> bool:
        if op.args["j"] == 3:
            return table3[reference.encode(target)] == op.args["minimum"]
        return reference.restriction_lower_bound(target, table3) > op.args["depth"]

    taken = set()
    for op in ops:
        if "candidates" in op.args:
            op.expected = next(c for c in op.args["candidates"] if c not in taken and fits(op, c))
            taken.add(op.expected)
    return table3


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


def _emit(t, program, rom_calls_counter: str) -> str:
    t.add(rom_calls_counter, rom_call_count, program)
    text = t.call("serialize.dumps", dumps, program)
    t.add("serialize.bytes", len, text)
    return text


def _expected_table(t, spec: tuple[str, str] | None, j: int):
    """What ``romcomp verify`` builds from ``--table``/``--monomials``."""
    if spec is None:
        return (0,) * (1 << j)
    form, text = spec
    if form == "table":
        anf = t.call("boolfunc.anf_of", anf_of, parse_table(text, j))
    else:
        anf = parse_monomials(text, j)
    return t.call("boolfunc.truth_table_of", truth_table_of, Anf(j, anf.monomials)).bits


def _verify(t, text: str, specs: list, out: Outcome) -> None:
    """Load, simulate and compare, as ``romcomp verify -`` does."""
    program = t.call("serialize.loads", loads, text)
    if program.space.kind == QUANTUM:
        actual = [t.call("sim_quantum.extract_boolean", extract_boolean, program)]
        t.add("sim_quantum.gate_applications", gate_applications, program)
    else:
        actual = t.call("sim_classical.extract_function", extract_function, program).components
        t.add("sim_classical.gate_applications", gate_applications, program)
    j = program.space.num_rom_bits
    specs = specs + [None] * (len(actual) - len(specs))
    out.tables = tuple(table.bits for table in actual)
    out.matched = all(got == _expected_table(t, spec, j) for got, spec in zip(out.tables, specs))
    out.texts.append(text)


def _three_bit(anf: Anf, j: int):
    return circuit_to_three_bit(anf_to_circuit(anf), j)


def _run_table_op(t, op: Op, out: Outcome) -> None:
    tables = op.args["tables"]
    anfs = [t.call("boolfunc.anf_of", anf_of, parse_table(bits)) for bits in tables]
    j = anfs[0].num_vars
    if op.kind.startswith("quantum1"):
        method = op.kind.split(".")[1]
        program = t.call("synth_quantum.compile", compile_function, anfs[0], j, method=method)
        text = _emit(t, program, "synth_quantum.rom_calls")
    elif op.kind == "classical2":
        program = t.call("synth_classical.compile_pair", compile_pair, anfs[0], anfs[1], j)
        text = _emit(t, program, "synth_classical.rom_calls")
    else:
        program = t.call("synth_classical.three_bit", _three_bit, anfs[0], j)
        text = _emit(t, program, "synth_classical.rom_calls")
    _verify(t, text, [("table", bits) for bits in tables], out)


def _run_and_op(t, op: Op, out: Outcome) -> None:
    m = op.args["m"]
    construction = op.kind.split(".")[1]
    controls = list(range(1, m + 1))
    if construction == "fast":
        program = t.call("synth_quantum.compile", and_fast, controls, m)
    elif construction == "naive":
        program = t.call("synth_quantum.compile", and_naive, controls, m)
    elif construction == "sequence":
        program, _ = t.call("synth_classical.and_sequence", and_sequence, m, m)
    else:
        program = t.call("synth_classical.three_bit", and_barrington, m)
    text = _emit(t, program, "synth_quantum.rom_calls" if construction in ("fast", "naive")
                 else "synth_classical.rom_calls")
    spec = ("monomials", _and_monomial(m))
    specs = [None, spec] if construction == "sequence" and m % 2 == 0 else [spec]
    _verify(t, text, specs, out)


def _run_search_op(t, op: Op, out: Outcome) -> None:
    j, depth = op.args["j"], op.args["depth"]
    if op.kind == "search.random":
        target, symmetry = SearchTarget(j, tuple(op.expected)), None
    else:
        target, symmetry = SearchTarget.all_bits_and(j), op.args["symmetry"]
    try:
        result = t.call("search.minimal_program", minimal_program, target, depth, symmetry)
    except NotFoundWithinDepth:
        return
    t.add("search.nodes_expanded", lambda: result.nodes_expanded)
    t.add("search.witness_rom_calls", rom_call_count, result.witness)
    out.minimum = result.minimal_rom_calls
    out.texts.append(t.call("serialize.dumps", dumps, result.witness))
    t.add("serialize.bytes", len, out.texts[-1])


def run_op(t, op: Op) -> Outcome:
    out = Outcome()
    if op.kind.startswith("and."):
        _run_and_op(t, op, out)
    elif op.kind.startswith("search."):
        _run_search_op(t, op, out)
    else:
        _run_table_op(t, op, out)
    return out


# ---------------------------------------------------------------------------
# Checks and CLI arguments
# ---------------------------------------------------------------------------


def check(op: Op, out: Outcome, table3) -> str | None:
    """None when the outcome matches the reference, else what differs."""
    if not op.kind.startswith("search."):
        if out.tables != op.expected:
            return "simulated tables differ from the reference"
        if not out.matched:
            return "the op's own comparison reported a mismatch"
        return None
    j, depth, target = op.args["j"], op.args["depth"], tuple(op.expected)
    if op.kind != "search.random":
        want = AND_MINIMA[j]
    elif j == 3:
        want = int(table3[reference.encode(target)])
    else:
        want = None  # ``references`` certified that no program fits the bound
    if want is not None and want > depth:
        want = None
    if out.minimum != want:
        return f"minimum {out.minimum}, reference {want}"
    if want is None:
        return None
    text = out.texts[0]
    if reference.evaluate_two_bit(text) != target:
        return "witness does not reach the target"
    if reference.program_size(text)[0] != want:
        return "witness ROM calls differ from the minimum"
    return None


def cli_argvs(op: Op) -> tuple[list[str], list[str]]:
    """``romcomp compile`` and ``romcomp verify -`` arguments for an op."""
    if op.kind.startswith("and."):
        construction = op.kind.split(".")[1]
        m = op.args["m"]
        compile_argv = ["compile", "--backend", AND_BACKENDS[construction], "--and-of", str(m)]
        if construction == "naive":
            compile_argv.append("--naive")
        flag = "--f2" if construction == "sequence" and m % 2 == 0 else "--monomials"
        return compile_argv, ["verify", "-", flag, _and_monomial(m)]
    tables = op.args["tables"]
    backend = op.kind.split(".")[0]
    if backend == "classical2":
        specs = ["--f1", "t:" + tables[0], "--f2", "t:" + tables[1]]
        return ["compile", "--backend", backend] + specs, ["verify", "-"] + specs
    compile_argv = ["compile", "--backend", backend, "--table", tables[0]]
    if op.kind == "quantum1.naive":
        compile_argv.append("--naive")
    return compile_argv, ["verify", "-", "--table", tables[0]]



