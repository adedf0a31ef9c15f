"""Command-line front end: anf, compile, verify, render, counts, search.

Exit codes: 0 success, 1 verification mismatch, 2 parse/usage error,
3 non-classical quantum output.  Compiled programs go to stdout as JSON (the
count line goes to stderr) so output pipes straight into ``verify``.
"""

from __future__ import annotations

import argparse
import re
import sys

import numpy as np

from . import serialize
from .boolfunc import (
    Anf,
    ParseError,
    anf_of,
    format_monomials,
    parse_monomials,
    parse_table,
    truth_table_of,
)
from .program import MAX_ROM_CALLS, QUANTUM, ProgramError, RomProgram, rom_call_count
from .render import render_program
from .search import (
    NotFoundWithinDepth,
    SearchTarget,
    conjectured_minimal_calls,
    minimal_program,
)
from .sim_classical import extract_function
from .sim_quantum import NonClassicalOutput, extract_boolean
from .sweep import SWEEP_LIMIT
from .synth_classical import (
    anf_to_circuit,
    circuit_to_three_bit,
    circuit_width,
    compile_pair,
    parse_circuit,
)
from .synth_quantum import circuit_to_qubit, compile_function

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_NONCLASSICAL = 3

# Widest ROM that compile accepts: 1024 bits, the square root of MAX_ROM_CALLS,
# below the widest AND within it (1,365 bits by and_fast, 2,096,128 calls).
COMPILE_WIDTH_LIMIT = 1 << (MAX_ROM_CALLS.bit_length() - 1) // 2


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE) -> None:
        super().__init__(message)
        self.code = code


def _cmd_anf(args: argparse.Namespace) -> int:
    if (args.monomials is None) == (args.table is None):
        raise CliError("give exactly one of --monomials or --table")
    _check_width(SWEEP_LIMIT, [args.monomials], num_vars=args.num_vars)
    if args.table is not None:
        print(format_monomials(anf_of(parse_table(args.table, args.num_vars))))
    else:
        print(truth_table_of(parse_monomials(args.monomials, args.num_vars)).to_bit_string())
    return EXIT_OK


def _check_width(limit: int, texts: list[str | None], **widths: int | None) -> None:
    """Refuse a width flag below 1, and a variable index or width past
    ``limit``, before any ``1 << width`` mask or table is built; ``t:`` tables
    are skipped, as their length bounds their width."""
    for name, width in widths.items():
        if width is not None and width < 1:
            raise CliError(f"--{name.replace('_', '-')} must be at least 1, got {width}")
    indices = [int(index) for text in texts if text and not text.startswith("t:")
               for index in re.findall(r"[0-9]+", text)]
    widest = max([width for width in widths.values() if width is not None] + indices, default=0)
    if widest > limit:
        raise CliError(f"{widest} variables exceed the limit ({limit})")


def _component_specs(args: argparse.Namespace, registers: int) -> list[str | None]:
    """One ``_parse_component`` spec per writable register, None if not given.

    The function is named either per register with ``--f<k>``, or whole by
    one of ``--monomials S``, ``--table T`` and ``--and-of m``: the specs
    ``S``, ``t:T`` and ``1.2.….m`` for register 1.  Mixing flags with a
    whole-function one, or naming a register past ``registers``, is refused.
    """
    whole = {
        "--monomials": (1, args.monomials),
        "--table": (1, None if args.table is None else "t:" + args.table),
    }
    and_of = getattr(args, "and_of", None)
    if and_of is not None:
        # Two registers means classical2, where and_sequence leaves an
        # even-width AND in register 2.
        and_register = 2 if registers == 2 and and_of % 2 == 0 else 1
        whole["--and-of"] = (and_register, ".".join(str(v) for v in range(1, and_of + 1)))
    flags = {f"--f{k}": (k, getattr(args, f"f{k}", None)) for k in (1, 2, 3)} | whole
    given = {flag: named for flag, named in flags.items() if named[1] is not None}
    if len(given) > 1 and any(flag in whole for flag in given):
        raise CliError(f"conflicting function flags: {', '.join(given)}")
    specs: list[str | None] = [None] * registers
    for flag, (register, spec) in given.items():
        if register > registers:
            raise CliError(f"{flag} names register {register}, past the program's {registers}")
        specs[register - 1] = spec
    return specs


def _parse_component(spec: str | None, num_vars: int | None) -> Anf:
    """A component function given as ``1,1.2`` / ``m:...`` / ``t:0100``;
    None is the constant 0."""
    spec = spec or ""
    if spec.startswith("t:"):
        return anf_of(parse_table(spec[2:], num_vars))
    if spec.startswith("m:"):
        spec = spec[2:]
    return parse_monomials(spec, num_vars)


# Backend -> (writable registers its functions fill, which of --naive and --circuit it reads).
_BACKENDS = {"quantum1": (1, {"naive", "circuit"}), "classical2": (2, set()),
             "classical3": (1, {"circuit"})}


def _compile_program(args: argparse.Namespace) -> RomProgram:
    """The program that ``compile`` emits for its parsed flags."""
    registers, reads = _BACKENDS[args.backend]
    for flag in ("naive", "circuit"):
        if flag not in reads and getattr(args, flag) not in (None, False):
            raise CliError(f"--backend {args.backend} does not read --{flag}")
    _check_width(COMPILE_WIDTH_LIMIT, [args.monomials, args.f1, args.f2, args.circuit],
                 num_vars=args.num_vars, and_of=args.and_of, num_rom_bits=args.num_rom_bits)
    specs = _component_specs(args, registers)
    circuit = None
    if args.circuit is not None:
        if args.num_vars is not None or specs != [None] or args.naive:
            raise CliError("--circuit is the whole function: no other function flag, no --naive")
        circuit = parse_circuit(args.circuit)
    parsed = [_parse_component(spec, args.num_vars) for spec in specs]
    widths = [anf.num_vars for anf in parsed] if circuit is None else [circuit_width(circuit)]
    j = max(widths) if args.num_rom_bits is None else args.num_rom_bits
    anfs = [Anf(j, anf.monomials) for anf in parsed]
    if args.backend == "quantum1":
        return (compile_function(anfs[0], j, method="naive" if args.naive else "fast")
                if circuit is None else circuit_to_qubit(circuit, j))
    if args.backend == "classical2":
        return compile_pair(anfs[0], anfs[1], j)
    return circuit_to_three_bit(anf_to_circuit(anfs[0]) if circuit is None else circuit, j)


def _cmd_compile(args: argparse.Namespace) -> int:
    program = _compile_program(args)
    text = serialize.dumps(program)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.write("\n")
    else:
        print(text)
    print(f"rom_calls={rom_call_count(program)} gates={len(program)}", file=sys.stderr)
    return EXIT_OK


def _read_program(path: str) -> RomProgram:
    if path == "-":
        return serialize.loads(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as handle:
        return serialize.loads(handle.read())


def _cmd_verify(args: argparse.Namespace) -> int:
    program = _read_program(args.program)
    j = program.space.num_rom_bits
    specs = _component_specs(args, program.space.num_writable)
    # Simulate first: the sweep's width limit must fire before any table is built.
    if program.space.kind == QUANTUM:
        try:
            actual = [extract_boolean(program)]
        except NonClassicalOutput as exc:
            print(f"non-classical output: {exc}")
            return EXIT_NONCLASSICAL
    else:
        actual = list(extract_function(program).components)
    expected = [truth_table_of(_parse_component(spec, j)) for spec in specs]

    if any(got.bits != want.bits for got, want in zip(actual, expected)):
        # The first mismatch by lowest u, then lowest component: flat indices
        # of the (u, component) table run in that order.
        differs = np.not_equal([t.bits for t in actual], [t.bits for t in expected])
        u, comp = divmod(int(np.flatnonzero(differs.T)[0]), len(actual))
        bits = ",".join(str(u >> b & 1) for b in range(j))
        print(f"mismatch at u=({bits}) component {comp + 1}: "
              f"got {actual[comp].bits[u]} expected {expected[comp].bits[u]}")
        return EXIT_MISMATCH
    print(f"ok: all {1 << j} assignments match")
    return EXIT_OK


def _cmd_render(args: argparse.Namespace) -> int:
    program = _read_program(args.program)
    sys.stdout.write(render_program(program))
    return EXIT_OK


# counts column -> the compile backend flags that build its AND.
_COUNT_COLUMNS = {"naive": "quantum1 --naive", "fast": "quantum1", "twobit": "classical2",
                  "threebit": "classical3"}


def _cmd_counts(args: argparse.Namespace) -> int:
    if not 1 <= args.j_max <= 16:
        raise CliError(f"--j-max must be in 1..16, got {args.j_max}")
    print(f"{'j':>3}", *(f"{name:>8}" for name in _COUNT_COLUMNS), f"{'conjectured':>11}")
    parser = build_parser()
    for j in range(1, args.j_max + 1):
        counts = []
        for backend in _COUNT_COLUMNS.values():
            compile_args = parser.parse_args(f"compile --and-of {j} --backend {backend}".split())
            counts.append(f"{rom_call_count(_compile_program(compile_args)):>8}")
        print(f"{j:>3}", *counts, f"{conjectured_minimal_calls(j):>11}")
    return EXIT_OK


def _cmd_search(args: argparse.Namespace) -> int:
    if args.max_depth < 0:
        raise CliError(f"--max-depth must be at least 0, got {args.max_depth}")
    target = SearchTarget.all_bits_and(args.j)
    try:
        result = minimal_program(target, args.max_depth)
    except NotFoundWithinDepth as exc:
        raise CliError(str(exc), EXIT_MISMATCH) from exc
    print(serialize.dumps(result.witness))
    print(
        f"j={args.j} min_rom_calls={result.minimal_rom_calls} nodes={result.nodes_expanded}",
        file=sys.stderr,
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="romcomp",
        description="Compile, simulate, verify and search ROM-conditioned gate programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    anf = sub.add_parser(
        "anf",
        help="convert between truth tables and XOR-of-AND monomial lists",
        description=(
            "Tables are 0/1 strings in assignment order (u1 is the least "
            "significant index bit), or big-endian hex of that bit sequence "
            "(prefix 0x to force hex).  Monomial lists look like '1,1.2' "
            "for u1 XOR u1u2; '0' is the constant-1 monomial; an empty "
            "string is the constant 0."
        ),
    )
    anf.add_argument("--table", help="truth table, bits or hex")
    anf.add_argument("--monomials", help="monomial list like 1,1.2")
    anf.add_argument("--num-vars", type=int, default=None, help="number of variables")
    anf.set_defaults(func=_cmd_anf)

    comp = sub.add_parser("compile", help="compile a boolean function to a ROM program")
    comp.add_argument("--backend", required=True, choices=list(_BACKENDS))
    comp.add_argument("--and-of", type=int, default=None, metavar="M",
                      help="compile the AND of ROM bits 1..M")
    comp.add_argument("--monomials", help="function as a monomial list (same as --f1)")
    comp.add_argument("--table", help="function as a truth table (same as --f1 t:...)")
    comp.add_argument("--f1", help="register 1's function (monomials, m:... or t:...)")
    comp.add_argument("--f2", help="classical2: register 2's function")
    comp.add_argument("--circuit", help="quantum1, classical3: the function as '(and x1 x2)'")
    comp.add_argument("--num-vars", type=int, default=None, help="variables in the function flags")
    comp.add_argument("--num-rom-bits", type=int, default=None, help="ROM width of the program")
    comp.add_argument("--naive", action="store_true", help="quantum1: doubling construction")
    comp.add_argument("-o", "--output", help="write the JSON program here instead of stdout")
    comp.set_defaults(func=_cmd_compile)

    ver = sub.add_parser("verify", help="check a program against an expected function")
    ver.add_argument("program", help="program JSON file, or - for stdin")
    ver.add_argument("--monomials", help="expected function (component 1)")
    ver.add_argument("--table", help="expected table (component 1)")
    ver.add_argument("--f1", help="expected component 1 (monomials, m:... or t:...)")
    ver.add_argument("--f2", help="expected component 2")
    ver.add_argument("--f3", help="expected component 3")
    ver.set_defaults(func=_cmd_verify)

    ren = sub.add_parser("render", help="draw a program as a text circuit diagram")
    ren.add_argument("program", help="program JSON file, or - for stdin")
    ren.set_defaults(func=_cmd_render)

    cnt = sub.add_parser("counts", help="ROM-call counts of the AND constructions per width")
    cnt.add_argument("--j-max", type=int, default=8)
    cnt.set_defaults(func=_cmd_counts)

    srch = sub.add_parser("search", help="exhaustive minimal-ROM-call search for the AND target")
    srch.add_argument("--j", type=int, required=True, choices=[1, 2, 3, 4])
    srch.add_argument("--max-depth", type=int, default=12)
    srch.set_defaults(func=_cmd_search)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ProgramError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
