"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (visible with ``pytest -s``) including
its elapsed time; a failed assertion is the FAIL.
"""

import random
import time

from romcomp import (
    Anf,
    DyadicExponent,
    DyadicGate,
    Permutation,
    SearchTarget,
    TruthTable,
    and_barrington,
    and_fast,
    and_naive,
    anf_of,
    balanced_and_circuit,
    barrington,
    circuit_depth,
    compile_function,
    compile_pair,
    conjectured_minimal_calls,
    dumps,
    eval_circuit,
    extract_boolean,
    extract_function,
    matrix_of_gate,
    minimal_program,
    one_bit_reachable,
    permutation_of,
    rom_call_count,
    and_sequence,
    truth_table_of,
    unitary_of,
)
from romcomp.cli import main as cli_main
from romcomp.sim_quantum import Unitary2
from romcomp.synth_classical import BIT_FLIP_FIVE_CYCLES, BIT_FLIP_PERMUTATION

from test_sim_classical import worked_example_program


class Stopwatch:
    def __init__(self, limit_seconds):
        self.limit = limit_seconds
        self.start = time.perf_counter()

    def finish(self, number, description):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.limit, (
            f"criterion {number} exceeded its {self.limit}s budget ({elapsed:.1f}s)"
        )
        print(f"criterion {number:2d} PASS: {description} ({elapsed:.2f}s)")


def and_table(num_bits):
    return tuple(
        1 if u == (1 << num_bits) - 1 else 0 for u in range(1 << num_bits)
    )


def test_criterion_01_gate_identities():
    watch = Stopwatch(1.0)
    half = DyadicExponent(1, 1)
    x_half, x_negh = matrix_of_gate(DyadicGate("X", half)), matrix_of_gate(DyadicGate("X", -half))
    z_half, z_negh = matrix_of_gate(DyadicGate("Z", half)), matrix_of_gate(DyadicGate("Z", -half))
    x_full = matrix_of_gate(DyadicGate("X", DyadicExponent(1)))
    z_full = matrix_of_gate(DyadicGate("Z", DyadicExponent(1)))
    ix = Unitary2(0, 1j, 1j, 0)
    iz = Unitary2(1j, 0, 0, -1j)
    bit_flip = x_negh @ z_full @ x_half @ z_full
    phase_flip = z_negh @ x_full @ z_half @ x_full
    assert bit_flip.max_entry_distance(ix) <= 1e-12
    assert phase_flip.max_entry_distance(iz) <= 1e-12
    watch.finish(1, "four-gate brackets equal iX and iZ to 1e-12")


def test_criterion_02_naive_and():
    watch = Stopwatch(10.0)
    for m in range(1, 11):
        prog = and_naive(list(range(1, m + 1)), m)
        assert rom_call_count(prog) == 3 * 2 ** (m - 1) - 2
        assert extract_boolean(prog).bits == and_table(m)
    watch.finish(2, "doubling AND correct for m=1..10 with 3*2^(m-1)-2 calls")


def test_criterion_03_fast_and():
    watch = Stopwatch(60.0)
    for j in (2, 4, 8, 16):
        prog = and_fast(list(range(1, j + 1)), j)
        k = (j - 1).bit_length()
        assert rom_call_count(prog) == 4 ** k
        assert extract_boolean(prog).bits == and_table(j)
    prog32 = and_fast(list(range(1, 33)), 32)
    assert rom_call_count(prog32) == 4 ** 5
    rng = random.Random(20020601)
    for _ in range(10_000):
        u = rng.randrange(1 << 32)
        mat = unitary_of(prog32, u)
        amp0, amp1 = mat.apply(1.0, 0.0)
        want = 1 if u == (1 << 32) - 1 else 0
        got = abs(amp1) ** 2
        assert abs(got - want) < 1e-9
    # The all-ones point is not likely in the sample; check it explicitly.
    amp0, amp1 = unitary_of(prog32, (1 << 32) - 1).apply(1.0, 0.0)
    assert abs(abs(amp1) ** 2 - 1) < 1e-9
    watch.finish(3, "balanced-tree AND exact for j in {2,4,8,16}, sampled at j=32")


def test_criterion_04_one_qubit_universality():
    watch = Stopwatch(30.0)
    for packed in range(256):
        table = TruthTable.from_int(3, packed)
        prog = compile_function(anf_of(table), 3)
        assert extract_boolean(prog) == table
    watch.finish(4, "all 256 three-variable functions compile and verify")


def test_criterion_05_two_bit_universality():
    watch = Stopwatch(30.0)
    for m in range(1, 11):
        prog, register = and_sequence(m, m)
        product_mask = (1 << m) - 1
        for u in range(1 << m):
            product = 1 if u == product_mask else 0
            images = permutation_of(prog, u).images
            for start in range(4):
                end = images[start]
                want = start ^ (product << (register - 1))
                assert end == want
    for p1 in range(16):
        for p2 in range(16):
            f1 = anf_of(TruthTable.from_int(2, p1))
            f2 = anf_of(TruthTable.from_int(2, p2))
            vf = extract_function(compile_pair(f1, f2, 2))
            assert vf.components == (TruthTable.from_int(2, p1), TruthTable.from_int(2, p2))
    rng = random.Random(42)
    for _ in range(100):
        f1 = Anf(4, frozenset(rng.sample(range(16), rng.randrange(8))))
        f2 = Anf(4, frozenset(rng.sample(range(16), rng.randrange(8))))
        vf = extract_function(compile_pair(f1, f2, 4))
        assert vf.components == (truth_table_of(f1), truth_table_of(f2))
    watch.finish(5, "register-pair compiler exact on sequences, all j=2 pairs, 100 j=4 pairs")


def test_criterion_06_five_cycle_product():
    watch = Stopwatch(1.0)
    product = Permutation.identity(8)
    for cycle in BIT_FLIP_FIVE_CYCLES:
        product = product.then(Permutation.from_cycles(8, (cycle,)))
    assert product == BIT_FLIP_PERMUTATION
    assert BIT_FLIP_PERMUTATION.images == (1, 0, 3, 2, 5, 4, 7, 6)
    watch.finish(6, "the four 5-cycles compose (first-listed first) to the bit flip")


def test_criterion_07_barrington():
    watch = Stopwatch(60.0)
    rho = Permutation((1, 2, 3, 4, 0))
    for d in (1, 2, 3):
        circuit = balanced_and_circuit(1 << d)
        assert circuit_depth(circuit) == d
        bp = barrington(circuit, rho)
        assert bp.length <= 4 ** d
        for u in range(1 << (1 << d)):
            got = bp.evaluate(u)
            if eval_circuit(circuit, u):
                assert got == rho
            else:
                assert got.is_identity()
    for j in range(1, 9):
        vf = extract_function(and_barrington(j))
        assert vf.components[0].bits == and_table(j)
        assert all(b == 0 for b in vf.components[1].bits + vf.components[2].bits)
    watch.finish(7, "branching programs within 4^d and three-bit AND correct to j=8")


def test_criterion_08_one_bit_non_universality():
    watch = Stopwatch(5.0)
    for j in (2, 3):
        reachable = {t.bits for t in one_bit_reachable(j)}
        assert len(reachable) == 2 ** (j + 1)
        for bits in reachable:
            anf = anf_of(TruthTable(j, bits))
            assert all(bin(mask).count("1") <= 1 for mask in anf.monomials)
        assert and_table(j) not in reachable
    watch.finish(8, "one-bit closure is exactly the affine functions, AND excluded")


def _verify_witness_via_cli(tmp_path, result, j):
    path = tmp_path / f"witness{j}.json"
    path.write_text(dumps(result.witness))
    full_and = ".".join(str(v) for v in range(1, j + 1))
    assert cli_main(["verify", str(path), "--f1", full_and, "--f2", ""]) == 0


def test_criterion_09_search_minimality(tmp_path, capsys):
    watch = Stopwatch(300.0)
    for j, expected in ((1, 1), (2, 3), (3, 5)):
        result = minimal_program(SearchTarget.all_bits_and(j), max_depth=expected + 1)
        assert result.minimal_rom_calls == expected == conjectured_minimal_calls(j)
        _verify_witness_via_cli(tmp_path, result, j)
    capsys.readouterr()
    watch.finish(9, "search returns 1, 3, 5 for j=1..3; witnesses pass verify")


def test_criterion_09b_search_minimality_j4(tmp_path, capsys):
    result = minimal_program(SearchTarget.all_bits_and(4), max_depth=10)
    assert result.minimal_rom_calls == 9 == conjectured_minimal_calls(4)
    _verify_witness_via_cli(tmp_path, result, 4)
    capsys.readouterr()
    print("criterion  9b PASS: j=4 search returns 9")


def test_criterion_10_anf_round_trip():
    watch = Stopwatch(10.0)
    for packed in range(1 << 16):
        table = TruthTable.from_int(4, packed)
        assert truth_table_of(anf_of(table)) == table
    watch.finish(10, "all 65536 four-variable tables round-trip through the ANF")


def test_criterion_11_worked_example():
    watch = Stopwatch(1.0)
    vf = extract_function(worked_example_program())
    want_f1 = tuple((u & 1) ^ (u >> 2 & 1) for u in range(8))
    want_f2 = tuple((u & 1) ^ ((u & 1) & (u >> 1 & 1)) for u in range(8))
    assert vf.components[0].bits == want_f1
    assert vf.components[1].bits == want_f2
    watch.finish(11, "worked two-register example computes (u1^u3, u1^u1u2)")
