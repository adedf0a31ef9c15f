"""Compiled programs pinned byte for byte.

The compilers and the wire format share gate and instruction objects between
the many steps of a program.  The digests below were taken from constructions
that built a fresh object for every instruction, so any change in what is
emitted, or in the ROM-call and gate counts, shows here.
"""

import hashlib

import pytest

from romcomp import (
    TruthTable,
    and_barrington,
    and_sequence,
    anf_of,
    balanced_and_circuit,
    circuit_to_qubit,
    circuit_to_three_bit,
    compile_function,
    compile_pair,
    dumps,
    loads,
    parse_table,
    rom_call_count,
)
from romcomp.program import MAX_ROM_CALLS
from romcomp.synth_classical import anf_to_circuit, branching_length

# m -> (sha256 of dumps, ROM calls, gates)
AND_BARRINGTON = {
    1: ("169f204525cbe09c0ae7bab2a3ddc67de2260620613d689dbbf5f75684ace38e", 4, 4),
    2: ("c14d463b252c414382580e485c37886b4488c438cc48c652793fecb3606a0afc", 16, 16),
    3: ("2f9470202dbc6231a7a689bd19b5e43e58542d29c0242d1718118b200b8fd563", 40, 40),
    4: ("1bdeec3ca8392ce7a0913e5ed9b9ad8044a021947cbfc68a1d39cef05899b317", 64, 64),
    5: ("a478eef1edb6d0842782f7badfad415f037ff741ae0c6bfdb3ad89f36fd31093", 112, 112),
    6: ("26e8125c428043c9cf9af584e40a5ea9f7e1724fedcd39225c26073ecd124696", 160, 160),
    7: ("454a0b17a1f963016e0d5c5c451293e066c5020e395fd8b6007e0bea63969898", 208, 208),
    8: ("2c6e93a1e8251173161fd9eea3eff3ea6900de7c0e163ad89ccea810966782c5", 256, 256),
    9: ("f5e8c598d2998ee51cad098f1a6d5c123ef746034df14435344f6988fceb6b32", 352, 352),
    10: ("c43ec7a5f8e3d4259a2712b11fa78c39c189197aec66e04a76d1f2e8e237418b", 448, 448),
}

# Three-variable table (packed, bit u = value at u) -> (sha256, ROM calls,
# gates) through anf_to_circuit and circuit_to_three_bit; the tables are
# random.Random(6).sample(range(256), 6).
THREE_BIT = {
    0: ("a1db73306f2f8035f958e04f7aab64c24b363dd2cc95d5685175f467bc634e3c", 16, 24),
    18: ("791a987efbdff56d6e1cb8a2d2d4d790aa6d58df580ee75984e6e24313f71bf3", 2560, 3198),
    41: ("176483f7a640827e045e3baa829352dc1e510fd10b3a25c7ec8a9174c7e04bcb", 23296, 32894),
    74: ("eb240833cac7173ea949bb75836c4e61a96aee585c5e37e25b97a29e2bf6c488", 4864, 5502),
    133: ("33744f3bc36583c7d9812ea130dd7b0aaa613dba73d3141ae419e0d0e64189a0", 14080, 21246),
    248: ("06a3c598260442392f5ed3adbc80a2bdbb560e0b5a80a3e40f22c69c3291cfe9", 1600, 1944),
}

# The same tables through anf_to_circuit and circuit_to_qubit: a quarter of
# the three-bit machine's calls, branching_length itself.  Gates: one
# controlled rotation per call, plus at most one uncontrolled fixup after it,
# into which every NOT that ends on that step is folded.
QUBIT = {
    0: ("4a03ed167ddb8d10f51249345cb006351f60ef752c2e4888246a91cb7853108f", 4, 6),
    18: ("619d7de8fe7b17ef2464fffe7164e52e080316ec29704ebc3db8ad4f13e01a6a", 640, 800),
    41: ("a18102afe3945b4bcd0dc15ae35c803959ef86cd14b41c790b0220b53a65b81c", 5824, 7808),
    74: ("54bebf45b716591d42d89e3540e5f58f25cfa8df59c5b8d45e756b2eb0c7f9fc", 1216, 1376),
    133: ("2c6abce510d49e47e1c6c893cad2ff048e7e095ca997bd27e36f6be1b5660b7b", 3520, 4912),
    248: ("c3508b9f9a37c31c7ceb22243689de6f605c7a32615c20d380ef12b904fe86fb", 400, 484),
}


def check_pinned(program, pinned):
    digest, calls, gates = pinned
    text = dumps(program)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert (rom_call_count(program), len(program)) == (calls, gates)
    # Loading shares gates too; it must give back the same document.
    assert dumps(loads(text)) == text


@pytest.mark.parametrize("m", sorted(AND_BARRINGTON))
def test_and_barrington_is_pinned(m):
    check_pinned(and_barrington(m), AND_BARRINGTON[m])


@pytest.mark.parametrize("packed", sorted(THREE_BIT))
def test_three_bit_compile_is_pinned(packed):
    anf = anf_of(TruthTable.from_int(3, packed))
    check_pinned(circuit_to_three_bit(anf_to_circuit(anf), 3), THREE_BIT[packed])


@pytest.mark.parametrize("packed", sorted(QUBIT))
def test_qubit_circuit_compile_is_pinned(packed):
    circuit = anf_to_circuit(anf_of(TruthTable.from_int(3, packed)))
    check_pinned(circuit_to_qubit(circuit, 3), QUBIT[packed])
    assert 4 * QUBIT[packed][1] == THREE_BIT[packed][1]


def test_three_bit_calls_are_predicted_before_building():
    # circuit_to_three_bit refuses a program past MAX_ROM_CALLS from
    # 4 * branching_length, so that count must be exact.
    for m, (_, calls, _) in AND_BARRINGTON.items():
        assert 4 * branching_length(balanced_and_circuit(m)) == calls
    for packed, (_, calls, _) in THREE_BIT.items():
        assert 4 * branching_length(anf_to_circuit(anf_of(TruthTable.from_int(3, packed)))) == calls
    for table in ("6996", "b7c3"):
        circuit = anf_to_circuit(anf_of(parse_table(table)))
        assert 4 * branching_length(circuit) == rom_call_count(circuit_to_three_bit(circuit, 4))
    # Five variables, counted by building each once outside the suite: both
    # fit the budget.  Six variables do not (46,465,024 calls).
    for table, calls in (("6b3a91e4", 1_527_808), ("d2f07c15", 1_103_872),
                         ("6b3a91e4d2f07c15", 46_465_024)):
        assert 4 * branching_length(anf_to_circuit(anf_of(parse_table(table)))) == calls
    assert 1_527_808 <= MAX_ROM_CALLS < 46_465_024


# j -> packed tables (f1, f2) of j variables, from random.Random(9): per j,
# two getrandbits(2**j).
TWO_REGISTER_TABLES = {
    2: (0x7, 0x9),
    3: (0x5F, 0x44),
    4: (0x2377, 0x2FA7),
    5: (0xDDD6FF55, 0xAD38835E),
    6: (0x569C803601A5BA50, 0x76B6745180B65386),
}

# (construction, j) -> (sha256 of dumps, ROM calls, gates).  "pair" is
# compile_pair(f1, f2), "fast" and "naive" are compile_function(f1), and
# "sequence" is and_sequence(j, j).  A "naive" monomial of degree 4 or more
# runs the X half-rotations below its root in the order "fast" uses,
# (+1/2, -1/2).
TWO_REGISTER = {
    ("pair", 2): ("c20506e8f2c702a171f92e3be8e5e73d6ad25bfcb6b8a501b5bb986a9da50754", 6, 8),
    ("fast", 2): ("c6b2fd7f41a90ec074b6fb77dbf593b9557bf59badf8dcbc39c44972c449f28c", 4, 5),
    ("naive", 2): ("c6b2fd7f41a90ec074b6fb77dbf593b9557bf59badf8dcbc39c44972c449f28c", 4, 5),
    ("sequence", 2): ("8eba9bb88851474f7be7ecddd656f26ab6c3a128cd1b0889c35fd80ad24acab3", 4, 4),
    ("pair", 3): ("d8839800e5bdb34ab18f5e2cb75c35a7e013cd883a79df18f6c1ab7456166cbe", 9, 10),
    ("fast", 3): ("e8d9b304e559205ffc0c8cd1725b16f54719c05b9a482a5918f369d7708676fc", 4, 5),
    ("naive", 3): ("e8d9b304e559205ffc0c8cd1725b16f54719c05b9a482a5918f369d7708676fc", 4, 5),
    ("sequence", 3): ("338a97218b9b80657079d05e0bc12ba32be2f86a016408c8dd56f0c77d0de7b0", 10, 10),
    ("pair", 4): ("a9dc511aae4781007ea67b4d55dfe02bb85607c7a94cf827838e3b034b253d78", 93, 95),
    ("fast", 4): ("f708231776e63eaf09f1e0c01f439bc13d322b13681c230826c3a3c428258d71", 64, 77),
    ("naive", 4): ("146fa2cf48e18757154ad8820bd204ca1d6380a85229badc0b74797674dd53a5", 64, 65),
    ("sequence", 4): ("09257d4bf89f4b719e9f37ed9cbb9c1aba4c1cd0a38faca3855c25288b33aead", 22, 22),
    ("pair", 5): ("c412a454291265119fe4a3f53da25952cea0d2d7d9262a84291d8350aa1faf1d", 258, 259),
    ("fast", 5): ("5380538b4cb74edf1bb18aafdeefc3232f6e4b2b35ef3b8d1f36d710ad197780", 154, 195),
    ("naive", 5): ("ec4718a961fd068b815fa50855f9a682f26aac2eeab118bfe145f5c0976c9d9c", 170, 171),
    ("sequence", 5): ("e61ac110c6967d0c831743131590fa514d7d4dc5fc5e1f7abd7fe8d139d95ea4", 46, 46),
    ("pair", 6): ("bfde18ad458e058edc88589c11e36374d4cca5e2f52aae63dff2af8301755d1d", 862, 862),
    ("fast", 6): ("337cbde4942737f1329e8bf75cb6cc251de60cc084a800cd346a3c90826510db", 394, 506),
    ("naive", 6): ("01fea656426d91e00c1d2c8c1e640cf1f638264c75e75d8130ed427ce31c493c", 494, 494),
    ("sequence", 6): ("65cabd6a2823d31d0f282a4c99dc3e6091a28799af3ae6c8926fc0fdf903df66", 94, 94),
}


def build_two_register(construction, j):
    f1, f2 = (anf_of(TruthTable.from_int(j, t)) for t in TWO_REGISTER_TABLES[j])
    if construction == "pair":
        return compile_pair(f1, f2, j)
    if construction == "sequence":
        return and_sequence(j, j)[0]
    return compile_function(f1, j, construction)


@pytest.mark.parametrize("construction, j", sorted(TWO_REGISTER))
def test_one_and_two_register_compiles_are_pinned(construction, j):
    check_pinned(build_two_register(construction, j), TWO_REGISTER[construction, j])
