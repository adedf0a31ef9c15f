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

from test_synth_classical import three_wide_products

# m -> (sha256 of dumps, ROM calls, gates)
AND_BARRINGTON = {
    1: ("884d447acc9c684ac623c3a7138d3245b7dddc1bdf2b499e802529db0458c54b", 1, 1),
    2: ("d8374a10b9e5843738fd537f4ffd75f4f021ddaf7251619e2640e44a9cf3139f", 4, 4),
    3: ("9d454f179d1bf4a7945ffd2355ad8a38584f0b36f27b7d407fdd3ee4c1d448ea", 10, 10),
    4: ("b6ba8df57fa2be747f677f124a88dc4d519c7dd716d44ef9b9475f3445660c53", 16, 16),
    5: ("795ac6975c74a51de755e9bce2d2c89a4415815bcdb57b0bee4221cd1fa818c2", 28, 28),
    6: ("17cbc9651232cfff5a482f1264f085091cbd897d294841021848dfebff500100", 40, 40),
    7: ("e53283fdea0aaba10c97b9ddab0ef49fcab12b4542ab2f243d0729989888b71d", 52, 52),
    8: ("f9eba8d4d1f99400218a51a99ab0004787424cf80e340b0803ce7db587e12410", 64, 64),
    9: ("dfe39a7b5a384737b843a7265d974f7eded03d94469e55f70e9057e3158efaff", 88, 88),
    10: ("318d2d6b310aea5a8b2e74e728a35a65191d91768f6fdfb2eb91b1835f54992d", 112, 112),
}

# Three-variable table (packed, bit u = value at u) -> (sha256, ROM calls,
# gates) through anf_to_circuit and circuit_to_three_bit; the tables are
# random.Random(6).sample(range(256), 6).
THREE_BIT = {
    0: ("906866fec5ceb1bd0f255b4e2e038fc607103617a523ff4faebb8c4670c6202e", 4, 6),
    18: ("2575d1f9cd370e698ccba9f53abee77792eb5e0c7c5a91b4289672c2a6ace43a", 10, 10),
    41: ("b2503cc9de685fdbebe86c8417880d1a93a29ee5584f91a564daa80c20e7a077", 17, 18),
    74: ("2d7bf5e02c77a2e9b232e27bca78d95aaf58463c40eacdc54e2d27357e94c33b", 19, 19),
    133: ("69097c457b90f8eeb83443ca1351c3735c11a2d19e8aaa3bb8d4dd584d980ffc", 16, 17),
    248: ("3b4c4b1c2630a8bace31ec0bb4ce880cb52f41a24f02e4ea4fd1fc698a53423b", 15, 15),
}

# The same tables through anf_to_circuit and circuit_to_qubit: the same
# calls, branching_length itself.  Gates: one controlled rotation per call,
# plus at most one uncontrolled fixup after it, into which every NOT that
# ends on that step is folded.
QUBIT = {
    0: ("4a03ed167ddb8d10f51249345cb006351f60ef752c2e4888246a91cb7853108f", 4, 6),
    18: ("0816f72a033d0e035d8c6a6f6c49fade229b53596019be923d360fd986c3ccc6", 10, 10),
    41: ("39decda8dde96aeaad44ad26ca42d1f86e70778e8884002fa07d8dbe7c468357", 17, 18),
    74: ("61b62cb784108370fb8df7dfc40eddcd225e558a49369012e88538fa1d137f8b", 19, 19),
    133: ("d4884f77cf84e329386d81d1ef634798b5e43cc408d628ecbdcfe341ab131a27", 16, 17),
    248: ("972653018baaff2ae879287febb479f02b182b890a67c2b812c5a33777dcca30", 15, 15),
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
    assert QUBIT[packed][1] == THREE_BIT[packed][1]


def test_three_bit_calls_are_predicted_before_building():
    # circuit_to_three_bit refuses a program past MAX_ROM_CALLS from
    # branching_length, so that count must be exact.
    for m, (_, calls, _) in AND_BARRINGTON.items():
        assert branching_length(balanced_and_circuit(m)) == calls
    for packed, (_, calls, _) in THREE_BIT.items():
        assert branching_length(anf_to_circuit(anf_of(TruthTable.from_int(3, packed)))) == calls
    for table in ("6996", "b7c3"):
        circuit = anf_to_circuit(anf_of(parse_table(table)))
        assert branching_length(circuit) == rom_call_count(circuit_to_three_bit(circuit, 4))
    # Five and six variables, counted by building each once outside the
    # suite: all fit the budget.  Three products of about 1,024 ROM bits each
    # do not, and anf_to_circuit refuses them from their widths.
    for table, calls in (("6b3a91e4", 116), ("d2f07c15", 87), ("6b3a91e4d2f07c15", 379)):
        assert branching_length(anf_to_circuit(anf_of(parse_table(table)))) == calls
    with pytest.raises(ValueError, match="3142656 ROM calls"):
        anf_to_circuit(three_wide_products())
    assert 379 <= MAX_ROM_CALLS < 3_142_656


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
# (+1/2, -1/2).  Every monomial runs at the root X^-1, the constant and
# one-variable ones too, and "fast" is an unpadded balanced tree.
TWO_REGISTER = {
    ("pair", 2): ("c20506e8f2c702a171f92e3be8e5e73d6ad25bfcb6b8a501b5bb986a9da50754", 6, 8),
    ("fast", 2): ("504f30aa40270a3834dce3b2225254f107949f2437901c93c90a09af2773cf94", 4, 5),
    ("naive", 2): ("504f30aa40270a3834dce3b2225254f107949f2437901c93c90a09af2773cf94", 4, 5),
    ("sequence", 2): ("8eba9bb88851474f7be7ecddd656f26ab6c3a128cd1b0889c35fd80ad24acab3", 4, 4),
    ("pair", 3): ("d8839800e5bdb34ab18f5e2cb75c35a7e013cd883a79df18f6c1ab7456166cbe", 9, 10),
    ("fast", 3): ("7f3b95619362c0f4045d667b13b0432b0a2ebca17106bdf55c1056031a8e7039", 4, 5),
    ("naive", 3): ("7f3b95619362c0f4045d667b13b0432b0a2ebca17106bdf55c1056031a8e7039", 4, 5),
    ("sequence", 3): ("338a97218b9b80657079d05e0bc12ba32be2f86a016408c8dd56f0c77d0de7b0", 10, 10),
    ("pair", 4): ("a9dc511aae4781007ea67b4d55dfe02bb85607c7a94cf827838e3b034b253d78", 93, 95),
    ("fast", 4): ("0e86dbde5d70ccc599c7a002a281ec8e9c42fa7b5279f1140acb32a2e7543b39", 58, 59),
    ("naive", 4): ("86ea42391500213251715822cfee3d864076ba668aa86b54e4e8cab706176170", 64, 65),
    ("sequence", 4): ("09257d4bf89f4b719e9f37ed9cbb9c1aba4c1cd0a38faca3855c25288b33aead", 22, 22),
    ("pair", 5): ("c412a454291265119fe4a3f53da25952cea0d2d7d9262a84291d8350aa1faf1d", 258, 259),
    ("fast", 5): ("2801f5d820476146c351af1f6018c2300c5e1b4476fe30b2fd48f1a78e35dcb2", 134, 135),
    ("naive", 5): ("dfb5961c64e121add0fa0688c4dc68d5d6310f5a014c5b7fa4aa72831af975ab", 170, 171),
    ("sequence", 5): ("e61ac110c6967d0c831743131590fa514d7d4dc5fc5e1f7abd7fe8d139d95ea4", 46, 46),
    ("pair", 6): ("bfde18ad458e058edc88589c11e36374d4cca5e2f52aae63dff2af8301755d1d", 862, 862),
    ("fast", 6): ("5dae0e9586509da4e8db234f2d00410ca384e6a25c780fbd79a3c7f866646dac", 338, 338),
    ("naive", 6): ("991d81eb5995fdc376e8f82a53ca4c19dc84c87f186f9a51697fc6183814ffb5", 494, 494),
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
