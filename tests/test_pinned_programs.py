"""Compiled three-bit programs pinned byte for byte.

The compilers and the wire format share gate and instruction objects between
the many steps of a Barrington program.  The digests below were taken from
the construction that built a fresh object for every step, so any change in
what is emitted, or in the ROM-call and gate counts, shows here.
"""

import hashlib

import pytest

from romcomp import (
    TruthTable,
    and_barrington,
    anf_of,
    circuit_to_three_bit,
    dumps,
    loads,
    rom_call_count,
)
from romcomp.synth_classical import anf_to_circuit

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
