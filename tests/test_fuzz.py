"""Property tests: malformed input ends in a clean error, never a traceback.

Examples are derandomized so the suite is repeatable; raise ``max_examples``
and drop ``derandomize`` locally to fuzz harder.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from romcomp import (
    ProgramError,
    ProgramFormatError,
    RomProgram,
    dumps,
    loads,
    program_from_dict,
    program_to_dict,
    serialize,
)
from romcomp.cli import main
from romcomp.synth_classical import and_barrington
from romcomp.synth_quantum import and_fast

# No deadline or generation-speed check: both are wall-clock based, and a
# loaded machine would fail them without any fault in the code.
FUZZ = settings(max_examples=80, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

scalars = (st.none() | st.booleans() | st.integers(-(2**64), 2**64) | st.text(max_size=4)
           | st.floats(allow_nan=True, allow_infinity=True))
json_values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12,
)
HALF = 0.5 ** 0.5
UNITARIES = [
    [[1, 0], [0, 0], [0, 0], [1, 0]],
    [[0, 0], [1, 0], [1, 0], [0, 0]],
    [[HALF, 0], [HALF, 0], [HALF, 0], [-HALF, 0]],
]


@st.composite
def programs(draw):
    """Valid program documents of up to 4 ROM bits, half of them with one
    field replaced by a junk value or deleted."""
    kind = draw(st.sampled_from(["classical", "quantum"]))
    j = draw(st.integers(1, 4))
    n = 1 if kind == "quantum" else draw(st.integers(1, 3))
    if kind == "classical":
        gate = st.builds(lambda p: {"perm": list(p)}, st.permutations(range(1 << n)))
    else:
        gate = st.fixed_dictionaries({"axis": st.sampled_from("XZ"), "num": st.integers(-4, 4),
                                      "log2den": st.integers(0, 3)})
        gate |= st.sampled_from(UNITARIES).map(lambda m: {"matrix": m})
    instructions = draw(st.lists(st.fixed_dictionaries(
        {"control": st.none() | st.integers(1, j), "gate": gate}), max_size=5))
    doc = {"num_rom_bits": j, "num_writable": n, "kind": kind, "instructions": instructions}
    if draw(st.booleans()):
        places = [doc] + instructions + [inst["gate"] for inst in instructions]
        place = draw(st.sampled_from(places))
        key = draw(st.sampled_from(sorted(place) + ["extra"]))
        if draw(st.booleans()):
            place.pop(key, None)
        else:
            place[key] = draw(st.integers(-2, 9) | json_values)
    return doc


documents = programs().map(json.dumps) | json_values.map(json.dumps) | st.text(max_size=20)


@FUZZ
@given(documents)
def test_loads_returns_a_program_or_raises_format_error(text):
    try:
        program = loads(text)
    except ProgramFormatError:
        return
    assert isinstance(program, RomProgram)


def general_outcome(text):
    """What ``program_from_dict(json.loads(text))`` makes of ``text``: a
    program, or the message ``loads`` must raise."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"invalid JSON: {exc}"
    except (ValueError, RecursionError) as exc:
        return str(exc)
    try:
        return program_from_dict(data)
    except ProgramError as exc:
        return str(exc)


def assert_loads_agrees_with_the_general_path(text):
    try:
        outcome = loads(text)
    except ProgramFormatError as exc:
        outcome = str(exc)
    expected = general_outcome(text)
    assert outcome == expected
    if isinstance(expected, RomProgram):
        # The canonical-text path takes exactly the text that dumps writes.
        try:
            fast = serialize._loads_canonical(text)
        except (ValueError, RecursionError):
            fast = None
        assert (fast is not None) == (text.rstrip(" \t\n\r") == dumps(expected))


@FUZZ
@given(documents)
def test_loads_agrees_with_the_general_path(text):
    assert_loads_agrees_with_the_general_path(text)


def _layouts():
    """Non-canonical texts of compiled programs, and near misses of
    canonical text, by name."""
    quantum = program_to_dict(and_fast([1, 2, 3], 3))
    classical = program_to_dict(and_barrington(2))
    canonical = json.dumps(quantum)
    first = quantum["instructions"][0]
    head = {k: v for k, v in classical.items() if k != "instructions"}
    yield "canonical", canonical
    yield "trailing-newline", canonical + "\n"
    yield "trailing-form-feed", canonical + "\f"
    # One piece holds both the head and the closing "]}".
    yield "one-instruction-trailing-space", json.dumps(dict(quantum, instructions=[first])) + " \n"
    yield "leading-space", " " + canonical
    yield "pretty", json.dumps(quantum, indent=2)
    yield "compact", json.dumps(classical, separators=(",", ":"))
    yield "sorted-top-keys", json.dumps(quantum, sort_keys=True)
    yield "gate-before-control", json.dumps(dict(classical, instructions=[
        {"gate": i["gate"], "control": i["control"]} for i in classical["instructions"]]))
    yield "unreduced-one", canonical.replace('"num": 1, "log2den": 0', '"num": 2, "log2den": 1')
    yield "unreduced-half", canonical.replace('"num": 1, "log2den": 1', '"num": 2, "log2den": 2')
    yield "integer-matrix", json.dumps(dict(quantum, instructions=[
        {"control": 1, "gate": {"matrix": [[0, 0], [1, 0], [1, 0], [0, 0]]}}] * 3))
    yield "boolean-control", canonical.replace('"control": 2', '"control": true')
    perm = classical["instructions"][1]["gate"]["perm"]
    yield "boolean-image", json.dumps(classical).replace(
        json.dumps(perm), json.dumps([x == 1 if x < 2 else x for x in perm]))
    yield "control-past-the-rom", canonical.replace('"control": 3', '"control": 4')
    yield "separator-in-a-string", json.dumps(dict(
        quantum, instructions=[dict(first, note=', {"control": 1')] * 2))
    yield "separator-in-a-list", json.dumps(dict(
        quantum, instructions=[dict(first, note=[0, {"control": 1}])] * 2))
    # The head's extra key puts the separator ahead of the instruction array.
    yield "separator-in-the-head", json.dumps(dict(
        head, note=[0, {"control": 1}], instructions=classical["instructions"]))
    yield "separator-in-the-kind", json.dumps(dict(head, kind='"instructions": [', instructions=[]))
    yield "duplicate-control-key", canonical.replace('{"control": 2,', '{"control": 2, "control": 1,')
    yield "empty", json.dumps(dict(head, instructions=[]))
    yield "empty-with-space", json.dumps(dict(head, instructions=[])).replace("[]", "[ ]")


@pytest.mark.parametrize("text", [t for _, t in _layouts()], ids=[n for n, _ in _layouts()])
def test_loads_agrees_with_the_general_path_on_other_layouts(text):
    assert_loads_agrees_with_the_general_path(text)


def run_verify(text, *argv):
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["verify", "-", *argv])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@FUZZ
@given(programs().map(json.dumps),
       st.lists(st.text(alphabet="0123456789.,:t ", max_size=6).map("--f1={}".format), max_size=1))
def test_verify_exits_cleanly(text, spec):
    code, out, err = run_verify(text, *spec)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out + err
    if code == 2:
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith(("error:", "parse error:"))
