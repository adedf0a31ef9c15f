"""romcomp benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload wide_and --seed 1 --seconds 36 --trace 0

Runs from the root of a source checkout and imports romcomp from ``src/``.
Set-up (interpreter start, ``import romcomp``, input generation and one
warm-up op per op kind) is timed in separate fresh processes.  The seeded
batch then runs back to back, untimed checks after each batch, until the
next batch would end past ``--seconds`` (at least one batch).

Every time is scaled to a reference machine speed.  A shared host can run
this code 20-40% slower for tens of seconds at a time, which would swamp
the changes the benchmark is meant to show.  So a fixed pure-Python loop
(the probe) runs before the first op and, after each op, for
``PROBE_SHARE`` of that op's latency; every latency of the batch is then
multiplied by ``PROBE_REFERENCE_S`` over the batch's mean probe time.
Set-up samples are scaled the same way.  Where the probe takes
``PROBE_REFERENCE_S``, scaled and raw seconds agree; raw times are kept in
the report and printed beside the scaled ones.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` one untraced batch is followed by traced ones, and the line
holds per-layer self time, calls and work counts per batch, plus the
tracing overhead.  Spans, per-op records and regression data (machine,
versions, ``src/`` size, the ROM-call table of every AND construction) go
to ``.bench_out/``; the regression data and every failure also go to stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 3
# The probe's time on an idle 2-vCPU Xeon VM with Python 3.11.
PROBE_REFERENCE_S = 0.004
# Probe time after each op or set-up sample, as a share of its duration, so
# that the probes sample the machine's speed evenly over the batch.
PROBE_SHARE = 0.05

sys.path.insert(0, str(SRC))
try:
    import numpy
    import romcomp
    from romcomp.cli import main as cli_main
    import workloads
    from spans import Tracer, layer_summary
    import reference
except ImportError as exc:
    print(f"cannot import romcomp from {SRC}: {exc}", file=sys.stderr)
    sys.exit(2)
if not Path(romcomp.__file__).resolve().is_relative_to(SRC):
    print(f"romcomp was imported from {romcomp.__file__}, not from {SRC}", file=sys.stderr)
    sys.exit(2)

END_TO_END_UNITS = {
    "wall_s": "s", "op_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "rom_calls_total": "count", "gates_total": "count",
}
LAYERS = (
    "boolfunc.anf_of", "boolfunc.truth_table_of", "synth_quantum.compile",
    "synth_classical.compile_pair", "synth_classical.and_sequence",
    "synth_classical.three_bit", "serialize.dumps", "serialize.loads",
    "sim_quantum.extract_boolean", "sim_classical.extract_function",
    "search.minimal_program",
)
COUNTERS = (
    "synth_quantum.rom_calls", "synth_classical.rom_calls", "serialize.bytes",
    "sim_quantum.gate_applications", "sim_classical.gate_applications",
    "search.nodes_expanded", "search.witness_rom_calls",
)


def probe() -> float:
    """Time of a fixed pure-Python loop: the machine's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i
    return time.perf_counter() - start


def sample_speed(duration_s: float) -> list[float]:
    """Probe times, at least one, summing to ``PROBE_SHARE * duration_s``."""
    times = [probe()]
    while sum(times) < PROBE_SHARE * duration_s:
        times.append(probe())
    return times


def setup(workload: str, seed: int) -> list:
    """Inputs of the batch, after one untimed warm-up op per op kind."""
    ops = workloads.make_ops(workload, seed)
    idle = Tracer(False)
    for op in workloads.warmup_ops(workload):
        workloads.run_op(idle, op)
    return ops


def time_setups(workload: str, seed: int) -> tuple[list[float], float]:
    """Raw wall times of fresh processes that only set up and exit, and the
    factor that scales them to the reference speed."""
    samples, probes = [], [probe()]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-only", "--workload", workload,
             "--seed", str(seed)],
            check=True, stdout=subprocess.DEVNULL, timeout=120,
        )
        samples.append(time.perf_counter() - start)
        probes += sample_speed(samples[-1])
    return samples, PROBE_REFERENCE_S / statistics.fmean(probes)


def run_batch(ops, tracer: Tracer, refs, first_op_id: int) -> list[dict]:
    """Run every op back to back, probing between them; return per-op records.

    Only the run's first batch keeps the emitted programs, so that later
    batches leave the benchmark's own memory, and with it peak_rss_mb, alone.
    """
    timed, probes = [], [probe()]
    for index, op in enumerate(ops):
        tracer.op_id = first_op_id + index
        start = time.perf_counter()
        try:
            outcome, error = tracer.call("op." + op.kind, workloads.run_op, tracer, op), None
        except Exception as exc:  # any exception fails the op; the run goes on
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        timed.append((time.perf_counter() - start, outcome, error))
        probes += sample_speed(timed[-1][0])
    scale = PROBE_REFERENCE_S / statistics.fmean(probes)
    records = []
    for index, (op, (latency, outcome, error)) in enumerate(zip(ops, timed)):
        if error is None:
            error = workloads.check(op, outcome, refs)
        records.append({"kind": op.kind, "args": {k: v for k, v in op.args.items()
                                                  if k != "candidates"},
                        "op_id": first_op_id + index, "raw_s": latency,
                        "latency_s": latency * scale, "scale": scale, "error": error,
                        "texts": outcome.texts if outcome and first_op_id == 0 else []})
    return records


def batch_wall(batch: list[dict], key: str = "latency_s") -> float:
    return sum(record[key] for record in batch)


def run_batches(ops, tracer: Tracer, refs, seconds: float, batches: list) -> None:
    """Append each batch's records until the next batch would overrun."""
    start = time.perf_counter()
    while True:
        batches.append(run_batch(ops, tracer, refs, len(batches) * len(ops)))
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 1 / len(batches)) > seconds:
            return


def program_totals(records: list) -> tuple[int, int]:
    """ROM calls and instructions over every emitted program or witness."""
    sizes = [reference.program_size(text) for record in records for text in record["texts"]]
    return sum(calls for calls, _ in sizes), sum(gates for _, gates in sizes)


def cli_checks(ops: list, records: list) -> list[str]:
    """Spot-check the CLI in process against the library path's output.

    ``compile`` must print the same JSON, byte for byte, and ``verify -``
    must accept it; for ``search`` the same holds for ``search --j``.
    Returns what failed.
    """
    def run(argv: list[str], stdin: str = "") -> tuple[int, str]:
        out, saved = io.StringIO(), sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli_main(argv)
        finally:
            sys.stdin = saved
        return code, out.getvalue()

    chosen, failures = [], []
    by_kind: dict[str, list] = {}
    for op, record in zip(ops, records):
        by_kind.setdefault(op.kind, []).append((op, record))
    for kind, pairs in sorted(by_kind.items()):
        if kind.startswith("and."):
            chosen.append(min(pairs, key=lambda pair: pair[0].args["m"]))
        elif kind == "search.and":
            chosen += [pair for pair in pairs if pair[0].args["j"] <= 3]
        elif not kind.startswith("search."):
            chosen += pairs[:2]
    for op, record in chosen:
        text = record["texts"][0]
        if op.kind == "search.and":
            j = op.args["j"]
            argv = ["search", "--j", str(j)]
            verify = ["verify", "-", "--f1", ".".join(str(v) for v in range(1, j + 1))]
        else:
            argv, verify = workloads.cli_argvs(op)
        code, printed = run(argv)
        if code != 0 or printed != text + "\n":
            failures.append(f"{' '.join(argv)}: exit {code}, output differs from the library")
        code, _ = run(verify, text)
        if code != 0:
            failures.append(f"{' '.join(verify)}: exit {code}")
    return failures


def regression_data() -> dict:
    """Machine, versions, ``src/`` size and the ROM-call table; not metrics."""
    from romcomp import and_barrington, and_fast, and_naive, and_sequence
    from romcomp import conjectured_minimal_calls, rom_call_count

    table = []
    for j in range(1, 17):
        controls = list(range(1, j + 1))
        table.append({
            "j": j, "naive": rom_call_count(and_naive(controls, j)),
            "fast": rom_call_count(and_fast(controls, j)),
            "twobit": rom_call_count(and_sequence(j, j)[0]),
            "barrington": rom_call_count(and_barrington(j)),
            "conjectured": conjectured_minimal_calls(j),
        })
    return {
        "machine": {"platform": platform.platform(), "processor": platform.processor(),
                    "cpus": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0))},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        "rom_calls_table": table,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        setup(args.workload, args.seed)
        return 0
    setup_samples, setup_scale = ([], 1.0) if args.trace else time_setups(args.workload, args.seed)
    ops = setup(args.workload, args.seed)
    refs = workloads.references(args.workload, ops)

    untraced: list = []
    traced: list = []
    tracer = Tracer(args.trace == 1)
    if args.trace:
        run_batches(ops, Tracer(False), refs, 0, untraced)
        run_batches(ops, tracer, refs, max(args.seconds - batch_wall(untraced[0]), 0), traced)
    else:
        run_batches(ops, tracer, refs, args.seconds, untraced)
    batches = untraced + traced
    records = [record for batch in batches for record in batch]
    attempted = len(records)
    failed = sum(1 for record in records if record["error"])
    cli_failures = cli_checks(ops, batches[0])
    regression = regression_data()

    walls = [batch_wall(batch) for batch in untraced]
    if args.trace:
        scales = {record["op_id"]: record["scale"] for batch in traced for record in batch}
        summary = layer_summary(tracer.spans, scales)
        per_batch = len(traced)
        metrics = {}
        for layer in LAYERS:
            metrics[layer + ".s"] = metric(summary.get(layer + ".s", 0.0) / per_batch, "s")
            metrics[layer + ".calls"] = metric(summary.get(layer + ".calls", 0) // per_batch, "count")
        for counter in COUNTERS:
            metrics[counter] = metric(summary.get(counter, 0) // per_batch, "count")
        traced_wall = statistics.median(batch_wall(batch) for batch in traced)
        metrics["tracing.wall_s"] = metric(traced_wall, "s")
        metrics["tracing.overhead_ratio"] = metric(traced_wall / walls[0], "ratio")
    else:
        rom_calls, gates = program_totals(batches[0])
        values = {
            "wall_s": statistics.median(walls),
            "op_p50_s": statistics.median(record["latency_s"] for record in records),
            "setup_s": statistics.median(setup_samples) * setup_scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "rom_calls_total": rom_calls, "gates_total": gates,
        }
        metrics = {name: metric(values[name], END_TO_END_UNITS[name]) for name in values}

    OUT_DIR.mkdir(exist_ok=True)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "regression": regression, "raw_setup_samples_s": setup_samples,
        "setup_scale": setup_scale,
        "untraced_batch_walls_s": walls, "cli_failures": cli_failures,
        "failed_ratio": failed / attempted, "metrics": metrics,
        "ops": [{k: v for k, v in record.items() if k != "texts"} for record in records],
        "spans": tracer.spans,
    }
    report_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report))

    print("regression " + json.dumps(regression))
    for record in records:
        if record["error"]:
            print(f"FAILED {record['kind']} {record['args']}: {record['error']}")
    for failure in cli_failures:
        print(f"FAILED cli {failure}")
    print(f"ops: {attempted} attempted, {failed} failed (failed_ratio {failed / attempted:.4f}), "
          f"{len(batches)} batches; report in {report_path.relative_to(ROOT)}")
    raw = {} if args.trace else {
        "wall_s": statistics.median(batch_wall(batch, "raw_s") for batch in untraced),
        "op_p50_s": statistics.median(record["raw_s"] for record in records),
        "setup_s": statistics.median(setup_samples),
    }
    for name, entry in metrics.items():
        notes = [f"raw {raw[name]:.6g} s"] if name in raw else []
        if name == "op_p50_s":
            notes.append(f"n={attempted} ops")
        note = f" ({', '.join(notes)})" if notes else ""
        print(f"{name} = {entry['value']} {entry['unit']}{note}")
    print(json.dumps({
        "correct": failed == 0 and not cli_failures,
        "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
