"""Benchmark for geohom: one workload per run, outputs checked by an oracle.

    python3 perfbench/run.py --workload verify|enumerate|query|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  The program is imported from ``src/``.
With ``--trace 0`` the run times whole rounds of the workload for about
``--seconds`` seconds and reports the end-to-end metrics; with
``--trace 1`` it times one untraced round, then traces one round and
reports the per-layer metrics (and the tracing overhead).  The last line
of standard output is one JSON object: correct, attempted, failed,
metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from oracle import Oracle  # noqa: E402
from tracing import Tracer, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS, invoke  # noqa: E402

END_TO_END = (("setup_s", "s"), ("round_s", "s"), ("peak_rss_mb", "MB"))


def forget_geohom() -> None:
    """Drop every geohom module, and free the old copies at once so that
    repeated set-ups do not add to the peak resident set."""
    for name in [n for n in sys.modules if n == "geohom" or n.startswith("geohom.")]:
        del sys.modules[name]
    gc.collect()
    importlib.invalidate_caches()


def run_round(main, workload) -> list:
    return [invoke(main, op) for op in workload.round()]


def round_wall(results) -> float:
    return sum(r.wall for r in results if r.op.well_formed)


def describe(name: str, samples: list[float]) -> str:
    """Median, and the highest percentile with ten samples beyond it when
    the run has at least forty samples."""
    line = f"{name}: median {statistics.median(samples):.4f} s over {len(samples)} samples"
    if len(samples) >= 40:
        ordered = sorted(samples)
        pct = 100 * (len(samples) - 10) // len(samples)
        line += f", p{pct} {ordered[len(samples) - 11]:.4f} s"
    return line


def declared(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(args) -> int:
    if not (ROOT / "src" / "geohom" / "cli.py").is_file():
        print(f"error: no geohom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        return measure(args, WORKLOADS[args.workload](args.seed, work), out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, workload, out_dir: Path) -> int:
    setups = []
    for _ in range(workload.setup_reps):
        forget_geohom()
        start = time.perf_counter()
        main = importlib.import_module("geohom.cli").main
        workload.prepare(main)
        setups.append(time.perf_counter() - start)
    if not Path(sys.modules["geohom"].__file__).is_relative_to(ROOT):
        print("error: geohom was not imported from this checkout", file=sys.stderr)
        return 2

    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(main, workload))
        elapsed = time.perf_counter() - start
        if args.trace or elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            rounds.append(run_round(main, workload))
        finally:
            tracer.uninstall()

    results = [r for rnd in rounds for r in rnd]
    problems = workload.check(results, Oracle())
    attempted = failed = 0
    for r in results:
        a, f = workload.counts(r)
        attempted += a
        failed += f

    untraced = rounds[:-1] if args.trace else rounds
    print(f"workload {workload.name} seed {args.seed}: {len(untraced)} untraced"
          f" round(s), {attempted} operations attempted, {failed} failed")
    for r in results:
        if not r.ok:
            print(f"  failed: {' '.join(r.op.argv)} -> exit {r.code} {r.error}")
    for problem in problems:
        print(f"  WRONG: {problem}")
    checked = sum(1 for r in results if r.ok and r.op.well_formed)
    print(f"{checked} outputs checked against the oracle: {len(problems)} wrong")
    print(describe("setup_s", setups))
    print("rounds: " + " ".join(f"{round_wall(rnd):.4f}" for rnd in untraced) + " s")
    for name, samples in workload.timings(untraced).items():
        print(describe(name, samples))

    if tracer is None:
        units = dict(END_TO_END)
        values = {
            "setup_s": statistics.median(setups),
            "round_s": statistics.median(round_wall(rnd) for rnd in rounds),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        overhead = round_wall(rounds[-1]) - round_wall(rounds[0])
        print(f"traced round {round_wall(rounds[-1]):.4f} s, untraced"
              f" {round_wall(rounds[0]):.4f} s, overhead {overhead:.4f} s")
        for line in tracer.table():
            print(line)
        spans = out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write_spans(spans)
        print(f"{len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
        units = dict(per_layer_metrics())
        values = tracer.metrics(overhead)
    for name, value in values.items():
        print(f"{name} = {value} {units[name]}")
    if declared(bool(args.trace)) != units:
        print("error: metrics differ from those BENCHMARK.json declares", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
