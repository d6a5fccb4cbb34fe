"""loramix benchmark: training, decoding and retrieval, end to end and per layer.

    python3 perfbench/run.py --workload forget-short --seed 1 --seconds 30
    python3 perfbench/run.py --workload copy-long --trace 1
    python3 perfbench/run.py              # every workload, one process each

Run from the repository root. One run sets up its workload several
times, then repeats whole rounds of the workload's operations until the
next round would end after --seconds. The last line of standard output
is one JSON object: correct, attempted, failed and the metrics, which
are the end-to-end metrics untraced (--trace 0) and the per-layer
metrics when traced (--trace 1). A traced run alternates untraced and
traced rounds; the difference of their median times is the tracing
overhead. Results and traces go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_BLAS_THREADS = 1
SETUP_REPEATS = 9
WORKLOAD_NAMES = ("forget-short", "copy-long", "corpus-rag")

END_TO_END_UNITS = {"build_ms_per_unit": "ms", "answer_ms_per_unit": "ms",
                    "setup_s": "s", "peak_rss_mib": "MiB"}
STAGE_METRICS = {"build_ms_per_unit": "build", "answer_ms_per_unit": "answer"}
# Throughput of each loop: its amount over its phase's time (decoding:
# over the time of its own calls), the median of the untraced rounds.
# Printed in every summary and reported per layer by traced runs; a
# workload that does not run a loop reports 0 for it.
LOOPS = {
    "train_tokens_per_s": ("train_tokens", "train", "tokens/s"),
    "decode_tokens_per_s": ("decode_tokens", "decode_s", "tokens/s"),
    "retrieval_queries_per_s": ("queries", "query", "queries/s"),
    "index_chunks_per_s": ("index_chunks", "index", "chunks/s"),
    "curation_records_per_s": ("curated_records", "curate", "records/s"),
    "eval_records_per_s": ("eval_records", "eval", "records/s"),
}


def blas_threads() -> int:
    return min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0)))


def effective_blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    import ctypes
    try:
        with open("/proc/self/maps") as maps:
            paths = {ln.split()[-1] for ln in maps if "openblas" in ln}
    except OSError:
        return None
    for path in sorted(paths):
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(path), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def peak_rss_mib() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def loop_rate(rnd, amount: str, seconds: str) -> float:
    s = rnd.amount[seconds] if seconds in rnd.amount else rnd.phase_s[seconds]
    return rnd.amount[amount] / s if s > 0 else 0.0


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def run_rounds(wl, state, seconds: int, tracer):
    """Whole rounds until the next one would end after `seconds`.

    With a tracer, every second round is traced.
    """
    import tracing
    import workloads

    expected_ops = wl.ops_per_round(state)
    rounds, traced_flags, round_spans = [], [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        rnd = workloads.Round(tracer if traced else None)
        first_span = len(tracer.spans) if tracer else 0
        if traced:
            tracing.install_program_spans(tracer)
        t0 = time.perf_counter()
        try:
            wl.run_round(state, rnd)
        except Exception:  # noqa: BLE001 - a raising operation is a failure
            traceback.print_exc(file=sys.stderr)
            missing = expected_ops - rnd.attempted
            rnd.attempted += missing
            rnd.failed += missing
            rnd.raised = True
            rnd.problems.append("round raised")
        finally:
            if traced:
                tracer.active = False
                tracer.uninstall()
        last_wall = time.perf_counter() - t0
        if rnd.attempted != expected_ops:
            raise RuntimeError(f"round attempted {rnd.attempted} operations, "
                               f"expected {expected_ops}")
        rounds.append(rnd)
        traced_flags.append(traced)
        if tracer:
            round_spans.append((first_span, len(tracer.spans)))
        for problem in rnd.problems:
            print(f"round {len(rounds)}: {problem}", file=sys.stderr)
        enough = len(rounds) >= (1 if tracer is None else 2)
        if enough and time.perf_counter() - start + last_wall > seconds:
            return rounds, traced_flags, round_spans


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name]
    work = OUT / f"work-{name}-{os.getpid()}"
    try:
        prepared = wl.prepare(seed)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            state = wl.setup(prepared, work)
            setup_times.append(time.perf_counter() - t0)
        tracer = tracing.Tracer() if trace else None
        rounds, traced_flags, round_spans = run_rounds(
            wl, state, seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    unexpected = failed - sum(r.expected_failed for r in rounds)
    plain = [r for r, t in zip(rounds, traced_flags) if not (t or r.raised)]
    loops = {k: median(loop_rate(r, a, s) for r in plain)
             for k, (a, s, _) in LOOPS.items()}
    if trace:
        traced_rounds = [r for r, t in zip(rounds, traced_flags)
                         if t and not r.raised]
        per_round = [tracing.layer_metrics(tracer.spans[a:b], a)
                     for (a, b), t in zip(round_spans, traced_flags) if t]
        values = {k: median(m[k] for m in per_round) for k in per_round[0]}
        values.update(loops)
        values["trace.overhead_s"] = (median(r.total_s for r in traced_rounds)
                                      - median(r.total_s for r in plain))
        values["trace.spans"] = median(b - a for (a, b), t
                                       in zip(round_spans, traced_flags) if t)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{name}-seed{seed}.json")
        units = per_layer_units()
    else:
        stages = [wl.stages(r) for r in rounds if not r.raised]
        values = {metric: median(s[stage] for s in stages)
                  for metric, stage in STAGE_METRICS.items()}
        values["setup_s"] = median(setup_times)
        values["peak_rss_mib"] = peak_rss_mib()
        units = END_TO_END_UNITS
    summary = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "blas_threads": blas_threads(),
        "blas_threads_effective": effective_blas_threads(),
        "rounds": len(rounds), "ops_per_round": wl.ops_per_round(state),
        "loops": loops,
    }
    result = {
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"summary": summary, "result": result}, indent=2) + "\n")
    print_summary(summary, result)
    return result


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def print_summary(summary: dict, result: dict) -> None:
    print(f"workload {summary['workload']}  seed {summary['seed']}  "
          f"rounds {summary['rounds']} x {summary['ops_per_round']} ops  "
          f"BLAS threads {summary['blas_threads']} "
          f"(OpenBLAS reports {summary['blas_threads_effective']})")
    print(f"  operations attempted {result['attempted']}  "
          f"failed {result['failed']}  correct {result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:14.4f} {m['unit']}")
    if not summary["trace"]:
        for name, value in summary["loops"].items():
            if value:
                print(f"  {name:40s} {value:14.4f} {LOOPS[name][2]}"
                      "  (loop)")


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (ROOT / "src" / "loramix" / "__init__.py").is_file():
        print(f"error: no loramix sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    # The BLAS thread count must be fixed before numpy is first imported.
    for var in BLAS_ENV:
        os.environ[var] = str(blas_threads())
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    sys.dont_write_bytecode = True
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
