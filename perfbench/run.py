"""Run one krylov-echo benchmark workload and print its metrics as the last line, in JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from the root of a krylov-echo checkout: the program is imported from
``src/`` there, never from an installed copy. With ``--trace 0`` it prints
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of one
traced pass. ``--workload all`` runs every workload in its own process and
prints each one's summary. See perfbench/README.md.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("evolve-large", "cli-sweeps")
# Set-ups measured per run, each in a fresh process; the median is reported.
SETUP_SAMPLES = 9
SETUP_PROBE_TIMEOUT_S = 120
# Least number of traced and untraced passes that a traced run alternates.
OVERHEAD_PAIRS = 3


def limit_blas_threads() -> None:
    """Run BLAS and OpenMP with one thread.

    On a 2-CPU machine, a second OpenBLAS thread spins on the other CPU
    between calls, which made interpreter-bound code slower and its times
    erratic.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_workloads():
    """Import the workloads module, which imports krylov_echo from the checkout's ``src/``."""
    if not (SRC / "krylov_echo" / "__init__.py").is_file():
        raise SystemExit(f"error: no krylov_echo package under {SRC}; run from a krylov-echo checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    return workloads


class Runner:
    """Runs whole passes over a workload's operations and checks every output."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.op_times: dict[str, list[float]] = {}

    def run_pass(self, measure_memory: bool = False) -> tuple[float, int]:
        """One pass; returns its summed operation time and the peak traced bytes of any operation."""
        elapsed, peak = 0.0, 0
        for op in self.workload.operations():
            self.attempted += 1
            if measure_memory:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = op.run()
            except Exception:
                self.failed += 1
                traceback.print_exc()
                continue
            finally:
                seconds = time.perf_counter() - start
                if measure_memory:
                    peak = max(peak, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            elapsed += seconds
            if not measure_memory:
                self.op_times.setdefault(op.name, []).append(seconds)
            self.problems += self.workload.check(op.name, op.collect(result))
        return elapsed, peak


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of the workload in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed), "--setup-probe"],
        capture_output=True,
        text=True,
        timeout=SETUP_PROBE_TIMEOUT_S,
        check=True,
    )
    return float(proc.stdout.split()[-1])


def end_to_end(runner: Runner, args, setup_s: float) -> tuple[dict, list[str]]:
    # Half of the fresh set-ups run before the timed passes and half after,
    # so that their median spans the whole run, not one phase of the
    # machine's speed.
    probes = SETUP_SAMPLES - 1
    setups = [setup_s] + [probe_setup(args.workload, args.seed) for _ in range(probes // 2)]
    runner.problems += runner.workload.build_references()
    # The memory pass goes first, so that it also takes the cost of the
    # first full-size pass (heap growth) out of the timed passes.
    _, peak = runner.run_pass(measure_memory=True)
    passes = []
    loop_start = time.perf_counter()
    while not passes or time.perf_counter() - loop_start < args.seconds:
        passes.append(runner.run_pass()[0])
    setups += [probe_setup(args.workload, args.seed) for _ in range(probes - probes // 2)]
    summary = [
        f"setup_s      {statistics.median(setups):.4f} s  (median of {len(setups)} set-ups)",
        f"solve_s      {statistics.median(passes):.4f} s  (median of {len(passes)} passes)",
        f"peak_mem_mb  {peak / 1e6:.2f} MB (one pass before the timed ones)",
    ]
    summary += [
        f"{name:<28} {statistics.median(times):.4f} s  (median of {len(times)})"
        for name, times in runner.op_times.items()
    ]
    metrics = {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(passes),
        "peak_mem_mb": peak / 1e6,
    }
    return metrics, summary


def per_layer(runner: Runner, args) -> tuple[dict, list[str]]:
    import tracing

    runner.problems += runner.workload.build_references()
    # Traced and untraced passes alternate, and so does which of a pair runs
    # first, so that a drift in the machine's speed does not favour one side.
    # The layers are read from the last traced pass; the first pass's heap
    # growth falls out of the medians.
    traced, untraced = [], []
    loop_start = time.perf_counter()
    while len(traced) < OVERHEAD_PAIRS or time.perf_counter() - loop_start < args.seconds:
        for trace_on in (True, False) if len(traced) % 2 == 0 else (False, True):
            if trace_on:
                with tracing.Tracer() as tracer:
                    traced.append(runner.run_pass()[0])
            else:
                untraced.append(runner.run_pass()[0])
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    calls = tracing.layer_calls(tracer.spans)
    missing = [layer for layer in runner.workload.required_layers if not calls.get(layer)]
    if missing:
        raise RuntimeError(f"traced pass recorded no calls into {', '.join(missing)}")
    metrics = tracing.layer_metrics(tracer.spans, traced[-1])
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    summary = [f"{key:<28} {value:.6g}" for key, value in metrics.items()]
    return metrics, summary


def declared_units(section: str) -> dict[str, str]:
    """Metric names and units that BENCHMARK.json declares in ``section``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def run_workload(args) -> int:
    limit_blas_threads()
    workloads = import_workloads()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = workloads.make(args.workload, args.seed, workdir)
        workload.warm_up()
        setup_s = time.perf_counter() - _START
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        runner = Runner(workload)
        if args.trace:
            metrics, summary = per_layer(runner, args)
        else:
            metrics, summary = end_to_end(runner, args, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    correct = not runner.problems
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"attempted {runner.attempted}  failed {runner.failed}  correct {str(correct).lower()}")
    for line in summary + [f"problem: {p}" for p in runner.problems]:
        print("  " + line)
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another; the last line sums them up."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


if __name__ == "__main__":
    arguments = parse_args()
    sys.exit(run_all(arguments) if arguments.workload == "all" else run_workload(arguments))
