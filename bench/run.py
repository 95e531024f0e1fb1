#!/usr/bin/env python3
"""Benchmark of the isoclinic library and CLI.

    python3 bench/run.py --workload catalog --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the library is imported from
./src. One process runs one workload closed loop, with one client
issuing operations one after another, for --seconds of operation time
(whole cycles over the workload's operations), after one warm-up cycle.
Every outcome is judged against ground truth from the generators and
sorted into correct, wrong, refused (an IsoclinicError on a valid input)
and crashed (any other exception).

Every operation runs once per cycle and every latency is kept:
op_p50_ms and op_p90_ms are quantiles over all of them, ops_per_s is
operations completed per second of operation time, and the per-kind
*_p50_ms of the traced run are medians over all latencies of one kind.
setup_s is the median of SETUP_RUNS fresh processes, started between
cycles spread evenly over the run. For cli, peak_rss_mb is the peak of
the CLI processes.

Latencies are reference-scaled. On a shared 2-core VM the speed of the
whole machine moved by up to 1.8x for a minute or more at a time, so
latencies of 20 s runs spread by up to 30% between runs. A fixed
reference of the same kind of work is timed before each cycle, and the
latencies of the cycle are multiplied by its nominal time over its
measured time: they read as times on a machine on which the reference
takes its nominal time. For the library workloads the reference is an
in-process kernel (kernel_ms, nominal KERNEL_MS; this machine took
0.5-1.0 ms); for cli, whose commands are processes, which that kernel
did not track, it is a fresh interpreter importing numpy (process_ms,
nominal PROCESS_MS; this machine took 125-150 ms). Each set-up probe
is scaled by the kernel timed in its own process. The traced run
reports the reference's median time (machine.reference_ms) and the
unscaled figures beside the scaled ones.

--trace 0 prints the end-to-end metrics; --trace 1 the per-layer
metrics, from a separate pass in which the library's public functions
are wrapped from outside (see tracer.py). The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}; the line
before it ("run-record: ...") holds the machine, versions, seed and
outcome counts. Spans of a traced run go to .bench_out/.

Every call is judged, but `attempted` and `failed` count the distinct
operations of the workload: an operation has failed when any of its
calls was not correct. The library is deterministic for a given input
and seed, so both numbers depend on --seed only, not on how many cycles
fitted into --seconds. `correct` is false when any operation outside
the near-threshold band (see workloads.py) has failed, or a CLI
command's exit code or stdout differs from the in-process reference.
The band's operations count in `failed` as measured.
"""

import os

# fixed BLAS thread count, at or below nproc on any machine, set before
# numpy loads and inherited by every child process
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from collections.abc import Callable
from pathlib import Path

import numpy as np

from tracer import MODULES, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("catalog", "wide", "oracle", "cli")
SETUP_RUNS = 7
PROBE_RUNS = 5
KERNEL_MS = 1.0
PROCESS_MS = 130.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
KINDS = ("analyze", "reject", "compare", "decompose",
         "cli_analyze", "cli_compare", "cli_decompose", "cli_verify")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    units: dict[str, str] = {}
    for name in ("quaternions.apply_structure", "quaternions.qarr_mul", "subspaces.Frame",
                 "subspaces.restrict_complement", "analysis.certify_isoclinic",
                 "orbits.orbit_label", "orbits.same_orbit", "orbits.canonical_matrices",
                 "generators.random_sp", "generators.SpElement.real_matrix"):
        units[name + ".calls"] = "count/op"
        units[name + ".self_ms"] = "ms/op"
    for name in ("subspaces.structure_image", "analysis.isoclinic_pair",
                 "analysis.full_profile"):
        units[name + ".calls"] = "count/op"
    for name in ("subspaces.gram", "subspaces.orthonormalize", "analysis.companions",
                 "analysis.build_chains", "analysis.gamma_delta", "orbits.decompose",
                 "orbits.eight_dim_addend", "generators.invariance_oracle",
                 "io.parse_document", "io.serialize_document", "cli.main"):
        units[name + ".self_ms"] = "ms/op"
    units["analysis.gate.pass_ratio"] = "ratio"
    units["cli.import_ms"] = "ms"
    units["cli.interpreter_ms"] = "ms"
    for module in MODULES:
        units[module + ".self_ms"] = "ms/op"
        units[module + ".share"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    units["machine.reference_ms"] = "ms"
    units["unscaled.ops_per_s"] = "1/s"
    units["unscaled.op_p50_ms"] = "ms"
    units["unscaled.op_p90_ms"] = "ms"
    for kind in KINDS:
        units[kind + "_p50_ms"] = "ms"
    units["oracle_trials_per_s"] = "1/s"
    units["failed_ratio"] = "ratio"
    units["near_threshold.failed_ratio"] = "ratio"
    for status in ("wrong", "refused", "crashed"):
        units[status] = "count"
    return units


# ---------------------------------------------------------------------------
# measurement


def _wall(argv: list[str], env: dict[str, str]) -> float:
    start = time.perf_counter()
    subprocess.run(argv, check=True, env=env, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def kernel_ms() -> float:
    """Median of three runs of a fixed kernel, small matrix products in a
    Python loop, in ms: the speed of this process at this moment."""
    times = []
    for _ in range(3):
        a = np.eye(8) + 0.01 * np.arange(64.0).reshape(8, 8)
        start = time.perf_counter()
        for _ in range(150):
            a = a @ a.T
            a /= np.linalg.norm(a)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def process_ms(env: dict[str, str]) -> float:
    """Wall time of a fresh interpreter that imports numpy, in ms: the
    speed of starting and loading processes at this moment."""
    return _wall([sys.executable, "-c", "import numpy"], env) * 1e3


SETUP_CODE = """\
import time
start = time.perf_counter()
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.build({name!r}, {seed})
took = time.perf_counter() - start
from run import kernel_ms
print(took, kernel_ms())
"""


def setup_probe(name: str, seed: int) -> float:
    """Seconds a fresh process takes from its first statement to the
    library imported and the workload's inputs generated from the seed,
    scaled by the kernel timed in that process right after; interpreter
    start-up is left out (cli.interpreter_ms measures it)."""
    code = SETUP_CODE.format(src=str(SRC), bench=str(BENCH), name=name, seed=seed)
    proc = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True)
    took, kernel = map(float, proc.stdout.split())
    return took * KERNEL_MS / kernel


class Loop:
    """Closed-loop run of a list of operations, with judged outcomes."""

    def __init__(self, ops, reference: Callable[[], float], nominal_ms: float):
        self.ops = ops
        self.reference = reference  # timed before each cycle, in ms
        self.nominal_ms = nominal_ms  # what the latencies are scaled to
        self.status = ["correct"] * len(ops)  # first non-correct outcome per operation
        self.outcomes: Counter = Counter()  # (status, near) of every call
        self.reset_timing()

    def reset_timing(self) -> None:
        """Drop the timings so far (a warm-up's) and keep the judgments."""
        self.samples: list[list[float]] = [[] for _ in self.ops]  # latencies per operation
        self.references: list[float] = []  # reference() before each cycle
        self.busy = 0.0

    def run(self, seconds: float) -> None:
        """Whole cycles over the operations until `seconds` of them ran."""
        while True:
            self.references.append(self.reference())
            for index, op in enumerate(self.ops):
                start = time.perf_counter()
                try:
                    result, exc = op.call(), None
                except Exception as error:  # judged below: refused or crashed
                    result, exc = None, error
                took = time.perf_counter() - start
                self.busy += took
                self.samples[index].append(took)
                status = op.judge(result, exc)
                self.outcomes[status, op.near] += 1
                if status != "correct" and self.status[index] == "correct":
                    self.status[index] = status
                    if not op.near:
                        print(f"{op.kind}: {status}: {exc!r}", file=sys.stderr)
            if self.busy >= seconds:
                return

    def count(self, status: str, near: bool | None = None) -> int:
        """Operations whose outcome is `status` (inside the near-threshold
        band only, outside it only, or all when `near` is None)."""
        return sum(s == status and (near is None or op.near == near)
                   for s, op in zip(self.status, self.ops))

    def clean(self) -> bool:
        """No operation outside the near-threshold band failed."""
        return all(self.count(s, near=False) == 0 for s in ("wrong", "refused", "crashed"))

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return self.attempted - self.count("correct")

    def latencies_ms(self, kinds=None, scaled: bool = True) -> np.ndarray:
        """Every latency of the operations of `kinds` (all when None), in ms,
        reference-scaled by its cycle unless not `scaled`."""
        rows = [i for i, op in enumerate(self.ops) if kinds is None or op.kind in kinds]
        ms = np.array(self.samples)[rows] * 1e3
        if scaled:
            ms *= self.nominal_ms / np.array(self.references)
        return ms.ravel()


def end_to_end(loop: Loop, setup_s: float, peak_rss_kb: int) -> dict[str, float]:
    latencies = loop.latencies_ms()
    return {
        "setup_s": setup_s,
        "ops_per_s": 1e3 * latencies.size / latencies.sum(),
        "op_p50_ms": float(np.percentile(latencies, 50)),
        "op_p90_ms": float(np.percentile(latencies, 90)),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def _untraced_cycles(calls, seconds: float) -> tuple[int, float]:
    cycles, busy = 0, 0.0
    while cycles == 0 or busy < seconds:
        for call in calls:
            start = time.perf_counter()
            try:
                call()
            except Exception:  # outcomes were judged in the closed loop
                pass
            busy += time.perf_counter() - start
        cycles += 1
    return cycles, busy


def per_layer(name: str, seed: int, loop: Loop, ops, calls, seconds: float) -> dict[str, float]:
    """Layer metrics per operation from a traced pass over the same cycles
    as an untraced pass; the ratio of their operation time is the overhead."""
    import workloads

    cycles, untraced = _untraced_cycles(calls, seconds)
    tracer = Tracer()
    tracer.install()
    try:
        for _ in range(cycles):
            for op, call in zip(ops, calls):
                try:
                    tracer.operation(op.kind, call)
                except Exception:  # outcomes were judged in the closed loop
                    pass
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.save(str(OUT / f"trace-{name}-{seed}.npz"))

    traced = tracer.op_seconds()
    n_ops = cycles * len(calls)
    stats = tracer.stats()
    metrics: dict[str, float] = {}
    for metric in per_layer_units():
        layer, _, what = metric.rpartition(".")
        if what in ("calls", "self_ms") and "." in layer:
            calls_n, self_s = stats.get(layer, (0, 0.0))
            metrics[metric] = calls_n / n_ops if what == "calls" else self_s * 1e3 / n_ops
    for module in MODULES:
        self_s = sum(s for key, (_, s) in stats.items() if key.startswith(module + "."))
        metrics[module + ".self_ms"] = self_s * 1e3 / n_ops
        metrics[module + ".share"] = self_s / traced
    metrics["analysis.gate.pass_ratio"] = (
        tracer.gate_passes / tracer.gate_attempts if tracer.gate_attempts else 0.0)
    metrics["trace.overhead_ratio"] = traced / untraced
    metrics["cli.import_ms"] = metrics["cli.interpreter_ms"] = 0.0
    if name == "cli":
        env = workloads.cli_env(str(SRC))
        bare = statistics.median(_wall([sys.executable, "-c", "pass"], env)
                                 for _ in range(PROBE_RUNS))
        full = statistics.median(_wall([sys.executable, "-c", "import isoclinic.cli"], env)
                                 for _ in range(PROBE_RUNS))
        metrics["cli.interpreter_ms"] = bare * 1e3
        metrics["cli.import_ms"] = (full - bare) * 1e3

    for kind in KINDS:
        latencies = loop.latencies_ms([kind])
        metrics[kind + "_p50_ms"] = float(np.median(latencies)) if latencies.size else 0.0
    oracle = loop.latencies_ms(["oracle"])
    metrics["oracle_trials_per_s"] = (
        1e3 * workloads.ORACLE_TRIALS * oracle.size / oracle.sum() if oracle.size else 0.0)
    metrics["machine.reference_ms"] = statistics.median(loop.references)
    unscaled = loop.latencies_ms(scaled=False)
    metrics["unscaled.ops_per_s"] = 1e3 * unscaled.size / unscaled.sum()
    metrics["unscaled.op_p50_ms"] = float(np.percentile(unscaled, 50))
    metrics["unscaled.op_p90_ms"] = float(np.percentile(unscaled, 90))
    metrics["failed_ratio"] = loop.failed / loop.attempted
    near = sum(op.near for op in loop.ops)
    metrics["near_threshold.failed_ratio"] = (
        (near - loop.count("correct", near=True)) / near if near else 0.0)
    for status in ("wrong", "refused", "crashed"):
        metrics[status] = float(loop.count(status))
    return metrics


# ---------------------------------------------------------------------------
# run record


def run_record(name: str, seed: int, loop: Loop) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": name,
        "seed": seed,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "operations": loop.attempted,
        "outcomes": {f"{s}{' (near threshold)' if near else ''}": c
                     for (s, near), c in sorted(loop.outcomes.items())},
    }


# ---------------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    import workloads

    workload = workloads.build(name, seed)
    workdir = None
    try:
        if name == "cli":
            OUT.mkdir(exist_ok=True)
            workdir = tempfile.mkdtemp(prefix="cli-", dir=OUT)
            ops, calls = workloads.cli_ops(workload, workdir, str(SRC))
            env = workloads.cli_env(str(SRC))
            reference = (lambda: process_ms(env), PROCESS_MS)
        else:
            ops = workload.ops
            calls = [op.call for op in ops]
            reference = (kernel_ms, KERNEL_MS)
        loop = Loop(ops, *reference)
        loop.run(0.0)  # warm-up, one judged cycle: caches, BLAS buffers, imports
        loop.reset_timing()
        if trace:
            loop.run(seconds / 2)
            metrics = per_layer(name, seed, loop, ops, calls, seconds / 4)
            units = per_layer_units()
        else:
            setups = []
            for part in range(1, SETUP_RUNS + 1):
                loop.run(seconds * part / SETUP_RUNS)
                setups.append(setup_probe(name, seed))
            peak_kb = (workloads.cli_peak_rss_kb if name == "cli"
                       else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            metrics = end_to_end(loop, statistics.median(setups), peak_kb)
            units = END_TO_END
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": loop.clean(),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, run_record(name, seed, loop)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "isoclinic" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'isoclinic'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("run-record: " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
