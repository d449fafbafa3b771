"""Layered benchmark for q2rep.

    python3 perfbench/run.py --workload verify-sweep --seed 3 --seconds 35 --trace 0

Workloads (see workloads.py): verify-sweep, spectra-export, oracle-sweep.
The parent imports only the modules the workload calls and then forks one
child per operation, so every operation starts from the state a fresh
process has right after ``import q2rep.cli``: no lru_cache, memo or lazy
table carries over between operations or repetitions.  The child times the
operation alone and checks its output after the timer stops.
Operations run one at a time, in passes over the whole workload, as many
passes as fit in --seconds and at least MIN_PASSES; each operation's time is
the median over the passes.  The time metrics are scaled to a fixed machine
speed, measured by speed_probe between operations.

With --trace 0 the last line of standard output is the JSON result with the
end-to-end metrics.  With --trace 1 one untraced pass is followed by two
traced passes, each in a fresh interpreter with its own PYTHONHASHSEED, whose
counts must agree exactly; the last line holds the per-layer metrics of the
first, and its spans are written to perfbench/out/.
``--write-benchmark-json`` rewrites BENCHMARK.json from the definitions here,
and ``--write-references`` rewrites perfbench/references.json.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import pickle
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import metadata
from pathlib import Path
from time import monotonic, perf_counter
from typing import Any, Callable

from tracing import PER_LAYER, Tracer
from workloads import WORKLOADS, Outcome, is_known_defect, write_shipped_references

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# seed 3 draws c=2, V=3/4, omega=2/3, g=1/4, k2=3/4: real denominators in
# every model; verify-sweep takes no parameters, so there it only orders passes
DEFAULT_SEED = 3
# Comparing two commits takes 4 + 22 x 3 runs, all within 3420 s: at most
# 48 s a run, set-up included.  One verify-sweep pass alone takes 17 to 22 s.
RUN_SECONDS = 35
MIN_PASSES = 2
SETUP_REPEATS = 9
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# name, unit, better, bound (share of the parent's median it may worsen by).
# Whole runs drift by 10 to 40% on a shared 2-vCPU machine, so times get 0.25.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("low_p_s", "s", "lower", 0.25),
    ("high_p_s", "s", "lower", 0.25),
    ("ok_share", "share", "higher", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.1),
]
# On a shared host the speed drifts by up to 2x over tens of seconds, too
# slowly for one run to average out.  Between operations, forked children time
# speed_probe, fixed code that uses nothing of q2rep, for PROBE_SHARE of the
# run.  Each operation's time is scaled by PROBE_REFERENCE_S over the median
# probe time within PROBE_WINDOW_S of it, so the time metrics are seconds at
# the speed at which the probe takes 50 ms.
PROBE_SHARE = 0.05
PROBE_WINDOW_S = 10.0
PROBE_REFERENCE_S = 0.05
TRACE_ONLY = [("trace.wall_s", "s", "lower"), ("trace.overhead_s", "s", "lower")]


class ChildError(RuntimeError):
    """A forked helper died or raised; the message holds its traceback."""


def in_child(fn: Callable[[], Any]) -> Any:
    """Run fn in a forked child and return its result, leaving this process untouched."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            gc.enable()
            os.close(r)
            try:
                payload = pickle.dumps(("ok", fn()))
            except BaseException:
                payload = pickle.dumps(("error", traceback.format_exc()))
            with os.fdopen(w, "wb") as fh:
                fh.write(payload)
        finally:
            os._exit(0)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        raise ChildError(f"child exited with status {status} and no result")
    kind, value = pickle.loads(data)  # bytes written by our own child
    if kind == "error":
        raise ChildError(value)
    return value


@dataclass
class Sample:
    elapsed: float
    rss_mb: float
    problem: str | None
    totals: Counter = field(default_factory=Counter)
    spans: list = field(default_factory=list)
    start: float = 0.0  # monotonic time around the child, set by the parent
    end: float = 0.0


def execute(op, tracer=None) -> Sample:
    """Body of one operation's child: time it, then check what it produced."""
    from q2rep import cli

    re.purge()  # the parent's regex cache is not something a fresh process has
    out, err = io.StringIO(), io.StringIO()
    rc = value = error = None
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if op.argv is not None:
                rc = cli.main(op.argv)
            else:
                value = op.call()
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:
        error = f"raised {type(exc).__name__}: {exc}"
    elapsed = perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problem = error
    if problem is None:
        try:
            problem = op.check(Outcome(rc, out.getvalue(), value))
        except Exception as exc:
            problem = f"unreadable output ({type(exc).__name__}: {exc}); stderr {err.getvalue()[-200:]!r}"
    if tracer is None:
        return Sample(elapsed, rss_mb, problem)
    spans = [s[:5] for s in tracer.spans]
    return Sample(elapsed, rss_mb, problem, tracer.totals(), spans)


def speed_probe(n: int = 22) -> float:
    """Time of a fixed exact n x n Fraction matrix product: work of the same
    kind as the program's, in code that no change to the program can touch."""
    rng = random.Random(0)
    a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]
    gc.disable()
    t0 = perf_counter()
    [[sum(a[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return perf_counter() - t0


@dataclass
class SpeedProbes:
    """speed_probe times, taken between operations for PROBE_SHARE of the run."""
    start: float = field(default_factory=monotonic)
    probes: list[tuple[float, float]] = field(default_factory=list)  # (monotonic time, seconds)

    @property
    def times(self) -> list[float]:
        return [t for _, t in self.probes]

    def catch_up(self) -> None:
        while sum(self.times) < PROBE_SHARE * (monotonic() - self.start):
            self.probes.append((monotonic(), in_child(speed_probe)))

    def scaled(self, elapsed: float, start: float, end: float) -> float:
        """elapsed, timed from start to end, at the probe's reference speed,
        judged by the probes near it."""
        near = [t for at, t in self.probes if start - PROBE_WINDOW_S <= at <= end + PROBE_WINDOW_S]
        return elapsed * PROBE_REFERENCE_S / statistics.median(near or self.times)


def run_pass(order, tracer=None, probes: SpeedProbes | None = None) -> dict[str, Sample]:
    samples = {}
    for op in order:
        start = monotonic()
        samples[op.name] = sample = in_child(lambda op=op: execute(op, tracer))
        sample.start, sample.end = start, monotonic()
        if probes is not None:
            probes.catch_up()
    return samples


def measure_setup(modules: tuple[str, ...], probes: SpeedProbes) -> list[tuple[float, float, float]]:
    """Import time of the workload's modules in fresh interpreters, as
    (seconds, monotonic start, monotonic end), with speed probes in between."""
    code = (
        "import time; t = time.perf_counter(); "
        + "; ".join(f"import {m}" for m in modules)
        + "; print(repr(time.perf_counter() - t))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS + 1):
        start = monotonic()
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                              text=True, check=True, timeout=120)
        times.append((float(done.stdout), start, monotonic()))
        probes.catch_up()
    return times[1:]  # the first interpreter may also compile bytecode


def tail(values: list[float]) -> str:
    """Median, the highest percentile with ten samples beyond it, and the count."""
    n = len(values)
    text = f"median {statistics.median(values):.4f} over {n} samples"
    if n <= 10:
        return text + "; no percentile has ten samples beyond it"
    k = n - 10
    return text + f"; p{100 * k // n} {sorted(values)[k - 1]:.4f}"


def environment(load_before: tuple[float, ...]) -> list[str]:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    load_after = os.getloadavg()
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "q2rep").glob("*.py")))
    noisy = load_before[0] > 0.75 * NPROC
    return [
        f"env.python {platform.python_version()}",
        f"env.numpy {metadata.version('numpy')}",
        f"env.sympy {metadata.version('sympy')}",
        f"env.nproc {NPROC}",
        f"env.cpu {cpu}",
        f"env.blas_threads {os.environ[BLAS_VARS[0]]}",
        f"env.loadavg_before {' '.join(f'{x:.2f}' for x in load_before)}",
        f"env.loadavg_after {' '.join(f'{x:.2f}' for x in load_after)}",
        f"env.noisy {'yes: 1-minute load above 0.75 x nproc before the run' if noisy else 'no'}",
        f"env.src_lines {src_lines} (informational, src/q2rep/*.py)",
    ]


def run_workload(workload, seed: int, seconds: int, trace: bool) -> dict:
    probes = SpeedProbes()
    setup = measure_setup(workload.modules, probes)
    for name in workload.modules:
        importlib.import_module(name)
    ops = workload.build(seed, in_child)
    # every child starts with empty collector generations; the parent itself
    # allocates only results, so it needs no collection between operations
    gc.collect()
    gc.disable()
    rng = random.Random(seed)
    order = list(ops)
    passes: list[dict[str, Sample]] = []
    start = last = monotonic()
    # start another pass only if it should end within --seconds, judged by the
    # last one; a traced run needs one untraced pass, to price the tracing
    while not passes or (not trace and (len(passes) < MIN_PASSES or 2 * monotonic() - last - start <= seconds)):
        last = monotonic()
        # a shuffled order, then the same order backwards: within each pair of
        # passes every operation's two samples sit around the pair's midpoint,
        # so a drift in machine speed over the pair weighs on every tier alike
        if len(passes) % 2 == 0:
            rng.shuffle(order)
        else:
            order.reverse()
        passes.append(run_pass(order, probes=probes))

    medians = {op.name: statistics.median(p[op.name].elapsed for p in passes) for op in ops}
    scaled = {op.name: statistics.median(probes.scaled(p[op.name].elapsed, p[op.name].start, p[op.name].end)
                                         for p in passes) for op in ops}
    samples = [(op, p[op.name]) for p in passes for op in ops]
    failed = [(op, s) for op, s in samples if s.problem]
    unexpected = [(op, s) for op, s in failed if not is_known_defect(op, s.problem)]
    attempted = len(samples)
    tiers = {"wall_s": lambda op: True, "low_p_s": lambda op: op.tier == "low",
             "high_p_s": lambda op: op.tier == "high"}
    raw = {name: sum(medians[op.name] for op in ops if sel(op)) for name, sel in tiers.items()}
    values = {name: sum(scaled[op.name] for op in ops if sel(op)) for name, sel in tiers.items()}
    values["setup_s"] = statistics.median(probes.scaled(*x) for x in setup)
    values["ok_share"] = (attempted - len(failed)) / attempted
    values["peak_rss_mb"] = max(s.rss_mb for _, s in samples)

    lines = [f"workload {workload.name} seed {seed}: {len(ops)} operations x {len(passes)} passes"]
    lines.append(f"setup_s {values['setup_s']:.4f} s at probe speed (measured {tail([x[0] for x in setup])})")
    lines.append(f"speed probe {tail(probes.times)}; each operation's time is scaled by {PROBE_REFERENCE_S} s "
                 f"over the median probe within {PROBE_WINDOW_S:g} s of it")
    for name, sel in tiers.items():
        per_pass = [sum(p[op.name].elapsed for op in ops if sel(op)) for p in passes]
        lines.append(f"{name} {values[name]:.4f} s at probe speed (measured {raw[name]:.4f} s, the sum of "
                     f"per-operation medians; measured per pass {tail(per_pass)})")
    lines.append(f"failed_share {len(failed) / attempted:.4f} ({len(failed)}/{attempted}; "
                 f"{len(failed) - len(unexpected)} are known seed defects)")
    lines.append(f"peak_rss_mb {values['peak_rss_mb']:.1f} MB")
    for op in ops:
        problems = [p[op.name].problem for p in passes if p[op.name].problem]
        bad = [x for x in problems if not is_known_defect(op, x)]
        status = f"FAIL: {bad[0]}" if bad else f"KNOWN DEFECT: {problems[0]}" if problems else "ok"
        lines.append(f"  op {op.name:34s} {op.tier:4s} {medians[op.name] * 1e3:9.1f} ms  {status}")
    for reason in sorted({op.known_defect for op, s in failed if is_known_defect(op, s.problem)}):
        lines.append(f"known seed defect: {reason}")

    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}
    correct = not unexpected
    if trace:
        traced = [traced_pass_in_fresh_parent(workload, seed, k) for k in (1, 2)]
        totals = [Counter(t["totals"]) for t in traced]
        counts = [{k: v for k, v in t.items() if k.startswith("count:") and v} for t in totals]
        drift = sorted(k for k in counts[0].keys() | counts[1].keys() if counts[0].get(k) != counts[1].get(k))
        traced_wall = traced[0]["wall_s"]
        metrics = {name: {"value": float(fn(totals[0])), "unit": unit} for name, unit, _, fn, _ in PER_LAYER}
        for name, unit, _, _, moves in PER_LAYER:
            lines.append(f"  {name:34s} {metrics[name]['value']:16.6g} {unit:6s} moves {moves}")
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_wall - raw["wall_s"], "unit": "s"}
        lines.append(f"trace.wall_s {traced_wall:.4f} s; trace.overhead_s {traced_wall - raw['wall_s']:.4f} s "
                     "(traced minus untraced wall_s, both as measured)")
        lines.append("count determinism (two fresh interpreters, PYTHONHASHSEED 1 and 2): "
                     + ("identical" if not drift else "DIFFERS in " + ", ".join(drift[:8])))
        for t in traced:
            lines += [f"  traced FAIL: {x}" for x in t["unexpected"]]
        correct = correct and not drift and not any(t["unexpected"] for t in traced)
        lines.append(f"spans written to {spans_path(workload, seed).relative_to(ROOT)}")
    print("\n".join(lines))
    return {"correct": correct, "attempted": attempted, "failed": len(failed), "metrics": metrics}


def spans_path(workload, seed: int) -> Path:
    return OUT / f"trace-{workload.name}-seed{seed}.json"


def traced_pass(workload, seed: int, write_spans: bool) -> dict:
    """One traced pass over the workload, in this process as a fresh parent."""
    for name in workload.modules:
        importlib.import_module(name)
    ops = workload.build(seed, in_child)
    gc.collect()
    gc.disable()
    tracer = Tracer()
    tracer.install()
    order = list(ops)
    random.Random(seed).shuffle(order)
    samples = run_pass(order, tracer)
    if write_spans:
        OUT.mkdir(exist_ok=True)
        spans = {name: s.spans for name, s in samples.items()}
        spans_path(workload, seed).write_text(
            json.dumps({"fields": ["id", "parent", "name", "start_ns", "end_ns"], "ops": spans}))
    return {
        "wall_s": sum(s.elapsed for s in samples.values()),
        "totals": dict(sum((s.totals for s in samples.values()), Counter())),
        "unexpected": [f"{op.name}: {samples[op.name].problem}" for op in ops
                       if samples[op.name].problem and not is_known_defect(op, samples[op.name].problem)],
    }


def traced_pass_in_fresh_parent(workload, seed: int, k: int) -> dict:
    """traced_pass in a new interpreter whose PYTHONHASHSEED is k, so that no
    hash order or object of this process reaches the counts."""
    argv = [sys.executable, __file__, "--workload", workload.name, "--seed", str(seed), "--traced-pass", str(k)]
    done = subprocess.run(argv, env=dict(os.environ, PYTHONHASHSEED=str(k)), cwd=ROOT, capture_output=True,
                          text=True, timeout=150)
    if done.returncode != 0:
        raise ChildError(f"traced pass {k} exited with {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _, _ in PER_LAYER]
        + [{"name": n, "unit": u, "better": b} for n, u, b in TRACE_ONLY],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true")
    parser.add_argument("--write-references", action="store_true")
    # internal: one traced pass of --trace 1, run in a fresh interpreter
    parser.add_argument("--traced-pass", type=int, choices=(1, 2), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
        return 0
    if not (SRC / "q2rep" / "cli.py").is_file():
        print(f"error: no q2rep sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # before numpy is first imported
        os.environ[var] = str(NPROC)
    sys.path.insert(0, str(SRC))
    if args.write_references:
        print(f"{write_shipped_references()} references written")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.traced_pass:
        print(json.dumps(traced_pass(WORKLOADS[args.workload], args.seed, args.traced_pass == 1)))
        return 0
    load_before = os.getloadavg()
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print("\n".join(environment(load_before)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
