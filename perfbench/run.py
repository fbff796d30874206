"""trebeca benchmark: one workload per invocation, closed loop, one caller.

    python3 perfbench/run.py --workload explore_unstable --seed 0 --seconds 25 --trace 0

The program is imported from ``src/`` next to this directory, never from an
installed copy. Set-up is timed in fresh child processes, and the host's
speed is read by a probe process between jobs (``calibrate.py``); the jobs
themselves run in this process. The command repeats passes over the
workload's jobs until ``--seconds`` have gone by, checks every job's
outputs, writes a readable report to stderr and, as the last line of
stdout, one JSON object: end-to-end metrics with ``--trace 0``, the
per-layer split with ``--trace 1``. Any failed check makes the exit
code 1.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 15
MEMORY_LIMIT = 4 << 30  # a runaway model fails its job instead of exhausting the host
DEFAULT_SEED = 0


def import_program() -> SimpleNamespace:
    """Import trebeca from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    names = ["parser", "model", "interp", "scheduler", "explorer", "monitors", "cli"]
    modules = {name: importlib.import_module(f"trebeca.{name}") for name in names}
    package = sys.modules["trebeca"]
    if Path(package.__file__).resolve().parent != SRC / "trebeca":
        raise SystemExit(f"trebeca imported from {package.__file__}, expected {SRC}")
    return SimpleNamespace(trebeca=package, **modules)


def setup_probe(workload: str) -> float:
    """Ready-for-the-first-job time of this fresh process: the program's
    import plus the workload's program-side set-up. The clock starts after
    the interpreter and the benchmark's own modules have loaded, so that
    only the program's work is timed."""
    start = time.perf_counter()
    api = import_program()
    WORKLOADS[workload](api)
    return time.perf_counter() - start


def setup_child(workload: str) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def measure_setup(workload: str, host) -> list[float]:
    """Set-up times of fresh processes, each divided by the host's slowdown
    read around it. A first process, not counted, warms the file cache and
    writes bytecode where the interpreter may."""
    setup_child(workload)
    probes, times = [], []
    for _ in range(SETUP_SAMPLES):
        probes.append(host.probe())
        times.append(setup_child(workload))
    host.probe()
    return [t / host.slowdown(probe) for probe, t in zip(probes, times)]


def load_pins(workload):
    """Pinned per-job digests of the workload, or None when there are none."""
    pins = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    return pins.get(workload.name)


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def typical(samples: dict) -> float:
    return sum(statistics.median(v) for v in samples.values())


class HostSpeed:
    """How much slower than the reference the host runs right now, from the
    probe in ``calibrate.py``, which runs in a process of its own."""

    REFERENCE_S = 0.025  # the probe's time on the idle 2-core baseline host
    WINDOW = 2  # probes on each side that smooth one reading

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "calibrate.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.factors: list[float] = []

    def probe(self) -> int:
        """Take one reading; returns its index."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        self.factors.append(float(self.proc.stdout.readline()) / self.REFERENCE_S)
        return len(self.factors) - 1

    def slowdown(self, probe: int) -> float:
        """Slowdown over the stretch between reading ``probe`` and the next
        one: the median of the readings around it."""
        return statistics.median(
            self.factors[max(0, probe - self.WINDOW + 1):probe + self.WINDOW + 1])

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


class Loop:
    """Passes over one workload's jobs until the time is up.

    Every job runs once per pass, so each job collects one time sample per
    pass; a job's typical time is the median of its samples. Job times are
    host seconds divided by the host's slowdown, probed between stretches
    of about ``CHUNK_S`` of jobs.
    """

    CHUNK_S = 0.5

    def __init__(self, workload, jobs: list, tracer, host: HostSpeed, seed: int):
        self.workload = workload
        self.rng = random.Random(seed)
        self.jobs = jobs
        self.tracer = tracer
        self.host = host
        self.first_digests: list = []
        self.walls = {False: [], True: []}  # traced? -> job time of each pass
        self.host_walls = {False: [], True: []}  # the same in host seconds
        self.samples = {False: defaultdict(list), True: defaultdict(list)}  # job -> times
        self.explore_s = defaultdict(list)  # job -> time inside explore, untraced
        self.run_s = defaultdict(list)  # job -> time inside run, untraced
        self.work = Counter()  # steps and runs of one pass
        self.counts = Counter()  # layer counts of one pass
        self.layer_s = Counter()  # layer -> self time over traced passes, scaled
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    @property
    def passes(self) -> int:
        return len(self.walls[False]) + len(self.walls[True])

    def one_pass(self, traced: bool) -> None:
        gc.collect()
        first = not self.first_digests
        digests = [None] * len(self.jobs)
        chunks = []  # (first probe, jobs: (index, host s, work), layer self time)
        chunk = []
        layer_mark = Counter(self.tracer.self_s) if traced else Counter()
        # Job lists are ordered by cost, so jobs of like cost would share one
        # host-speed reading; a fresh order each pass spreads them over many.
        order = list(range(len(self.jobs)))
        self.rng.shuffle(order)
        probe = self.host.probe()
        for index in order:
            job = self.jobs[index]
            self.attempted += 1
            work = Counter()
            try:
                with self.tracer.active() if traced else nullcontext():
                    start = time.perf_counter()
                    out = self.workload.execute(job, work)
                    elapsed = time.perf_counter() - start
                job_digest, counts, problems = self.workload.check(job, out)
                del out
            except Exception:  # any fault of a job is a failed job; keep measuring
                self.fail(index, traceback.format_exc())
                continue
            chunk.append((index, elapsed, work))
            digests[index] = job_digest
            if first:
                self.counts += counts
                self.work.update(steps=work["steps"], runs=work["runs"])
            if problems:
                self.fail(index, "; ".join(problems))
            elif not first and job_digest != self.first_digests[index]:
                self.fail(index, "output differs from the first pass"
                                 + (" (traced)" if traced else ""))
            if sum(c[1] for c in chunk) >= self.CHUNK_S:
                layers = Counter(self.tracer.self_s) if traced else Counter()
                chunks.append((probe, chunk, layers - layer_mark))
                chunk, layer_mark, probe = [], layers, self.host.probe()
        if chunk:
            layers = Counter(self.tracer.self_s) if traced else Counter()
            chunks.append((probe, chunk, layers - layer_mark))
            self.host.probe()
        if first:
            self.first_digests = digests
        wall = host_wall = 0.0
        for probe, jobs, layers in chunks:
            slowdown = self.host.slowdown(probe)
            for i, host_s, work in jobs:
                self.samples[traced][i].append(host_s / slowdown)
                if not traced:
                    self.explore_s[i].append(work["explore_s"] / slowdown)
                    self.run_s[i].append(work["run_s"] / slowdown)
                wall += host_s / slowdown
                host_wall += host_s
            for layer, seconds in layers.items():
                self.layer_s[layer] += seconds / slowdown
        self.walls[traced].append(wall)
        self.host_walls[traced].append(host_wall)

    def typical(self, traced: bool) -> float:
        """Job time of a typical pass: the sum of every job's median."""
        return typical(self.samples[traced])

    def fail(self, index: int, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"job {index}: {why.strip()}")

    def check_pins(self, pins, seed: int) -> None:
        """Compare the outputs with the pinned ones. When this seed's jobs
        are not the pinned seed's, run the pinned seed's jobs once more,
        untimed, so that every seed checks against the pins."""
        if pins is None:
            self.fail(-1, "no pinned outputs in expected.json")
            return
        jobs, digests = self.jobs, self.first_digests
        if self.workload.seeded and seed != pins["seed"]:
            jobs = self.workload.jobs(pins["seed"])
            digests = [self.run_untimed(index, job) for index, job in enumerate(jobs)]
        where = f"pinned seed {pins['seed']} " if jobs is not self.jobs else ""
        if pins["corpus"] != self.workload.corpus_digest(jobs):
            self.fail(-1, f"{where}generated corpus differs from the pinned corpus")
        for index, (got, want) in enumerate(zip(digests, pins["jobs"])):
            if got is not None and got != want:
                self.fail(index, f"{where}digest {got} differs from pinned {want}")
        if len(pins["jobs"]) != len(digests):
            self.fail(-1, f"{where}{len(digests)} jobs, {len(pins['jobs'])} pinned")

    def run_untimed(self, index: int, job):
        """Execute and check one job outside the measurement; its digest."""
        self.attempted += 1
        try:
            job_digest, _counts, problems = self.workload.check(
                job, self.workload.execute(job, Counter()))
        except Exception:  # a fault is a failed job, as in a timed pass
            self.fail(index, "pinned seed: " + traceback.format_exc())
            return None
        if problems:
            self.fail(index, "pinned seed: " + "; ".join(problems))
        return job_digest


def end_to_end(loop: Loop, setup: list[float]) -> dict:
    job_ms = [1000 * statistics.median(times) for times in loop.samples[False].values()]
    busy = typical(loop.explore_s) + typical(loop.run_s)
    passes = len(loop.walls[False])
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "wall_s": (loop.typical(False), "s", passes),
        "job_p50_ms": (statistics.median(job_ms), "ms", len(job_ms)),
        "job_p90_ms": (percentile(job_ms, 90), "ms", len(job_ms)),
        "steps_per_s": (loop.work["steps"] / busy if busy else 0.0, "1/s", passes),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }


def per_layer(loop: Loop) -> dict:
    tracer = loop.tracer
    passes = len(loop.walls[True])
    out = {}
    for layer in LAYERS:
        out[f"{layer}_s"] = (loop.layer_s[layer] / passes, "s", passes)
        out[f"{layer}_calls"] = (tracer.calls[layer] / passes, "count", passes)
    key_calls = tracer.calls["explorer.state_key"]
    c = loop.counts
    out["explorer.key_bytes_mean"] = (
        tracer.size["explorer.state_key"] / key_calls if key_calls else 0.0, "bytes", key_calls)
    out["explorer.graph_bytes"] = (tracer.size["explorer.to_json"] / passes, "bytes", passes)
    out["scheduler.trace_bytes"] = (tracer.size["scheduler.to_jsonl"] / passes, "bytes", passes)
    out["model.clones_per_state"] = (
        tracer.calls["model.clone"] / passes / c["states"] if c["states"] else 0.0, "ratio", passes)
    out["explorer.states"] = (c["states"], "count", 1)
    out["explorer.edges"] = (c["edges"], "count", 1)
    out["explorer.dedup_ratio"] = (c["revisits"] / c["edges"] if c["edges"] else 0.0, "ratio", 1)
    out["explorer.error_branches"] = (c["error_branches"], "count", 1)
    out["scheduler.steps"] = (c["steps"], "count", 1)
    out["scheduler.purged"] = (c["purged"], "count", 1)
    out["tracing.overhead_pct"] = (100 * (loop.typical(True) / loop.typical(False) - 1), "%",
                                   passes)
    return out


def report(args, loop: Loop, metrics: dict, elapsed: float) -> None:
    err = sys.stderr
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {loop.passes}  "
          f"jobs/pass {len(loop.jobs)}  measured {elapsed:.1f} s", file=err)
    print(f"python {platform.python_version()}  nproc {len(os.sched_getaffinity(0))}"
          f"  closed loop, 1 caller", file=err)
    for traced in (False, True):
        if loop.walls[traced]:
            print(f"  {'traced' if traced else 'untraced'} pass job time, scaled (host) s: "
                  + " ".join(f"{w:.3f} ({h:.3f})" for w, h in
                             zip(loop.walls[traced], loop.host_walls[traced])), file=err)
    factors = loop.host.factors
    print(f"  host slowdown: median {statistics.median(factors):.3f}  "
          f"min {min(factors):.3f}  max {max(factors):.3f}  n={len(factors)}", file=err)
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:34s} {value:14.6f} {unit:6s} n={samples}", file=err)
    if loop.tracer is not None and loop.tracer.absent:
        print("  absent layers: " + ", ".join(loop.tracer.absent), file=err)
    if metrics and not args.trace and loop.counts["states"]:
        print(f"  {'states_per_s':34s} {loop.counts['states'] / typical(loop.explore_s):14.6f} 1/s",
              file=err)
    if metrics and not args.trace and loop.work["runs"]:
        print(f"  {'runs_per_s':34s} {loop.work['runs'] / loop.typical(False):14.6f} 1/s",
              file=err)
    ratio = loop.failed / loop.attempted if loop.attempted else 0.0
    print(f"  failed_ratio {ratio:.6f} ({loop.failed}/{loop.attempted})", file=err)
    for problem in loop.problems:
        print(f"  FAILED {problem}", file=err)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--pin", action="store_true",
                        help="run one pass and record its digests as the pinned outputs")
    args = parser.parse_args(argv)

    _soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = MEMORY_LIMIT if hard == resource.RLIM_INFINITY else min(MEMORY_LIMIT, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    if args.setup_probe:
        print(f"{setup_probe(args.workload):.9f}")
        return 0

    host = HostSpeed()
    try:
        return measure(args, host)
    finally:
        host.close()


def measure(args, host: HostSpeed) -> int:
    setup = [] if args.pin else measure_setup(args.workload, host)
    api = import_program()
    workload = WORKLOADS[args.workload](api)
    jobs = workload.jobs(args.seed)
    tracer = Tracer(vars(api)) if args.trace else None
    loop = Loop(workload, jobs, tracer, host, args.seed)

    start = time.perf_counter()
    while loop.passes < (2 if args.trace else 1) or time.perf_counter() - start < args.seconds:
        traced = bool(args.trace) and len(loop.walls[False]) > len(loop.walls[True])
        loop.one_pass(traced)
        if args.pin:
            break
    elapsed = time.perf_counter() - start

    if args.pin:
        return pin(workload, args.seed, loop)
    if not loop.samples[False] or (args.trace and not loop.samples[True]):
        report(args, loop, {}, elapsed)  # every job failed: nothing to measure
        return 1
    # Metrics first: the pinned check below must not move peak memory.
    metrics = per_layer(loop) if args.trace else end_to_end(loop, setup)
    loop.check_pins(load_pins(workload), args.seed)
    report(args, loop, metrics, elapsed)
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _n) in metrics.items()},
    }))
    return 0 if loop.failed == 0 else 1


def pin(workload, seed: int, loop: Loop) -> int:
    if loop.failed:
        print("\n".join(loop.problems), file=sys.stderr)
        return 1
    path = HERE / "expected.json"
    pins = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    pins[workload.name] = {"seed": seed if workload.seeded else None,
                           "corpus": workload.corpus_digest(loop.jobs),
                           "jobs": loop.first_digests}
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {len(loop.first_digests)} job digest(s) for {workload.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
