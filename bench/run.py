"""Pinned benchmark for quadmod.

    python3 bench/run.py --workload tower_deep --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --smoke

One process, one client, closed loop: the jobs of a workload run one after
another, round robin, in-process through quadmod.cli.main, until the next
job would overrun --seconds.  Every report is checked against
bench/pins.json.  With --trace 0 the last stdout line carries the
end-to-end metrics, with --trace 1 the per-layer metrics of a separate
traced run.  End-to-end times are rescaled to a fixed host speed, gauged
while each job and set-up probe runs (bench/hostspeed.py); the wall times
are printed and kept in the results file.  --smoke runs one short job per
workload, prints every metric name with its unit, and exits 1 on any pin
mismatch.

The program is imported from src/ of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
PINS = BENCH / "pins.json"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 11
END_TO_END_UNITS = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def cap_blas_threads() -> dict:
    """Cap every BLAS pool at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    settings = {}
    for var in BLAS_VARS:
        try:
            value = min(int(os.environ.get(var, nproc)), nproc)
        except ValueError:
            value = nproc
        os.environ[var] = str(max(value, 1))
        settings[var] = os.environ[var]
    return {"nproc": nproc, "blas_threads": settings}


def import_program():
    """Put the checkout's src/ first on the path, or stop."""
    if not (ROOT / "src" / "quadmod" / "__init__.py").is_file():
        sys.exit(f"error: no quadmod sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401  (after the thread cap)
    import quadmod  # noqa: F401


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(threads: dict, seed: int) -> dict:
    import numpy
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "seed": seed, "clients": 1, **threads}


def setup(jobs, seed: int) -> list:
    from workloads import write_inputs
    return write_inputs(jobs, seed, WORK / "inputs")


def setup_seconds(workload: str, seed: int, probes: int = SETUP_PROBES) -> tuple:
    """Wall time of fresh interpreters that import quadmod and write the
    workload's inputs: the set-up a run does before its first timed job.
    Returns the wall times and the same rescaled by each probe's gauge."""
    from hostspeed import rescale
    walls, scaled = [], []
    for _ in range(probes):
        start = time.perf_counter()
        # No timeout: with one, wait() polls in 50 ms steps and the times
        # come out quantised.
        probe = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                "--setup-probe", "--workload", workload, "--seed", str(seed)],
                               check=True, stdout=subprocess.PIPE, text=True)
        walls.append(time.perf_counter() - start)
        gauge = json.loads(probe.stdout.splitlines()[-1])
        scaled.append(rescale(walls[-1], gauge["handler_s"], gauge["samples"]))
    return walls, scaled


def setup_probe(workload: str, seed: int) -> None:
    """The set-up of one run, under a gauge started before quadmod and
    numpy are imported; prints the gauge's samples."""
    from hostspeed import Gauge
    with Gauge() as gauge:
        import_program()
        from workloads import WORKLOADS
        setup(WORKLOADS[workload], seed)
    print(json.dumps({"handler_s": gauge.handler_s, "samples": gauge.samples}))


# -- passes ------------------------------------------------------------


def gauged_run(gate, job, argv) -> tuple:
    """Wall seconds of one job and the same rescaled to the gauge's speed."""
    from hostspeed import Gauge
    gauge = Gauge()
    wall = gate.run(job, argv, gauge)
    return wall, gauge.rescale(wall)


class Gate:
    """Counts attempted and failed jobs; remembers the first failure."""

    def __init__(self, pins: dict):
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.first = None

    def run(self, job, argv, gauge=None) -> float:
        """Run and check one job; returns its wall seconds.  A gauge, when
        given, samples the host's speed while the program runs, and not
        while its output is checked."""
        from workloads import check_job, run_job
        with gauge or contextlib.nullcontext():
            seconds, code, stdout, error = run_job(argv)
        self.attempted += 1
        problem = check_job(job.name, code, stdout, error, self.pins)
        if problem is not None:
            self.failed += 1
            if self.first is None:
                self.first = f"{job.name}: {problem}"
                print(f"MISMATCH {self.first}", flush=True)
        return seconds

    def one_pass(self, jobs, argvs) -> float:
        return sum(self.run(job, argv) for job, argv in zip(jobs, argvs))


def traced_pass(gate, jobs, argvs, keep_spans: bool):
    from tracer import Tracer
    tracer = Tracer(keep_spans=keep_spans)
    tracer.install()
    try:
        seconds = gate.one_pass(jobs, argvs)
    finally:
        tracer.uninstall()
    return seconds, tracer


def job_times(jobs, argvs, gate, seconds: float) -> tuple:
    """Wall and rescaled seconds of each job, run round robin until the next
    job would overrun the time budget; every job runs at least once."""
    walls, scaled = [[] for _ in jobs], [[] for _ in jobs]
    start = time.perf_counter()
    for j in itertools.cycle(range(len(jobs))):
        if walls[j] and time.perf_counter() - start + walls[j][-1] > seconds:
            return walls, scaled
        wall, rescaled = gauged_run(gate, jobs[j], argvs[j])
        walls[j].append(wall)
        scaled[j].append(rescaled)


def traced_passes(jobs, argvs, gate, seconds: float) -> dict:
    """Untraced and traced passes alternate, so the tracing overhead is read
    from the same run; stops before the next pair would overrun."""
    untraced, traced, layers, spans = [], [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(gate.one_pass(jobs, argvs))
        took, tracer = traced_pass(gate, jobs, argvs, keep_spans=not layers)
        traced.append(took)
        layers.append(tracer.metrics())
        spans = spans or tracer.spans_as_json()
        if time.perf_counter() - start + untraced[-1] + traced[-1] > seconds:
            return {"untraced": untraced, "traced": traced, "layers": layers,
                    "spans": spans}


def layer_metrics(result: dict) -> dict:
    """Counts from the first traced pass, times as medians over passes."""
    from tracer import OVERHEAD, is_count, metric_units
    first = result["layers"][0]
    units = metric_units()
    out = {}
    for name, unit in units.items():
        if name == OVERHEAD:
            value = (statistics.median(result["traced"])
                     - statistics.median(result["untraced"]))
        elif is_count(name):
            value = first[name]
            if any(p[name] != value for p in result["layers"][1:]):
                print(f"note: {name} differs between traced passes", flush=True)
        else:
            value = statistics.median(p[name] for p in result["layers"])
        out[name] = {"value": value, "unit": unit}
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_json(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data) + "\n")


# -- modes -------------------------------------------------------------


def run_workload(args, threads: dict, pins: dict) -> int:
    from workloads import WORKLOADS
    jobs = WORKLOADS[args.workload]
    env = environment(threads, args.seed)
    setup_walls, setup_times = setup_seconds(args.workload, args.seed)
    argvs = setup(jobs, args.seed)
    gate = Gate(pins)
    record = {"workload": args.workload, "trace": args.trace, "env": env,
              "setup_wall_s": setup_walls, "setup_s": setup_times}
    if args.trace:
        result = traced_passes(jobs, argvs, gate, args.seconds)
        metrics = layer_metrics(result)
        write_json(WORK / f"spans-{args.workload}-seed{args.seed}.json", result["spans"])
        record.update(pass_s=result["untraced"], traced_pass_s=result["traced"])
        summary = f"{len(result['traced'])} traced passes"
    else:
        walls, times = job_times(jobs, argvs, gate, args.seconds)
        metrics = {
            # one pass is one run of every job: the sum of per-job medians
            "pass_s": sum(statistics.median(t) for t in times),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        record.update(job_wall_s={job.name: t for job, t in zip(jobs, walls)},
                      job_s={job.name: t for job, t in zip(jobs, times)})
        summary = (f"{min(len(t) for t in times)} passes, wall pass "
                   f"{sum(statistics.median(t) for t in walls):.3f} s, "
                   f"wall setup {statistics.median(setup_walls):.3f} s")
    fail_ratio = gate.failed / gate.attempted
    record.update(fail_ratio=fail_ratio, metrics=metrics)
    write_json(WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
               record)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"{args.workload}: {summary}, "
          f"fail_ratio {fail_ratio:.4f} ({gate.failed}/{gate.attempted})")
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


def run_smoke(args, threads: dict, pins: dict) -> int:
    from tracer import metric_units
    from workloads import SMOKE
    print("env " + json.dumps(environment(threads, args.seed), sort_keys=True))
    gate = Gate(pins)
    for workload, jobs in SMOKE.items():
        argvs = setup(jobs, args.seed)
        walls, scaled = zip(*(gauged_run(gate, job, argv) for job, argv in zip(jobs, argvs)))
        traced_s, tracer = traced_pass(gate, jobs, argvs, keep_spans=False)
        values = {"pass_s": sum(scaled),
                  "setup_s": setup_seconds(workload, args.seed, 1)[1][0],
                  "peak_rss_mb": peak_rss_mb(), **tracer.metrics(),
                  "trace.overhead_s": traced_s - sum(walls)}
        units = {**END_TO_END_UNITS, **metric_units()}
        for name, unit in units.items():
            print(f"metric {workload} {name} {values[name]!r} {unit}")
    print(f"smoke: {gate.attempted} jobs, {gate.failed} failed")
    return 1 if gate.failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("tower_deep", "ktheory_wide", "perm_small"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    threads = cap_blas_threads()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    import_program()
    pins = json.loads(PINS.read_text())
    if args.smoke:
        return run_smoke(args, threads, pins)
    return run_workload(args, threads, pins)


if __name__ == "__main__":
    sys.exit(main())
