"""The minksurf benchmark: one command, three workloads, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload family-csv --seed 1 --seconds 30 --trace 0

``--trace 0`` times fresh ``python3 -m minksurf.cli`` child processes, one
at a time, each after set-up probes (``probe.py``), with references that
measure the host's speed next to them, and prints the end-to-end
metrics.  ``--trace 1`` runs the same invocation in this process, once
with construction counters, then untraced and traced in turn, and
prints the per-layer metrics.  Every output is checked; the
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A record with the samples,
the generated argv, the seed and the environment is written to
``.perfbench-run/`` in the checkout.  The exit code is 0 when every output
was correct, 1 when one was not and 2 when the checkout has no program.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench-run"

MIN_ROUNDS = 3
# Set-up probes are short, so a round runs several: more samples for the
# median at little cost.
PROBES_PER_ROUND = 2
# The host's speed is measured right before each invocation by a fixed
# pure-Python loop, repeated this many times (about 0.13 s in all), and
# right before each probe by a fresh interpreter that imports what the
# CLI imports at start-up, minksurf aside.
REFERENCE_REPEATS = 20
STARTUP_REFERENCE = "import argparse, dataclasses, numpy"
# Their times on a quiet host (a 2-core Xeon VM, Python 3.11): timings
# are reported at this speed.
REFERENCE_S = 0.0065
STARTUP_REFERENCE_S = 0.12
MAX_ROUNDS = 60
CHILD_TIMEOUT_S = 120.0


@dataclass
class Judge:
    """Checks each invocation's outputs: fully the first time, then by
    sha256 against the first (identical inputs give identical bytes)."""

    inv: workloads.Invocation
    stdout_path: Path
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: list | None = None
    points: int = 0

    def record(self, ok: bool, problems=()) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.extend(problems)
        return ok

    def outputs(self, rc: int, log: str) -> bool:
        if rc != 0:
            return self.record(False, [f"exit code {rc}: {log[-400:]}"])
        try:
            got = workloads.digests((*self.inv.outputs, self.stdout_path))
        except OSError as exc:
            return self.record(False, [f"missing output: {exc}"])
        if self.digests is None:
            stdout = self.stdout_path.read_text()
            check = workloads.CHECKERS[self.inv.workload](self.inv, stdout)
            self.digests, self.points = got, check.points
            return self.record(not check.problems, check.problems)
        return self.record(got == self.digests,
                           ["output bytes differ from the first run"])


@dataclass
class ChildRun:
    rc: int
    wall: float
    maxrss_kb: int
    log: str


def run_child(cmd, env, stdout_path: Path, log_path: Path) -> ChildRun:
    """Run one child to completion; wall time and its own peak RSS."""
    with open(stdout_path, "wb") as out, open(log_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        reaped = False

        def on_alarm(signum, frame):
            if not reaped:
                proc.kill()

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
        try:
            # wait4 gives this child's own rusage; RUSAGE_CHILDREN would
            # report the largest RSS of all children so far.
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, wall, usage.ru_maxrss,
                    log_path.read_text(errors="replace"))


def describe(values: list[float]) -> dict:
    """Best, median, sample count and the highest percentile with at least
    ten samples beyond it (None below eleven samples)."""
    xs = sorted(values)
    n = len(xs)
    tail = None
    if n >= 11:
        tail = {"percentile": 100.0 * (n - 10) / n, "value": xs[n - 11]}
    return {"best": xs[0] if xs else None,
            "median": statistics.median(xs) if xs else None, "n": n,
            "tail": tail, "samples": values}


def reference_time() -> float:
    """Mean time of one repeat of a fixed pure-Python loop of float
    arithmetic and dict stores, the kind of work the program's inner loops
    do.  It does not touch minksurf, so no change to the program moves it."""
    start = time.perf_counter()
    for _ in range(REFERENCE_REPEATS):
        acc, table = 0.0, {}
        for i in range(40000):
            x = i * 0.5
            acc += (x * x + 1.0) ** 0.5
            table[i & 255] = (acc, x)
    return (time.perf_counter() - start) / REFERENCE_REPEATS


def _stop(rounds: int, round_start: float, deadline: float,
          min_rounds: int) -> bool:
    now = time.perf_counter()
    return rounds >= MAX_ROUNDS or (
        rounds >= min_rounds and now + (now - round_start) > deadline)


def measure_cli(inv: workloads.Invocation, seconds: float, out_dir: Path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cli_cmd = [sys.executable, "-m", "minksurf.cli", *inv.argv]
    probe_cmd = [sys.executable, str(HERE / "probe.py"), *inv.argv]
    startup_cmd = [sys.executable, "-c", STARTUP_REFERENCE]
    stdout_path, log = out_dir / "stdout.txt", out_dir / "stderr.txt"
    probe_out = out_dir / "probe.txt"
    judge = Judge(inv, stdout_path)
    walls, evals, refs, rss = [], [], [], []
    setup_walls, setups = [], []
    deadline = time.perf_counter() + seconds

    # The first import compiles bytecode, which a user pays once per
    # install, not per invocation: this untimed probe takes it out.
    warm = run_child(probe_cmd, env, probe_out, log)
    judge.record(warm.rc == 0, [f"set-up probe exit {warm.rc}: {warm.log}"])
    rounds = 0
    while not judge.failed:
        round_start = time.perf_counter()
        probes = []
        for _ in range(PROBES_PER_ROUND):
            ref = run_child(startup_cmd, env, probe_out, log)
            if ref.rc != 0:
                raise RuntimeError(f"start-up reference failed: {ref.log}")
            p = run_child(probe_cmd, env, probe_out, log)
            if judge.record(p.rc == 0,
                            [f"set-up probe exit {p.rc}: {p.log}"]):
                probes.append(p.wall)
                setup_walls.append(p.wall)
                setups.append(p.wall * STARTUP_REFERENCE_S / ref.wall)
        ref = reference_time()
        c = run_child(cli_cmd, env, stdout_path, log)
        if judge.outputs(c.rc, c.log) and probes:
            walls.append(c.wall)
            evals.append(c.wall - statistics.fmean(probes))
            refs.append(ref)
            rss.append(c.maxrss_kb / 1024.0)
        rounds += 1
        if _stop(rounds, round_start, deadline, MIN_ROUNDS):
            break

    # Contention from other tenants of a shared host slows the processor
    # by up to 2x, in phases of seconds to minutes, so timings are scaled
    # by the host speed that references measured next to them.  A probe is
    # scaled by its own start-up reference and setup_s is the median.  An
    # invocation is too long for one reference to match its load, so the
    # run's invocations are scaled together: their mean time over the mean
    # of the loops timed before them.  A round's evaluation time is its
    # invocation minus its probes.
    stats = {"wall_measured_s": describe(walls), "eval_measured_s":
             describe(evals), "reference_s": describe(refs),
             "setup_s": describe(setups),
             "setup_measured_s": describe(setup_walls),
             "peak_rss_mb": describe(rss)}
    metrics = {}
    if walls and setups:
        scale = REFERENCE_S / statistics.fmean(refs)
        metrics = {"wall_s": statistics.fmean(walls) * scale,
                   "setup_s": stats["setup_s"]["median"],
                   "eval_points_per_s":
                       judge.points / (statistics.fmean(evals) * scale),
                   "peak_rss_mb": stats["peak_rss_mb"]["median"]}
    metrics["success_ratio"] = 1.0 - judge.failed / judge.attempted
    return judge, metrics, stats, None


def _run_in_process(inv, stdout_path: Path, replacements=(),
                    tracer: spans.Tracer | None = None):
    from minksurf.cli import run_cli
    run = tracer.span("cli.run", run_cli) if tracer else run_cli
    out, err = io.StringIO(), io.StringIO()
    with spans.installed(replacements), redirect_stdout(out), \
            redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = run(list(inv.argv))
        except Exception:
            # A crash in the program is a failed invocation, as it would
            # be in a child process: keep the traceback and go on.
            traceback.print_exc()
            rc = 1
        elapsed = time.perf_counter() - start
    stdout_path.write_text(out.getvalue())
    return rc, elapsed, err.getvalue()


def measure_traced(inv: workloads.Invocation, seconds: float, out_dir: Path):
    stdout_path = out_dir / "stdout.txt"
    judge = Judge(inv, stdout_path)
    plain, traced, layers = [], [], []
    tracer = None
    deadline = time.perf_counter() + seconds
    counter = spans.Tracer()
    rc, _, log = _run_in_process(inv, stdout_path,
                                 spans.construction_counters(counter))
    judge.outputs(rc, log)
    rounds = 0
    while not judge.failed:
        round_start = time.perf_counter()
        rc, elapsed, log = _run_in_process(inv, stdout_path)
        if judge.outputs(rc, log):
            plain.append(elapsed)
        tracer = spans.Tracer()
        rc, elapsed, log = _run_in_process(
            inv, stdout_path, spans.layer_wrappers(tracer), tracer)
        if judge.outputs(rc, log):
            traced.append(elapsed)
            written = sum(path.stat().st_size for path in inv.outputs)
            layers.append(spans.layer_metrics(tracer, judge.points, written,
                                              workloads.PAPER_CLAIMS))
        rounds += 1
        if _stop(rounds, round_start, deadline, 1):
            break

    metrics = {}
    if layers and not judge.failed:
        # median_low: a value one pass measured, and counts stay whole.
        metrics = {name: statistics.median_low(m[name] for m in layers)
                   for name in layers[0]}
        metrics["jets.jet2_per_point"] = (counter.counts["jets.Jet2"]
                                          / judge.points)
        metrics["minkowski.vec4m_per_point"] = (
            counter.counts["minkowski.Vec4M"] / judge.points)
        metrics["trace_overhead"] = (statistics.median(traced)
                                     / statistics.median(plain))
    stats = {"untraced_s": describe(plain), "traced_s": describe(traced)}
    return judge, metrics, stats, tracer


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    try:
        # The ceiling keeps git from looking above the checkout.
        got = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, env=dict(os.environ,
                                GIT_CEILING_DIRECTORIES=str(root.parent)))
    except OSError:
        return None
    return got.stdout.strip() if got.returncode == 0 else None


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def environment() -> dict:
    """What the numbers were measured on; everything here is read only."""
    import numpy
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), None)
    return {"git_sha": git_sha(ROOT), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": model,
            "loadavg_start": (_read("/proc/loadavg") or "").strip()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if not (SRC / "minksurf" / "cli.py").is_file():
        print(f"error: no program at {SRC / 'minksurf'}; run the benchmark "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import minksurf
    if Path(minksurf.__file__).resolve().parent != SRC / "minksurf":
        print(f"error: imported minksurf from {minksurf.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    env = environment()
    out_dir = RUN_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    inv = workloads.GENERATORS[args.workload](args.seed, out_dir)
    measure = measure_traced if args.trace else measure_cli
    judge, metrics, stats, tracer = measure(inv, args.seconds, out_dir)
    env["loadavg_end"] = (_read("/proc/loadavg") or "").strip()
    shutil.rmtree(out_dir)

    # BENCHMARK.json names the metrics each mode prints.
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(units) - set(metrics))
    if missing and not judge.problems:
        judge.problems.append(f"not measured: {missing}")
    correct = judge.failed == 0 and not missing
    record = {"workload": args.workload, "seed": args.seed,
              "argv": ["minksurf", *inv.argv], "draws": inv.draws,
              "params": inv.params, "seconds": args.seconds,
              "trace": args.trace, "environment": env,
              "output_sha256": judge.digests, "points": judge.points,
              "problems": judge.problems, "stats": stats, "metrics": metrics}
    RUN_DIR.mkdir(exist_ok=True)
    stem = RUN_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        with open(f"{stem}.spans.json", "w") as fh:
            json.dump(tracer.spans, fh)

    print(f"workload {args.workload}, seed {args.seed}: "
          f"{shlex.join(record['argv'])}")
    for problem in judge.problems:
        print(f"FAILED: {problem}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units.get(name, '?')}")
    for name, s in stats.items():
        tail = (f"p{s['tail']['percentile']:.0f} {s['tail']['value']!r}"
                if s["tail"] else "no percentile with 10 samples beyond")
        print(f"  {name}: {s['n']} samples, best {s['best']!r}, "
              f"median {s['median']!r}, {tail}")
    print(json.dumps({
        "correct": correct, "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
