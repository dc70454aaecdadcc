"""Self-tests of the benchmark: tiny runs of each workload, the traced
pass, and negative controls the output checks must reject.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {"family-csv": {"n": 6}, "custom-mesh": {"n": 5}, "verify-paper": {}}


@pytest.fixture
def out_dir(request):
    path = run.RUN_DIR / "selftest" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def tiny(workload, out_dir, seed=workloads.DEFAULT_SEED):
    return workloads.GENERATORS[workload](seed, out_dir, **TINY[workload])


def produce(inv, out_dir):
    """Run the invocation in-process; return its captured stdout."""
    stdout = out_dir / "stdout.txt"
    rc, _, log = run._run_in_process(inv, stdout)
    assert rc == 0, log
    return stdout.read_text()


def test_generators_are_deterministic():
    assert workloads.DEFAULT_SEED != workloads.HELD_OUT_SEED
    for workload in ("family-csv", "custom-mesh"):
        gen = workloads.GENERATORS[workload]
        first = gen(3, Path("out"))
        assert gen(3, Path("out")) == first
        assert gen(4, Path("out")).argv != first.argv


@pytest.mark.parametrize("workload", sorted(TINY))
def test_workload_runs_and_passes_its_checks(workload, out_dir):
    judge, metrics, stats, _ = run.measure_cli(tiny(workload, out_dir), 0.0,
                                               out_dir)
    assert judge.failed == 0, judge.problems
    # warm-up probe, then probes and one invocation per round
    assert judge.attempted == 1 + (run.PROBES_PER_ROUND + 1) * run.MIN_ROUNDS
    assert metrics["success_ratio"] == 1.0
    # On a tiny grid the evaluation is lost in start-up noise, so the
    # rate is not checked here.
    assert metrics["wall_s"] > 0.0 and metrics["setup_s"] > 0.0
    assert metrics["peak_rss_mb"] > 0.0
    assert stats["wall_measured_s"]["n"] == run.MIN_ROUNDS


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_pass(workload, out_dir):
    judge, m, _, tracer = run.measure_traced(tiny(workload, out_dir), 0.0,
                                             out_dir)
    assert judge.failed == 0, judge.problems
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {d["name"] for d in declared["per_layer"]} == set(m)
    assert all(s is not None for s in tracer.spans)
    assert m["cli.parse_s"] > 0.0 and m["trace_overhead"] > 0.0
    assert m["jets.jet2_per_point"] > 0.0
    if workload == "family-csv":
        assert m["surface.point_data.self_s"] > 0.0
        assert m["meridian.frame.self_s"] > 0.0
        assert m["surface.point_data.calls"] == 36
        assert m["exporters.bytes_written"] > 0
    if workload == "custom-mesh":
        assert m["surface.point_data.calls"] == 0
        assert m["surface.jet_eval_surface.calls_per_point"] == 2.0
        assert m["expr.profile_calls"] > 0
    if workload == "verify-paper":
        assert m["exporters.bytes_written"] == 0
        assert m["verify.claims_passed"] == 10
        assert all(m[f"verify.{c}.s"] > 0.0 for c in workloads.PAPER_CLAIMS)


def test_wrappers_are_removed_after_a_pass(out_dir):
    from minksurf import cli, surface
    before = (cli.build_parser, surface.jet_eval_surface)
    run.measure_traced(tiny("custom-mesh", out_dir), 0.0, out_dir)
    assert (cli.build_parser, surface.jet_eval_surface) == before


def test_unpaired_certificates_leave_the_claims_unmeasured():
    from types import SimpleNamespace
    tracer = spans.Tracer()
    tracer.spans = [("verify.certificate", 0.0, 1.0, -1)]
    tracer.reports = [SimpleNamespace(claim_id=c, passed=True)
                      for c in workloads.PAPER_CLAIMS[:2]]
    m = spans.layer_metrics(tracer, 1, 0, workloads.PAPER_CLAIMS)
    assert not any(f"verify.{c}.s" in m for c in workloads.PAPER_CLAIMS)
    tracer.reports = None
    tracer.spans = []
    m = spans.layer_metrics(tracer, 1, 0, workloads.PAPER_CLAIMS)
    assert all(m[f"verify.{c}.s"] == 0.0 for c in workloads.PAPER_CLAIMS)


def test_rejects_a_perturbed_invariant(out_dir):
    inv = tiny("family-csv", out_dir)
    stdout = produce(inv, out_dir)
    assert workloads.check_family_csv(inv, stdout).problems == []
    lines = inv.outputs[0].read_text().splitlines()
    row = lines[1].split(",")
    k = workloads.CSV_HEADER.split(",").index("K")
    row[k] = repr(float(row[k]) * (1.0 + 1e-6) + 1e-6)
    lines[1] = ",".join(row)
    inv.outputs[0].write_text("\n".join(lines) + "\n")
    problems = workloads.check_family_csv(inv, stdout).problems
    assert problems and "K=" in problems[0]


def test_rejects_a_truncated_obj(out_dir):
    inv = tiny("custom-mesh", out_dir)
    stdout = produce(inv, out_dir)
    assert workloads.check_custom_mesh(inv, stdout).problems == []
    obj = inv.outputs[1]
    obj.write_bytes(obj.read_bytes()[:-20])
    assert workloads.check_custom_mesh(inv, stdout).problems


def test_rejects_a_failed_claim(out_dir):
    inv = tiny("verify-paper", out_dir)
    stdout = produce(inv, out_dir)
    assert workloads.check_verify_paper(inv, stdout).problems == []
    failed = re.sub(r"passed 10 of 10", "passed 9 of 10",
                    stdout.replace("passed: True", "passed: False", 1))
    assert len(workloads.check_verify_paper(inv, failed).problems) == 2


def test_judge_rejects_exit_codes_and_changed_bytes(out_dir):
    inv = tiny("custom-mesh", out_dir)
    produce(inv, out_dir)
    judge = run.Judge(inv, out_dir / "stdout.txt")
    assert judge.outputs(0, "")
    assert not judge.outputs(1, "claim failed")
    with open(inv.outputs[0], "a") as fh:
        fh.write("\n")
    assert not judge.outputs(0, "")
    assert (judge.attempted, judge.failed) == (3, 2)


def test_fails_without_the_program(out_dir):
    shutil.copy(run.ROOT / "BENCHMARK.json", out_dir)
    shutil.copytree(HERE, out_dir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "family-csv",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=out_dir, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
