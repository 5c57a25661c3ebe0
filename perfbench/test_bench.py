"""Self-tests of the benchmark itself.

    python3 -m pytest perfbench/test_bench.py

They run a few real ops (a few seconds in all) against the recorded
references, then corrupt the outputs to show the checker notices.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import check
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def refs():
    return json.loads(run.REFERENCE.read_text())


@pytest.fixture
def runner(tmp_path):
    return run.Runner(ROOT, tmp_path)


def _op(workload, seed, name):
    return next(op for op in workloads.op_list(workload, seed) if op.name == name)


def _run(runner, op, tmp_path):
    pass_dir = tmp_path / "pass"
    pass_dir.mkdir(exist_ok=True)
    return runner.run_op(op, pass_dir, traced=False)


def _check(r, refs):
    return check.check_op(r.op, r.code, r.stderr, r.out, refs)


def test_same_seed_gives_byte_identical_op_lists():
    script = (
        "import sys, workloads; "
        "sys.stdout.buffer.write(b''.join(workloads.op_list_bytes(w, s) "
        "for w in workloads.WORKLOADS for s in (0, 5, 1234)))"
    )
    outputs = []
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        outputs.append(subprocess.run(
            [sys.executable, "-c", script], cwd=run.HERE, env=env,
            capture_output=True, check=True,
        ).stdout)
    assert outputs[0] == outputs[1]
    local = b"".join(workloads.op_list_bytes(w, s)
                     for w in workloads.WORKLOADS for s in (0, 5, 1234))
    assert local == outputs[0]
    for w in ("corr_scan", "sweep_grid"):
        assert workloads.op_list_bytes(w, 0) != workloads.op_list_bytes(w, 1)


def test_checker_accepts_then_flags_a_corrupted_report(runner, refs, tmp_path):
    r = _run(runner, _op("corr_scan", 3, "z48_sign_lemma"), tmp_path)
    assert _check(r, refs).status == "ok"
    body = json.loads(r.out.read_text())
    body["analyses"][0]["items"][0]["empirical"] += 1
    r.out.write_text(json.dumps(body))
    outcome = _check(r, refs)
    assert outcome.status == "failed"
    assert "differs from the reference" in outcome.detail


def test_checker_flags_a_wrong_witness_and_a_wrong_value(runner, refs, tmp_path):
    r = _run(runner, _op("corr_scan", 3, "qr1009_k3_sampled"), tmp_path)
    assert _check(r, refs).status == "ok"
    good = json.loads(r.out.read_text())

    bad = dict(good, window=good["window"] - 1 if good["window"] > 1 else 2)
    r.out.write_text(json.dumps(bad))
    outcome = _check(r, refs)
    assert outcome.status == "failed" and "witness" in outcome.detail

    bad = dict(good, value={"num": good["value"]["num"] + 1, "den": good["value"]["den"]})
    r.out.write_text(json.dumps(bad))
    assert _check(r, refs).status == "failed"

    r.out.unlink()
    assert _check(r, refs).status == "failed"


def test_checker_flags_a_refusal_as_refused(runner, refs, tmp_path):
    r = _run(runner, _op("corr_scan", 0, "readme_experiment"), tmp_path)
    assert r.code == 2
    outcome = _check(r, refs)
    assert outcome.status == "refused" and outcome.expected

    # A refusal of an op that completes at the seed commit is unexpected.
    op = _op("corr_scan", 0, "qr401_k2")
    message = "error: correlation_exact(q=401, k=2) needs ~32160200 products, budget is 10\n"
    outcome = check.check_op(op, 2, message, tmp_path / "missing.json", refs)
    assert outcome.status == "refused" and not outcome.expected

    # Exit 2 without the admission-control message is a failure.
    outcome = check.check_op(op, 2, "error: bad config\n", tmp_path / "missing.json", refs)
    assert outcome.status == "failed"


def test_reference_program_is_the_seed_commit_source():
    stored = json.loads(run.BASELINE.read_text())
    assert run.src_digest(run.SEED_SRC) == stored["source"]["src_sha256"]
    for workload in workloads.WORKLOADS:
        scale = stored["reference"][workload]
        names = {op.name for op in workloads.op_list(workload, 0)}
        assert set(scale["op_s"]) == names


def _timed(op, seed_src, spawn, setup_s, op_s):
    child = {"ready": spawn + setup_s}
    return run.OpRun(op, seed_src, 0, "", Path("x"), spawn, spawn + setup_s + op_s,
                     1024, child)


def test_timings_scale_the_ratio_to_the_reference_program():
    ops = workloads.op_list("verify_large", 0)
    scale = {"wall_s": 10.0, "setup_s": 0.5,
             "op_s": {op.name: i + 1.0 for i, op in enumerate(ops)}}
    passes = []
    for speed in (1.0, 1.3, 0.8):  # the machine's speed changes between passes
        p = run.PassRun(False)
        for op in ops:
            p.refs.append(_timed(op, True, 0.0, 0.2 * speed, 1.0 * speed))
            p.ops.append(_timed(op, False, 0.0, 0.1 * speed, 3.0 * speed))
        passes.append(p)
    m = run.end_to_end(passes, scale)
    assert m["wall_s"] == pytest.approx(10.0 * 3.1 / 1.2)
    assert m["setup_s"] == pytest.approx(0.25)
    assert m["op_s.max"] == pytest.approx(3.0 * len(ops))
    assert m["op_s.p50"] == pytest.approx(3.0 * (len(ops) + 1) / 2)
    assert m["peak_rss_mb"] == pytest.approx(1.0)
