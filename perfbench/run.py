"""zqlab benchmark: one workload, timed end to end, or traced by layer.

    python3 perfbench/run.py --workload verify_large --seed 0 --seconds 30 --trace 0

Run from the root of a zqlab checkout; the program is imported from its
`src/`.  Each op is a fresh `zqlab` process (see workloads.py); a pass
runs the workload's op list once, each op right beside a run of the same
op under the reference program in seed_src/.  Passes repeat while the
next one is expected to end within `--seconds`.  Every op's output is
checked (check.py).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones:
traced and untraced passes alternate, the traced ones give layer times
from spans (tracer.py), the untraced ones the tracing overhead.  The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --record   # rewrite reference.json (seed commit only)

See NOTES.md for the workloads, the metric definitions and the baseline.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import check
import workloads

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
# The reference program: src/ of the seed commit, kept unchanged.  Every
# untraced op also runs under it, right beside the program's own run.
SEED_SRC = HERE / "seed_src"
REFERENCE = HERE / "reference.json"
BASELINE = HERE / "baseline.json"

# A run ends at the last pass boundary before --seconds, after at least one
# pass (one untraced and one traced pass when traced).  It starts no pass
# it expects to end after RUN_LIMIT_S and kills any op still running at
# RUN_DEADLINE_S, so it exits well within three minutes.
RUN_LIMIT_S = 150.0
RUN_DEADLINE_S = 165.0

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("op_s.max", "s"),
    ("peak_rss_mb", "MB"),
)

KINDS = (
    "explicit", "quadratic_residues", "power_residues", "primitive_roots",
    "primitive_root_powers", "index_range", "poly_value_range", "inverse_range",
    "character_argument", "fermat_quotient_power_residues",
    "fermat_quotient_primitive_roots",
)

PER_LAYER = (
    ("numtheory.index_table.s", "s"),
    ("numtheory.index_table.builds", "count"),
    ("numtheory.index_table.hits", "count"),
    ("subsets.construct.s", "s"),
    ("subsets.construct.self_s", "s"),
    ("subsets.construct.elements", "count"),
    *((f"subsets.construct.{kind}.s", "s") for kind in KINDS),
    ("sequences.derive.s", "s"),
    ("sequences.derive.symbols", "count"),
    ("measures.count.s", "s"),
    ("measures.count.windows", "count"),
    ("measures.count.windows_per_s", "1/s"),
    ("measures.corr_exact.s", "s"),
    ("measures.corr_exact.calls", "count"),
    ("measures.corr_exact.refused", "count"),
    ("measures.corr.products", "count"),
    ("measures.corr.products_per_s", "1/s"),
    ("measures.corr.wasted_s", "s"),
    ("measures.corr_sampled.s", "s"),
    ("measures.corr_sampled.tuples", "count"),
    ("predictions.main_terms.s", "s"),
    ("predictions.main_terms.calls", "count"),
    ("predictions.allows.s", "s"),
    ("predictions.allows.calls", "count"),
    ("harness.run.self_s", "s"),
    ("harness.items", "count"),
    ("harness.serialize_s", "s"),
    ("harness.report_bytes", "B"),
    ("harness.sweep.self_s", "s"),
    ("harness.sweep.points", "count"),
    ("cli.self_s", "s"),
    ("process.setup_s", "s"),
    ("process.teardown_s", "s"),
    ("measured.wall_s", "s"),
    ("reference.wall_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.unaccounted_s", "s"),
    ("trace.overhead_s", "s"),
    # End-to-end figures that cannot carry a bound; see NOTES.md.
    ("op_s.p50", "s"),
    ("failed_frac", "frac"),
    ("refused_frac", "frac"),
)


# ----------------------------------------------------------------------
# Running ops.


@dataclass
class OpRun:
    op: workloads.Op
    seed_src: bool  # run under the reference program
    code: int
    stderr: str
    out: Path
    spawn: float
    exit: float
    rss_kb: int
    child: dict | None
    cpu_s: float = 0.0
    out_bytes: int = 0
    outcome: check.Outcome | None = None

    @property
    def ready(self) -> float:
        return self.child["ready"] if self.child else self.exit

    @property
    def wall_s(self) -> float:
        return self.exit - self.spawn

    @property
    def setup_s(self) -> float:
        return self.ready - self.spawn

    @property
    def op_s(self) -> float:
        return self.exit - self.ready


@dataclass
class PassRun:
    traced: bool
    ops: list = field(default_factory=list)
    refs: list = field(default_factory=list)  # the same ops, reference program

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.ops)

    @property
    def ref_wall_s(self) -> float:
        return sum(r.wall_s for r in self.refs)


def _tree_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    if path.is_dir():
        return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
    return 0


class Runner:
    """Runs ops as child processes under one working directory."""

    def __init__(self, root: Path, workdir: Path, deadline: float | None = None):
        self.root = root
        self.workdir = workdir
        self.deadline = deadline  # time.monotonic() at which ops are killed
        self.envs = {False: dict(os.environ, PYTHONPATH=str(root / "src")),
                     True: dict(os.environ, PYTHONPATH=str(SEED_SRC))}
        self.configs = workdir / "configs"
        self.configs.mkdir(parents=True, exist_ok=True)

    def config_path(self, op) -> Path:
        path = self.configs / f"{op.name}-{check.digest(op.config)[:16]}.json"
        if not path.exists():
            path.write_text(json.dumps(op.config, sort_keys=True))
        return path

    def run_op(self, op, pass_dir: Path, traced: bool, seed_src: bool = False) -> OpRun:
        stem = f"{op.name}.seed_src" if seed_src else op.name
        out = pass_dir / (stem if op.command == "sweep" else f"{stem}.json")
        result = pass_dir / f"{stem}.child.json"
        err_path = pass_dir / f"{stem}.stderr"
        cmd = [sys.executable, str(CHILD), str(result)]
        cmd += ["--trace"] if traced else []
        cmd += ["--", op.command, "--config", str(self.config_path(op)),
                "--out", str(out), *op.args]
        with err_path.open("w") as err:
            spawn = time.monotonic()
            proc = subprocess.Popen(cmd, env=self.envs[seed_src], cwd=self.root,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = None
            if self.deadline is not None:
                timer = threading.Timer(max(0.0, self.deadline - spawn), proc.kill)
                timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                if timer is not None:
                    timer.cancel()
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            child = json.loads(result.read_text())
        except (OSError, ValueError):
            child = None
        return OpRun(op, seed_src, proc.returncode, err_path.read_text(), out,
                     spawn, end, usage.ru_maxrss, child,
                     usage.ru_utime + usage.ru_stime, _tree_bytes(out))

    def run_pass(self, ops, index: int, traced: bool) -> PassRun:
        pass_dir = self.workdir / f"pass{index:03d}"
        pass_dir.mkdir()
        run = PassRun(traced)
        for i, op in enumerate(ops):
            if traced:
                run.ops.append(self.run_op(op, pass_dir, True))
                continue
            # The op runs under the program and under the reference program
            # back to back, each going first in turn, so both see the
            # machine at the same speed.
            ref_first = (index + i) % 2 == 1
            if ref_first:
                run.refs.append(self.run_op(op, pass_dir, False, seed_src=True))
            run.ops.append(self.run_op(op, pass_dir, False))
            if not ref_first:
                run.refs.append(self.run_op(op, pass_dir, False, seed_src=True))
        return run

    def prime(self) -> None:
        """Load the interpreter, numpy and both zqlabs into the page cache."""
        for env in self.envs.values():
            subprocess.run([sys.executable, "-c", "import zqlab.cli"], env=env,
                           cwd=self.root, check=True, stdout=subprocess.DEVNULL)


def check_pass(run: PassRun, refs: dict, root: Path, keep: Path) -> None:
    for r in run.ops + run.refs:
        r.outcome = check.check_op(r.op, r.code, r.stderr, r.out, refs)
        package = (SEED_SRC if r.seed_src else root / "src") / "zqlab"
        if r.child is not None and Path(
            r.child["zqlab_file"]
        ).resolve().parent != package.resolve():
            r.outcome = check.Outcome("failed", detail="zqlab imported from elsewhere")
    if all(r.outcome.status != "failed" for r in run.ops + run.refs):
        shutil.rmtree(run.ops[0].out.parent)
    else:
        keep.mkdir(parents=True, exist_ok=True)
        shutil.move(str(run.ops[0].out.parent), str(keep))


# ----------------------------------------------------------------------
# Metrics.


def end_to_end(passes: list, scale: dict) -> dict:
    """End-to-end metrics of the untraced passes.

    The host's speed drifts by about 20% over tens of seconds to minutes,
    which no run of a minute can average out.  So every op also runs under
    the reference program (the seed commit's src/, kept in seed_src/) right
    beside the program's own run, and each timing is reported as the
    program's time over the reference program's, times the reference
    program's recorded median (`scale`, from baseline.json).  At the seed
    commit the timings read their recorded medians; a program twice as
    fast reads half of them.

    wall_s scales the median over passes of the ratio of the passes' wall
    times (the sum of the ops' spawn-to-exit times).  setup_s scales the
    median over ops of the ratio of their set-up times.  op_s.p50 and
    op_s.max are the median and the largest over the op list of each op's
    scaled median ratio of op_s.  peak_rss_mb is measured as it is.
    """
    pairs = [(r, f) for p in passes for r, f in zip(p.ops, p.refs)]
    by_op = defaultdict(list)
    for r, f in pairs:
        by_op[r.op.name].append(r.op_s / f.op_s)
    op_s = [scale["op_s"][name] * statistics.median(ratios)
            for name, ratios in by_op.items()]
    return {
        "wall_s": scale["wall_s"] * statistics.median(p.wall_s / p.ref_wall_s
                                                      for p in passes),
        "setup_s": scale["setup_s"] * statistics.median(r.setup_s / f.setup_s
                                                        for r, f in pairs),
        "op_s.p50": statistics.median(op_s),
        "op_s.max": max(op_s),
        "peak_rss_mb": max(r.rss_kb for r, _ in pairs) / 1024.0,
        "measured.wall_s": statistics.median(p.wall_s for p in passes),
        "reference.wall_s": statistics.median(p.ref_wall_s for p in passes),
    }


def outcome_counts(passes: list) -> dict:
    ops = [r for p in passes for r in p.ops]
    statuses = [r.outcome.status for r in ops]
    return {
        "attempted": len(ops),
        "failed": statuses.count("failed"),
        "refused": statuses.count("refused"),
        "refused_unexpected": sum(
            1 for r in ops if r.outcome.status == "refused" and not r.outcome.expected
        ),
    }


def _spans_of(r: OpRun) -> list:
    """The op's spans under a synthetic `process` root (spawn to exit)."""
    spans = [["process", r.spawn, r.exit, -1, None],
             ["process.setup", r.spawn, r.ready, 0, None]]
    for name, start, end, parent, counters in (r.child or {}).get("spans") or ():
        spans.append([name, start, end, parent + 2 if parent >= 0 else 0, counters])
    return spans


def layer_metrics(run: PassRun) -> dict:
    """Per-layer totals of one traced pass."""
    incl = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    count = defaultdict(float)
    m = {}
    for r in run.ops:
        spans = _spans_of(r)
        dur = [s[2] - s[1] for s in spans]
        own = list(dur)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                own[s[3]] -= dur[i]
        for i, (name, start, end, parent, counters) in enumerate(spans):
            counters = counters or {}
            incl[name] += dur[i]
            self_s[name] += own[i]
            calls[name] += 1
            error = counters.get("error")
            for key, value in counters.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    count[f"{name}.{key}"] += value
            if name == "subsets.construct" and "kind" in counters:
                incl[f"subsets.construct.{counters['kind']}"] += dur[i]
            if name == "measures.corr_exact":
                if error == "BudgetExceededError":
                    count["corr_exact.refused"] += 1
                elif error is None:
                    count["corr_exact.ok_s"] += dur[i]
            if name == "measures.corr_up_to" and error == "BudgetExceededError":
                count["corr.wasted_s"] += sum(
                    dur[j] for j, c in enumerate(spans)
                    if c[3] == i and c[0] == "measures.corr_exact"
                    and not (c[4] or {}).get("error")
                )
        cache = (r.child or {}).get("index_table_cache") or {}
        count["index_table.builds"] += cache.get("misses", 0)
        count["index_table.hits"] += cache.get("hits", 0)
        count["report_bytes"] += r.out_bytes

    def per_s(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    m["numtheory.index_table.s"] = incl["numtheory.index_table"]
    m["numtheory.index_table.builds"] = count["index_table.builds"]
    m["numtheory.index_table.hits"] = count["index_table.hits"]
    m["subsets.construct.s"] = incl["subsets.construct"]
    m["subsets.construct.self_s"] = self_s["subsets.construct"]
    m["subsets.construct.elements"] = count["subsets.construct.elements"]
    for kind in KINDS:
        m[f"subsets.construct.{kind}.s"] = incl[f"subsets.construct.{kind}"]
    m["sequences.derive.s"] = incl["sequences.derive"]
    m["sequences.derive.symbols"] = count["sequences.derive.symbols"]
    m["measures.count.s"] = incl["measures.count"]
    m["measures.count.windows"] = count["measures.count.windows"]
    m["measures.count.windows_per_s"] = per_s(m["measures.count.windows"],
                                              m["measures.count.s"])
    m["measures.corr_exact.s"] = incl["measures.corr_exact"]
    m["measures.corr_exact.calls"] = calls["measures.corr_exact"]
    m["measures.corr_exact.refused"] = count["corr_exact.refused"]
    m["measures.corr.products"] = count["measures.corr_exact.products"]
    m["measures.corr.products_per_s"] = per_s(m["measures.corr.products"],
                                              count["corr_exact.ok_s"])
    m["measures.corr.wasted_s"] = count["corr.wasted_s"]
    m["measures.corr_sampled.s"] = incl["measures.corr_sampled"]
    m["measures.corr_sampled.tuples"] = count["measures.corr_sampled.tuples"]
    m["predictions.main_terms.s"] = incl["predictions.main_terms"]
    m["predictions.main_terms.calls"] = calls["predictions.main_terms"]
    m["predictions.allows.s"] = incl["predictions.allows"]
    m["predictions.allows.calls"] = calls["predictions.allows"]
    m["harness.run.self_s"] = self_s["harness.run"]
    m["harness.items"] = count["harness.run.items"]
    m["harness.serialize_s"] = incl["harness.serialize"]
    m["harness.report_bytes"] = count["report_bytes"]
    m["harness.sweep.self_s"] = self_s["harness.sweep"]
    m["harness.sweep.points"] = count["harness.sweep.points"]
    m["cli.self_s"] = self_s["cli"]
    m["process.setup_s"] = incl["process.setup"]
    m["process.teardown_s"] = self_s["process"]
    m["trace.wall_s"] = run.wall_s
    m["_span_s"] = run.ops[-1].exit - run.ops[0].spawn
    m["trace.unaccounted_s"] = m["_span_s"] - sum(self_s.values())
    m["_self"] = dict(self_s)
    return m


# ----------------------------------------------------------------------
# Provenance.


def machine_info() -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def src_digest(src: Path) -> str:
    """SHA-256 of the Python files under a src/ directory."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        name = "src/" + path.relative_to(src).as_posix()
        h.update(name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def source_info(root: Path) -> dict:
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit or "unknown (not a git checkout)",
            "src_sha256": src_digest(root / "src")}


# ----------------------------------------------------------------------
# Entry points.


def _print_metric(name, value, unit, note="", baseline=None):
    extra = ""
    if baseline is not None and name in baseline and baseline[name]:
        extra = f"  [baseline {baseline[name]:.6g}, ratio {value / baseline[name]:.3f}]"
    print(f"  {name:<40} {value:>16.6f} {unit:<6}{note}{extra}")


def measure(args, root: Path, workdir: Path) -> int:
    stored = json.loads(BASELINE.read_text())
    if src_digest(SEED_SRC) != stored["source"]["src_sha256"]:
        print(f"error: {SEED_SRC} is not the src/ of the seed commit "
              f"{stored['source']['commit']}", file=sys.stderr)
        return 2
    refs = json.loads(REFERENCE.read_text())
    ops = workloads.op_list(args.workload, args.seed)
    traced = bool(args.trace)
    start = time.monotonic()
    runner = Runner(root, workdir, deadline=start + RUN_DEADLINE_S)
    for op in ops:
        runner.config_path(op)
    runner.prime()
    keep = root / ".perfbench" / "failed" / workdir.name
    passes = []
    while True:
        # Trace runs alternate untraced and traced passes.
        is_traced = traced and len(passes) % 2 == 1
        run = runner.run_pass(ops, len(passes), is_traced)
        check_pass(run, refs, root, keep)
        passes.append(run)
        if traced and len(passes) % 2 == 1:
            continue  # passes come in untraced/traced pairs
        elapsed = time.monotonic() - start
        step = (2 if traced else 1) * elapsed / len(passes)
        if elapsed + step > RUN_LIMIT_S:
            break
        if elapsed + step > args.seconds:
            break

    untraced = [p for p in passes if not p.traced]
    traced_passes = [p for p in passes if p.traced]
    counts = outcome_counts(passes)
    n = counts["attempted"]
    failed_frac = counts["failed"] / n
    refused_frac = counts["refused"] / n
    bad_refs = [r for p in untraced for r in p.refs
                if r.outcome.status == "failed" or not r.outcome.expected]
    if bad_refs:
        for r in bad_refs:
            print(f"error: reference program: {r.op.name}: {r.outcome.status} "
                  f"{r.outcome.detail}", file=sys.stderr)
        return 1
    scale = stored["reference"][args.workload]
    baseline = stored["workloads"].get(args.workload)

    machine, source = machine_info(), source_info(root)
    print(f"zqlab benchmark: workload={args.workload} seed={args.seed} "
          f"variant={workloads.variant(args.seed)} trace={args.trace} "
          f"seconds={args.seconds}")
    print(f"machine: nproc={machine['nproc']} usable={machine['cpus_usable']} "
          f"cpu={machine['cpu_model']!r} python={machine['python']} "
          f"numpy={machine['numpy']}")
    print(f"source: commit={source['commit']} src_sha256={source['src_sha256'][:16]}")
    print(f"passes: {len(untraced)} untraced, {len(traced_passes)} traced; "
          f"{len(ops)} ops per pass; {n} ops attempted; every untraced op also "
          f"ran under the reference program")
    for p_i, p in enumerate(passes):
        bad = [f"{r.op.name}: {r.outcome.status} {r.outcome.detail}"
               for r in p.ops if r.outcome.status != "ok"]
        for line in bad:
            print(f"  pass {p_i}: {line}")
    if args.workload == "sweep_grid":
        print("note: sweep_grid runs at --workers 1, so its points run, and are "
              "traced, in the sweep's own process")

    e2e = end_to_end(untraced, scale)
    print("end-to-end (untraced passes, in the reference program's recorded "
          "seconds; see NOTES.md):")
    notes = {
        "op_s.p50": f"  (median of {len(ops)} ops, each over {len(untraced)} passes)",
        "op_s.max": f"  (the slowest of {len(ops)} ops, each over {len(untraced)} passes)",
    }
    base_e2e = (baseline or {}).get("end_to_end")
    for name, unit in END_TO_END + (("op_s.p50", "s"),):
        _print_metric(name, e2e[name], unit, notes.get(name, ""), base_e2e)
    print(f"  as measured: passes took {e2e['measured.wall_s']:.6f} s, and "
          f"{e2e['reference.wall_s']:.6f} s under the reference program (medians)")
    _print_metric("failed_frac", failed_frac, "frac",
                  f"  ({counts['failed']}/{n} ops)")
    _print_metric("refused_frac", refused_frac, "frac",
                  f"  ({counts['refused']}/{n} ops, "
                  f"{counts['refused_unexpected']} not refused at the seed commit)")

    layers = {}
    if traced:
        per_pass = [layer_metrics(p) for p in traced_passes]
        for name, _ in PER_LAYER:
            if name in per_pass[0]:
                layers[name] = statistics.median(m[name] for m in per_pass)
        layers["trace.wall_s"] = statistics.median(p.wall_s for p in traced_passes)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - e2e["measured.wall_s"]
        for name in ("op_s.p50", "measured.wall_s", "reference.wall_s"):
            layers[name] = e2e[name]
        layers["failed_frac"] = failed_frac
        layers["refused_frac"] = refused_frac
        print(f"per-layer (median over {len(traced_passes)} traced passes):")
        base_layers = (baseline or {}).get("per_layer")
        for name, unit in PER_LAYER:
            _print_metric(name, layers[name], unit, "", base_layers)
        mid = per_pass[len(per_pass) // 2]
        print("accounting of the traced wall time (self seconds, one pass):")
        for name, secs in sorted(mid["_self"].items(), key=lambda kv: -kv[1]):
            if secs:
                print(f"  {name:<40} {secs:>12.6f} s")
        print(f"  {'(between processes)':<40} {mid['trace.unaccounted_s']:>12.6f} s")
        print(f"  {'= first spawn to last exit':<40} {mid['_span_s']:>12.6f} s")

    names = PER_LAYER if traced else END_TO_END
    source_metrics = layers if traced else e2e
    metrics = {name: {"value": source_metrics[name], "unit": unit}
               for name, unit in names}
    result = {
        "correct": counts["failed"] == 0,
        "attempted": n,
        "failed": counts["failed"] + counts["refused_unexpected"],
        "metrics": metrics,
    }
    results_dir = root / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
     ).write_text(json.dumps({
         "workload": args.workload, "seed": args.seed,
         "variant": workloads.variant(args.seed), "trace": args.trace,
         "seconds": args.seconds, "machine": machine, "source": source,
         "failed_frac": failed_frac, "refused_frac": refused_frac,
         "result": result,
         "passes": [{"traced": p.traced, "wall_s": p.wall_s,
                     "ops": [{"name": r.op.name, "seed_src": r.seed_src,
                              "setup_s": r.setup_s,
                              "op_s": r.op_s, "cpu_s": r.cpu_s,
                              "rss_kb": r.rss_kb,
                              "outcome": r.outcome.status, "detail": r.outcome.detail}
                             for r in p.ops + p.refs]} for p in passes],
     }, indent=1, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


def record(root: Path, workdir: Path) -> int:
    """Record references for every workload and input variant."""
    refs = {"pool": workloads.POOL, "source": source_info(root),
            "entries": {}, "sets": {}, "ops": {}}
    runner = Runner(root, workdir)
    index = 0
    for workload in workloads.WORKLOADS:
        for v in range(workloads.POOL):
            ops = workloads.op_list(workload, v)
            todo = [op for op in ops if check.op_key(op) not in refs["ops"]]
            if not todo:
                continue
            run = runner.run_pass(todo, index, False)
            index += 1
            for r in run.ops:
                check.record_op(r.op, r.code, r.stderr, r.out, refs)
                if refs["ops"][check.op_key(r.op)]["refused"] and r.op.command == "verify":
                    _record_analyses(runner, r.op, refs, workdir / f"sub{index:03d}")
            check_pass(run, refs, root, root / ".perfbench" / "failed")
            bad = [r for r in run.ops if r.outcome.status == "failed"]
            if bad:
                for r in bad:
                    print(f"{workload}/{v}/{r.op.name}: {r.outcome.detail}",
                          file=sys.stderr)
                return 1
            print(f"recorded {workload} variant {v}: {len(todo)} ops", flush=True)
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


def _record_analyses(runner: Runner, op, refs: dict, sub_dir: Path) -> None:
    """For an op refused as a whole, record each analysis that completes."""
    sub_dir.mkdir()
    for i, analysis in enumerate(op.config["analyses"]):
        config = dict(op.config, analyses=[analysis])
        sub = workloads.Op(f"{op.name}.a{i}", op.command, config, op.args)
        r = runner.run_op(sub, sub_dir, False)
        if r.code in (0, 1):
            body = json.loads(r.out.read_text())
            check.record_report(config, check.report_seed(config, op.args), body, refs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.json from this checkout")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "zqlab" / "__init__.py").is_file():
        print("error: run from the root of a zqlab checkout (no src/zqlab here)",
              file=sys.stderr)
        return 2
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    workdir = root / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return record(root, workdir) if args.record else measure(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
