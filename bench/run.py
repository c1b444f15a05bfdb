"""wte benchmark: one workload, one seed, one run.

Usage::

    python3 bench/run.py --workload cold-m14|exact-sweep|verify \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
Inputs are generated from ``--seed`` alone.  Every operation is checked
against an exact reference (committed for the default seed, computed
before timing for any other), operations run for ``--seconds`` seconds
of wall time, and the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  A run with a failed operation exits with 1.
The full record (machine, inputs' sha256, every sample, the trace) is
written to ``.bench_out/``.  See ``bench/README.md``.
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
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import reference  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    MC_SAMPLES,
    MC_SEED,
    WORKLOADS,
    Op,
    distinct_instances,
    mc_ok,
    within_float_tol,
)

CHILD_TIMEOUT_S = 150
SETUP_REPEATS = 7
TRIVIAL_ARGS = ["moment", "--expr", "E[ tr(X' D1 X D2) ]", "--bind-identity", "--format", "json"]
# Spans of the engine's top-level calls, whose self time is engine.self_s.
ENGINE_OPS = ("engine.moment", "engine.cumulant")
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import wte.cli; print(time.perf_counter() - t)"
)


# --- running children -------------------------------------------------------


class Child:
    """A finished child process: exit code, wall time, peak RSS, output."""

    def __init__(self, rc: int, seconds: float, maxrss_kb: int, stdout: str, stderr: str):
        self.rc, self.seconds, self.maxrss_kb = rc, seconds, maxrss_kb
        self.stdout, self.stderr = stdout, stderr


def run_child(argv: list[str], run_dir: Path) -> Child:
    """Run ``argv`` in ``run_dir`` to completion, timed from spawn to exit;
    its own peak RSS comes from ``wait4``.  A child past the timeout is
    killed."""
    # A fixed hash seed makes dict and set layouts, and with them peak RSS,
    # repeat from run to run.
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    out_path, err_path = run_dir / "child.out", run_dir / "child.err"
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=run_dir, env=env, stdout=fo, stderr=fe)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        proc.returncode,
        seconds,
        usage.ru_maxrss,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
    )


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "wte.cli", *args]


def run_worker(job: dict, run_dir: Path) -> tuple[Child, dict | None]:
    job_path, res_path = run_dir / "job.json", run_dir / "result.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    res_path.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "worker.py"), str(job_path), str(res_path)]
    child = run_child(argv, run_dir)
    result = None
    if child.rc == 0 and res_path.exists():
        result = json.loads(res_path.read_text(encoding="utf-8"))
    return child, result


# --- references and gates -----------------------------------------------------


def load_references(workload: str, seed: int, ops: list[Op]) -> tuple[dict, str]:
    """Exact value and term count per operation.  The committed file holds
    the default seed's; anything not found there (or whose input hash does
    not match) is computed now, before any timing."""
    committed = {}
    path = BENCH / "references.json"
    if seed == DEFAULT_SEED and path.exists():
        committed = json.loads(path.read_text(encoding="utf-8")).get(workload, {})
    refs, sources = {}, set()
    for op in ops:
        if op.ref_key in refs:
            continue
        entry = committed.get(op.ref_key)
        if entry and entry["sha256"] == op.inst.sha256():
            refs[op.ref_key] = (Fraction(entry["value"]), entry["terms"])
            sources.add("committed")
        else:
            refs[op.ref_key] = reference.evaluate(op.inst.problem(op.statistic))
            sources.add("computed")
    return refs, "+".join(sorted(sources))


def gate_cli(op: Op, child: Child, refs: dict) -> str | None:
    """Failure reason for one CLI call, or None when it passes."""
    if child.rc != 0 or "Traceback" in child.stderr:
        return f"exit {child.rc}: {child.stderr.strip()[-400:]}"
    try:
        payload = json.loads(child.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return "no JSON result on stdout"
    value, terms = refs[op.ref_key]
    if payload.get("term_count") != terms:
        return f"term_count {payload.get('term_count')} != {terms}"
    if not within_float_tol(payload["normalized_total"], value):
        return f"total {payload['normalized_total']!r} not within tolerance of {value}"
    return None


def gate_lib(op: Op, rec: dict | None, refs: dict) -> str | None:
    """Failure reason for one library operation, or None when it passes."""
    if rec is None:
        return "worker produced no result"
    if "error" in rec:
        return rec["error"].strip()[-400:]
    value, terms = refs[op.ref_key]
    if rec["terms"] != terms:
        return f"len(result.terms) {rec['terms']} != {terms}"
    engine = Fraction(rec["value"])
    if engine != value:
        return f"exact total {engine} != reference {value}"
    if op.kind == "wick" and Fraction(rec["wick"]) != engine:
        return f"wick {rec['wick']} != engine {engine}"
    if op.kind == "mc" and not mc_ok(rec["mc"][0], rec["mc"][1], engine):
        return f"monte carlo {rec['mc'][0]} +/- {rec['mc'][1]} beyond 5 sigma of {engine}"
    return None


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []

    def record(self, what: str, reason: str | None) -> bool:
        self.attempted += 1
        if reason is not None:
            self.failures.append({"op": what, "reason": reason})
        return reason is None


# --- workloads ----------------------------------------------------------------


def write_cli_inputs(op: Op, run_dir: Path) -> list[str]:
    inst = op.inst
    lines = []
    for k in range(len(inst.mats)):
        (run_dir / f"d{k + 1}.txt").write_text(inst.matrix_text(k), encoding="utf-8")
        lines.append(f"D{k + 1} = d{k + 1}.txt")
    (run_dir / "bind.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return [
        "moment", "--expr", inst.word.expr("moment"), "--bind", "bind.txt",
        "-N", str(inst.n_dim), "-M", str(inst.m_dim), "--format", "json",
    ]


def trivial_call(run_dir: Path, tally: Tally, dims: tuple[int, int]) -> Child:
    """The CLI set-up probe: an m=2 word whose exact value is M/N."""
    n, m = dims
    child = run_child(cli_argv(*TRIVIAL_ARGS, "-N", str(n), "-M", str(m)), run_dir)
    reason = None
    if child.rc != 0 or "Traceback" in child.stderr:
        reason = f"exit {child.rc}: {child.stderr.strip()[-400:]}"
    else:
        try:
            total = json.loads(child.stdout)["normalized_total"]
        except (ValueError, KeyError):
            total = None
        if total is None or not within_float_tol(total, Fraction(m, n)):
            reason = f"trivial call gave {total!r}, expected {m}/{n}"
    tally.record("setup-call", reason)
    return child


def measure_cli(ops, refs, seconds, run_dir, tally, samples, notes):
    (op,) = ops
    args = write_cli_inputs(op, run_dir)
    dims = (op.inst.n_dim, op.inst.m_dim)
    setups = [trivial_call(run_dir, tally, dims).seconds for _ in range(SETUP_REPEATS)]
    times, rss, terms = [], [], 0
    start = time.perf_counter()
    while True:
        child = run_child(cli_argv(*args), run_dir)
        ok = tally.record(op.ref_key, gate_cli(op, child, refs))
        times.append(child.seconds)
        rss.append(child.maxrss_kb)
        terms += refs[op.ref_key][1] if ok else 0
        samples.append({"op": op.ref_key, "seconds": child.seconds, "maxrss_kb": child.maxrss_kb})
        if time.perf_counter() - start >= seconds:
            break
    samples.append({"setup_s": setups})
    return e2e_metrics(times, terms, max(rss), setups, notes)


def lib_job(ops: list[Op], trace: bool, run_ops: bool = True) -> dict:
    return {
        "mode": "lib",
        "trace": trace,
        "mc_samples": MC_SAMPLES,
        "mc_seed": MC_SEED,
        "instances": {i.key: i.job() for i in distinct_instances(ops)},
        "ops": [{"kind": op.kind, "key": op.inst.key} for op in ops] if run_ops else [],
    }


def run_pass(ops, refs, run_dir, tally, trace: bool):
    """One pass over the operations in a fresh worker; gated records."""
    child, res = run_worker(lib_job(ops, trace), run_dir)
    recs = res["ops"] if res else []
    if res is None:
        for op in ops:
            tally.record(op.ref_key, f"worker exit {child.rc}: {child.stderr.strip()[-400:]}")
        return child, None, []
    oks = [tally.record(op.ref_key, gate_lib(op, rec, refs)) for op, rec in zip(ops, recs)]
    return child, res, oks


def measure_lib(ops, refs, seconds, run_dir, tally, samples, notes):
    setups = []
    for _ in range(SETUP_REPEATS - 2):
        child, res = run_worker(lib_job(ops, False, run_ops=False), run_dir)
        tally.record("setup", None if res else f"worker exit {child.rc}: {child.stderr[-400:]}")
        if res:
            setups.append(res["setup_s"])
    times, rss, terms = [], [], 0
    start = time.perf_counter()
    while True:
        child, res, oks = run_pass(ops, refs, run_dir, tally, trace=False)
        rss.append(child.maxrss_kb)
        if res:
            setups.append(res["setup_s"])
            times.append(sum(rec["seconds"] for rec in res["ops"]))
            terms += sum(refs[op.ref_key][1] for op, ok in zip(ops, oks) if ok)
            samples.append({"pass": [r["seconds"] for r in res["ops"]],
                            "setup_s": res["setup_s"], "maxrss_kb": child.maxrss_kb})
        if time.perf_counter() - start >= seconds:
            break
    return e2e_metrics(times, terms, max(rss), setups, notes)


def e2e_metrics(times, terms, maxrss_kb, setups, notes) -> dict:
    """End-to-end metrics; empty (so the run is not correct) when no pass
    or no set-up produced a time."""
    if not times or not setups:
        return {}
    notes.append(f"eval_s samples = {len(times)}; setup_s samples = {len(setups)}")
    return {
        "eval_s": (statistics.median(times), "s"),
        "terms_per_s": (terms / sum(times), "1/s"),
        "peak_rss_mb": (maxrss_kb / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


# --- traced runs --------------------------------------------------------------


def engine_span_charge(trace: dict, charge_s: float) -> tuple[int, float]:
    """Direct child spans of the engine's top-level calls, and the seconds
    of tracer bookkeeping they charged to those calls' self time."""
    totals = trace["totals"]
    children = sum(totals.get(n, {}).get("children", 0) for n in ENGINE_OPS)
    return children, children * charge_s


def layer_metrics(trace: dict, extra: dict) -> dict:
    totals, counts = trace["totals"], trace["counts"]

    def total(name):
        return totals.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    cycles = counts.get("matrices.cycle_traces", 0)
    distinct = counts.get("matrices.distinct_cycles", 0)
    hits, misses = extra["cache_hits"], extra["cache_misses"]
    mc_s = total("oracles.mc")
    return {
        "perm.enumerate_pairings_s": (total("perm.enumerate_pairings"), "s"),
        "perm.crossings_s": (total("perm.crossings"), "s"),
        "perm.orbits_s": (total("perm.orbits"), "s"),
        "gluing.vertex_permutation_s": (total("gluing.vertex_permutation"), "s"),
        "gluing.particular_cycles_s": (total("gluing.particular_cycles"), "s"),
        "gluing.surface_census_s": (total("gluing.surface_census"), "s"),
        "gluing.calls": (calls("gluing.vertex_permutation"), "count"),
        "engine.term_report_s": (total("engine.term_report"), "s"),
        "engine.terms": (calls("engine.term_report"), "count"),
        "engine.bytes_per_term": (extra["bytes_per_term"], "B"),
        "engine.thread_pool_s": (extra["thread_pool_s"], "s"),
        "engine.pairing_weight_s": (total("engine.pairing_weight"), "s"),
        "engine.is_transitive_s": (total("engine.is_transitive"), "s"),
        "engine.transitive_kept_ratio": (
            ratio(counts.get("engine.transitive_kept", 0), calls("engine.is_transitive")),
            "ratio",
        ),
        "engine.cache_hits": (hits, "count"),
        "engine.cache_misses": (misses, "count"),
        "engine.cache_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "engine.reduce_s": (total("engine.reduce"), "s"),
        "engine.self_s": (
            sum(totals.get(n, {}).get("self_s", 0.0) for n in ENGINE_OPS)
            - engine_span_charge(trace, extra["span_charge_s"])[1],
            "s",
        ),
        "matrices.trace_along_s": (total("matrices.trace_along"), "s"),
        "matrices.cycle_traces": (cycles, "count"),
        "matrices.distinct_cycles": (distinct, "count"),
        "matrices.distinct_cycle_ratio": (ratio(distinct, cycles), "ratio"),
        "oracles.wick_s": (total("oracles.wick"), "s"),
        "oracles.wick_assignments": (extra["wick_assignments"], "count_computed"),
        "oracles.mc_s": (mc_s, "s"),
        "oracles.mc_samples_per_s": (ratio(MC_SAMPLES * calls("oracles.mc"), mc_s), "1/s"),
        "oracles.mc_chunk_bytes": (extra["mc_chunk_bytes"], "B_computed"),
        "expr.parse_s": (extra.get("parse_s", total("expr.parse")), "s"),
        "expr.elaborate_s": (extra.get("elaborate_s", total("expr.elaborate")), "s"),
        "cli.import_s": (extra["import_s"], "s"),
        "trace.overhead_s": (extra["overhead_s"], "s"),
    }


def oracle_extras(ops: list[Op]) -> dict:
    return {
        "wick_assignments": sum(op.wick_assignments() for op in ops if op.kind == "wick"),
        "mc_chunk_bytes": max((op.mc_chunk_bytes() for op in ops if op.kind == "mc"), default=0),
    }


def note_charge(res: dict, samples: list, notes: list) -> None:
    children, charged = engine_span_charge(res["trace"], res["span_charge_s"])
    samples.append({"span_charge_s": res["span_charge_s"], "engine_child_spans": children,
                    "engine_self_charged_s": charged})
    notes.append(f"engine.self_s excludes {charged!r} s of tracer bookkeeping: "
                 f"{children} child spans x {res['span_charge_s']!r} s")


def check_trace(tally: Tally, res: dict, expected_terms: int) -> None:
    tally.record("trace-restore", None if res.get("restored") else "wrapped names not restored")
    got = res["trace"]["totals"].get("engine.term_report", {}).get("calls", 0)
    tally.record(
        "trace-terms",
        None if got == expected_terms else f"traced {got} TermReports, expected {expected_terms}",
    )


def traced_cli(ops, refs, run_dir, tally, samples, notes):
    (op,) = ops
    args = write_cli_inputs(op, run_dir)
    terms = refs[op.ref_key][1]
    trivial = trivial_call(run_dir, tally, (op.inst.n_dim, op.inst.m_dim))
    default = run_child(cli_argv(*args), run_dir)
    tally.record(op.ref_key, gate_cli(op, default, refs))
    single = run_child(cli_argv(*args, "--threads", "1"), run_dir)
    tally.record(op.ref_key + " --threads 1", gate_cli(op, single, refs))
    child, res = run_worker({"mode": "cli", "argv": args + ["--threads", "1"]}, run_dir)
    if res is None:
        tally.record("traced " + op.ref_key, f"worker exit {child.rc}: {child.stderr[-400:]}")
        return None
    traced = Child(res["rc"], child.seconds, child.maxrss_kb, res["stdout"], "")
    reason = gate_cli(op, traced, refs)
    if reason is None and traced.stdout != single.stdout:
        reason = "traced output differs from the untraced output"
    tally.record("traced " + op.ref_key, reason)
    check_trace(tally, res, terms)
    note_charge(res, samples, notes)
    samples.append({"default_s": default.seconds, "threads1_s": single.seconds,
                    "traced_s": child.seconds, "trivial_s": trivial.seconds})
    extra = {
        "cache_hits": res["cache_hits"],
        "cache_misses": res["cache_misses"],
        "bytes_per_term": (default.maxrss_kb - trivial.maxrss_kb) * 1024 / terms,
        "thread_pool_s": default.seconds - single.seconds,
        "import_s": res["import_s"],
        "overhead_s": child.seconds - single.seconds,
        "span_charge_s": res["span_charge_s"],
        **oracle_extras(ops),
    }
    return layer_metrics(res["trace"], extra), res["trace"]


def traced_lib(ops, refs, run_dir, tally, samples, notes):
    _, plain, _ = run_pass(ops, refs, run_dir, tally, trace=False)
    child, res, _ = run_pass(ops, refs, run_dir, tally, trace=True)
    if plain is None or res is None:
        return None
    for op, a, b in zip(ops, plain["ops"], res["ops"]):
        same = a.get("value") == b.get("value") and a.get("wick") == b.get("wick") \
            and a.get("mc") == b.get("mc")
        tally.record("traced=untraced " + op.ref_key, None if same else "traced result differs")
    check_trace(tally, res, sum(refs[op.ref_key][1] for op in ops))
    note_charge(res, samples, notes)
    probe = run_child([sys.executable, "-c", IMPORT_PROBE], run_dir)
    if not tally.record("import-probe", None if probe.rc == 0 else probe.stderr[-400:]):
        return None
    untraced_s = sum(r["seconds"] for r in plain["ops"])
    traced_s = sum(r["seconds"] for r in res["ops"])
    samples.append({"untraced": [r["seconds"] for r in plain["ops"]],
                    "traced": [r["seconds"] for r in res["ops"]]})
    extra = {
        "cache_hits": res["cache_hits"],
        "cache_misses": res["cache_misses"],
        # The peak of a library pass comes from the Monte Carlo arrays or
        # the per-shape cache, not from TermReports: not measured here.
        "bytes_per_term": 0.0,
        "thread_pool_s": 0.0,  # library calls use the default threads=1: no pool
        "import_s": float(probe.stdout),
        "parse_s": res["parse_s"],
        "elaborate_s": res["elaborate_s"],
        "overhead_s": traced_s - untraced_s,
        "span_charge_s": res["span_charge_s"],
        **oracle_extras(ops),
    }
    return layer_metrics(res["trace"], extra), res["trace"]


# --- record -------------------------------------------------------------------


def machine() -> dict:
    def read(path: str) -> str | None:
        try:
            return Path(path).read_text(encoding="utf-8").strip()
        except OSError:
            return None

    cpu = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "l3_cache": read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def source_identity() -> dict:
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": h.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wte" / "cli.py").is_file():
        sys.stderr.write(f"error: program source not found at {SRC / 'wte'}\n")
        return 2

    wl = WORKLOADS[args.workload]
    ops = wl.ops(args.seed)
    run_dir = OUT / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        refs, ref_source = load_references(wl.name, args.seed, ops)
        tally, samples, notes = Tally(), [], []
        if args.trace:
            fn = traced_cli if wl.cli else traced_lib
            traced = fn(ops, refs, run_dir, tally, samples, notes)
            metrics, trace = traced if traced else ({}, None)
        else:
            fn = measure_cli if wl.cli else measure_lib
            metrics, trace = fn(ops, refs, args.seconds, run_dir, tally, samples, notes), None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = len(tally.failures)
    correct = failed == 0 and bool(metrics)
    record = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "source": source_identity(),
        "references": ref_source,
        "inputs": [{"key": i.key, "sha256": i.sha256()} for i in distinct_instances(ops)],
        "attempted": tally.attempted,
        "failed": failed,
        "fail_ratio": failed / max(tally.attempted, 1),
        "failures": tally.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples,
        "notes": notes,
        "trace_report": trace,
    }
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"# workload {wl.name} seed {args.seed} trace {args.trace}; record in {out_file}")
    print(f"# machine {json.dumps(record['machine'])}")
    print(f"# source {json.dumps(record['source'])}; references {ref_source}")
    for inp in record["inputs"]:
        print(f"# input {inp['key']} sha256 {inp['sha256']}")
    for f in tally.failures:
        print(f"# FAILED {f['op']}: {f['reason']}")
    print(f"# fail_ratio = {record['fail_ratio']} ({failed} of {tally.attempted})")
    for note in notes:
        print(f"# {note}")
    for k, (v, u) in metrics.items():
        print(f"{k} = {v!r} {u}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
