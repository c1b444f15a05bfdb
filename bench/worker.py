"""Child process that calls the program for the benchmark.

Usage: ``python3 worker.py JOB.json OUT.json`` with the program's ``src``
on ``PYTHONPATH``.  A ``lib`` job imports ``wte``, builds every spec
through ``parse`` and ``elaborate`` (the set-up the benchmark times) and
then runs its operations in order; a ``cli`` job calls ``wte.cli.main``.
With ``trace`` set, the calls are wrapped by :class:`tracer.Tracer`,
every wrapped name is restored before the results are written, and the
result carries the tracer's per-span charge (:func:`tracer.span_charge`)
measured in the same process.  Nothing
is imported from the program before the set-up timer starts.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import time
import traceback
from fractions import Fraction

from tracer import Tracer, span_charge

# Names wte.engine looks up at call time, and the layer each belongs to.
ENGINE_NAMES = {
    "enumerate_pairings": "perm.enumerate_pairings",
    "crossings": "perm.crossings",
    "orbits": "perm.orbits",
    "pairing_weight": "engine.pairing_weight",
    "is_transitive": "engine.is_transitive",
    "vertex_permutation": "gluing.vertex_permutation",
    "particular_cycles": "gluing.particular_cycles",
    "surface_census": "gluing.surface_census",
    "trace_along": "matrices.trace_along",
    "TermReport": "engine.term_report",
}
# Names wte.cli looks up at call time.
CLI_NAMES = {
    "moment": "engine.moment",
    "cumulant": "engine.cumulant",
    "parse": "expr.parse",
    "elaborate": "expr.elaborate",
}


class Probe:
    """Installs the tracer on the engine and keeps per-operation counters."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.op_index = 0
        self.seen_cycles: set[int] = set()

    def _cycles(self, args, result) -> None:
        parts = args[0]
        self.tracer.counts["matrices.cycle_traces"] += len(parts)
        for c in parts:
            self.seen_cycles.add(hash((self.op_index, tuple(c))))

    def _transitive(self, args, result) -> None:
        self.tracer.counts["engine.transitive_kept"] += bool(result)

    def install(self, engine) -> None:
        observers = {"trace_along": self._cycles, "is_transitive": self._transitive}
        for attr, name in ENGINE_NAMES.items():
            self.tracer.wrap(
                engine, attr, name,
                drain=attr == "enumerate_pairings", observe=observers.get(attr),
            )

    def finish(self) -> None:
        self.tracer.counts["matrices.distinct_cycles"] = len(self.seen_cycles)


def replay_reduce(tracer: Tracer, result, exact: bool) -> None:
    """Time the engine's final reduction again over the returned terms."""
    values = [t.value for t in result.terms]
    with tracer.span("engine.reduce"):
        if exact:
            sum(values)
        else:
            math.fsum(values)


def build_spec(wte, inst: dict):
    """The instance's MomentSpec through ``parse`` and ``elaborate``, with
    the seconds each took."""
    bindings = {f"D{k}": wte.Matrix(rows) for k, rows in enumerate(inst["mats"], start=1)}
    gram = None
    if inst["gram"]:
        fams = list(dict.fromkeys(x.rstrip("'") for f in inst["factors"] for x in f))
        given = {frozenset((a, b)): Fraction(g) for a, b, g in inst["gram"]}
        gram = wte.Gram(
            tuple(fams),
            tuple(
                tuple(given.get(frozenset((a, b)), Fraction(int(a == b))) for b in fams)
                for a in fams
            ),
        )
    t0 = time.perf_counter()
    ast = wte.parse(inst["expr"])
    t1 = time.perf_counter()
    spec = wte.elaborate(
        ast, bindings, inst["n_dim"], inst["m_dim"],
        q=Fraction(inst["q"]), gram=gram, wigner=inst["wigner"],
    )
    return spec, t1 - t0, time.perf_counter() - t1


def run_lib(job: dict) -> dict:
    t0 = time.perf_counter()
    import wte
    import wte.engine

    import_s = time.perf_counter() - t0
    tracer = Tracer() if job["trace"] else None
    parse_s = elaborate_s = 0.0
    specs = {}
    for key, inst in job["instances"].items():
        specs[key], dp, de = build_spec(wte, inst)
        parse_s += dp
        elaborate_s += de
    setup_s = time.perf_counter() - t0

    probe = None
    originals = {a: getattr(wte.engine, a) for a in ENGINE_NAMES}
    if tracer is not None:
        charge_s = span_charge()
        probe = Probe(tracer)
        probe.install(wte.engine)
    cache0 = wte.engine._combinatorics.cache_info()
    ops = []
    try:
        for i, op in enumerate(job["ops"]):
            if probe is not None:
                probe.op_index = i
            ops.append(_run_op(wte, op, specs[op["key"]], job, tracer))
    finally:
        if tracer is not None:
            tracer.restore()
    cache1 = wte.engine._combinatorics.cache_info()
    out = {
        "import_s": import_s,
        "parse_s": parse_s,
        "elaborate_s": elaborate_s,
        "setup_s": setup_s,
        "cache_hits": cache1.hits - cache0.hits,
        "cache_misses": cache1.misses - cache0.misses,
        "ops": ops,
    }
    if tracer is not None:
        probe.finish()
        out["trace"] = tracer.report()
        out["span_charge_s"] = charge_s
        out["restored"] = all(getattr(wte.engine, a) is f for a, f in originals.items())
    return out


def _run_op(wte, op: dict, spec, job: dict, tracer) -> dict:
    kind = op["kind"]
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    fn = wte.cumulant if kind == "cumulant" else wte.moment
    rec: dict = {"kind": kind, "key": op["key"]}
    t = time.perf_counter()
    try:
        with span(f"engine.{fn.__name__}"):
            res = fn(spec, exact=True)
        if kind == "wick":
            with span("oracles.wick"):
                rec["wick"] = str(wte.wick_oracle(spec, exact=True))
        elif kind == "mc":
            with span("oracles.mc"):
                rep = wte.mc_oracle(spec, job["mc_samples"], seed=job["mc_seed"])
            rec["mc"] = [rep.estimate, rep.stderr]
    except Exception:
        rec["seconds"] = time.perf_counter() - t
        rec["error"] = traceback.format_exc()
        return rec
    rec["seconds"] = time.perf_counter() - t
    rec["value"] = str(res.total)
    rec["terms"] = len(res.terms)
    if tracer is not None:
        replay_reduce(tracer, res, exact=True)
    return rec


def run_cli(job: dict) -> dict:
    t0 = time.perf_counter()
    import wte.cli
    import wte.engine

    import_s = time.perf_counter() - t0
    charge_s = span_charge()
    originals = [(mod, a, getattr(mod, a)) for mod, names in
                 ((wte.engine, ENGINE_NAMES), (wte.cli, CLI_NAMES)) for a in names]
    tracer = Tracer()
    probe = Probe(tracer)
    probe.install(wte.engine)
    captured = []

    def keep(args, result):
        captured.append(result)

    for attr, name in CLI_NAMES.items():
        tracer.wrap(wte.cli, attr, name, observe=keep if attr in ("moment", "cumulant") else None)
    cache0 = wte.engine._combinatorics.cache_info()
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = wte.cli.main(job["argv"])
    finally:
        tracer.restore()
    cache1 = wte.engine._combinatorics.cache_info()
    for result in captured:
        replay_reduce(tracer, result, exact=result.metadata["mode"] == "exact")
    probe.finish()
    return {
        "rc": rc,
        "stdout": buf.getvalue(),
        "import_s": import_s,
        "cache_hits": cache1.hits - cache0.hits,
        "cache_misses": cache1.misses - cache0.misses,
        "trace": tracer.report(),
        "span_charge_s": charge_s,
        "restored": all(getattr(mod, a) is f for mod, a, f in originals),
    }


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        job = json.load(fh)
    out = run_cli(job) if job["mode"] == "cli" else run_lib(job)
    with open(argv[1], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
