"""Command-line surface: moment, cumulant, verify, census, clt.

Output is reproducible by construction: float reductions are exactly
rounded, term order is the canonical pairing order, and the JSON
renderer sorts keys and omits wall-clock timing, so identical runs give
byte-identical JSON.

Each subcommand takes ``--expr``, ``--expr-file`` and ``--format`` and
only the other options its handler reads; the table is in
:func:`_build_parser`.  ``--threads`` exists on ``moment`` and
``cumulant`` only: that many forked worker processes compute the chunks
of the pairing sum while this process builds the terms in canonical
order, so the output is byte-identical at every value.  0, the default,
means one worker per CPU the process may run on, 1 sums in this
process, and a larger value is capped at the available CPUs.  A sum of
fewer than 8 chunks of 4,096 terms (m <= 12 without Wigner letters) runs
in this process, since the workers would cost more than they save.
Workers ignore Ctrl-C, so an interrupt exits once, from this process,
with code 130.

Exit codes: 0 success, 1 failure or verification mismatch, 2 usage
errors (among them an option the subcommand does not take, such as
``census --wigner``: the census classifies the transpose signs as
written; ``census --terms --format csv``: csv writes the group table;
``verify --samples`` at ``--q`` other than 1, which has no sampling
model; and a value an option does not take, such as ``-N 0``,
``--samples 1``, ``--q 2`` or a ``--seed`` outside [0, 2**128)), parse
errors (expression or input files) and input files that cannot be read
or are not UTF-8, 3 dimension/binding errors, 4 work budget exceeded
(the pairing sum of ``moment``, ``cumulant`` and ``census``, the Wick
expansion of ``verify``, which is checked before the engine runs, the
identities ``--bind-identity`` would build, checked before any is, or
the ``I <dim>`` lines of a bindings file, checked before each is built),
130 interrupted.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import os
import sys
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .engine import (
    BudgetError,
    MomentResult,
    MomentSpec,
    TermReport,
    WorkerError,
    _enforce_budget,
    census_rows,
    clt_report,
    cumulant,
    moment,
)
from .expr import ParseError, TraceWordAst, build_shape, elaborate, parse, pretty
from .gluing import slot_dimensions
from .matrices import (
    DimensionError,
    Matrix,
    MatrixFormatError,
    UnboundSlotError,
    _parse_number,
    parse_bindings,
    parse_gram,
    slot_identity_fill,
)
from .oracles import mc_oracle, wick_oracle
from .perm import cycle_string, pairing_count

FLOAT_TOL = 1e-10
MC_SIGMA = 5.0


def _count(least: int, zero: bool = False, bits: Optional[int] = None):
    """An argparse type: an integer n >= least, or 0 if ``zero``; n < 2**bits if given."""
    def count(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = None
        if n is None or (n < least and not (zero and n == 0)) or (bits and n >= 2**bits):
            raise argparse.ArgumentTypeError(
                f"must be {'0 or ' if zero else ''}an integer of at least {least}"
                f"{f' and below 2**{bits}' if bits else ''}, got {text!r}")
        return n
    return count


def _q(text: str):
    """The argparse type of ``--q``: a number in [-1, 1], read exactly."""
    try:
        q = _parse_number(text)
    except ValueError:
        q = None
    if q is None or not -1 <= q <= 1:
        raise argparse.ArgumentTypeError(
            f"must be a number in [-1, 1], such as 1/2 or 0.25, got {text!r}")
    return q


def _build_parser() -> argparse.ArgumentParser:
    common, model, terms, threads, monte_carlo = (
        argparse.ArgumentParser(add_help=False) for _ in range(5)
    )
    common.add_argument("--expr", help="expression text, e.g. \"E[ tr(X' D1 X D2) ]\"")
    common.add_argument("--expr-file", help="file containing the expression")
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    model.add_argument("--bind", metavar="FILE", help="matrix bindings file")
    model.add_argument("--bind-identity", action="store_true",
                       help="bind any unbound slot to the identity of its required size")
    model.add_argument("-N", dest="n_dim", type=_count(1), default=1,
                       help="columns of X (trace scale)")
    model.add_argument("-M", dest="m_dim", type=_count(1), default=1, help="rows of X")
    model.add_argument("--q", type=_q, default=1,
                       help="deformation parameter in [-1, 1]")
    model.add_argument("--gram", metavar="FILE", help="family inner-product matrix file")
    model.add_argument("--exact", action="store_true", help="exact rational arithmetic")
    model.add_argument("--wigner", default="", help="comma-separated Wigner families")
    terms.add_argument("--terms", action="store_true", help="emit the per-term table")
    threads.add_argument("--threads", type=_count(0), default=0,
                         help="worker processes that share the pairing sum: 0 (the "
                         "default) for one per available CPU, 1 to sum in this process; "
                         "capped at the available CPUs; the output is the same at any value")
    monte_carlo.add_argument("--seed", type=_count(0, bits=128), default=0,
                             help="Monte Carlo seed, from 0 to 2**128 - 1")
    monte_carlo.add_argument("--samples", type=_count(2, zero=True), default=0,
                             help="Monte Carlo sample count: 0 (no check) or at least 2")

    parser = argparse.ArgumentParser(
        prog="wte",
        description="Moments and cumulants of Wishart/Wigner trace words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, descr, groups in (
        ("moment", "expected value of the trace-word product", (model, terms, threads)),
        ("cumulant", "joint cumulant of the trace factors", (model, terms, threads)),
        ("verify", "cross-check the engine against the oracles", (model, monte_carlo)),
        ("census", "classify the glued surface of every pairing, "
                   "with the transpose signs as written", (terms,)),
        ("clt", "pairwise N^2 k_2 fluctuation table for the factors", (model,)),
    ):
        command = sub.add_parser(name, help=descr, description=descr, parents=(common, *groups))
        # Usage errors found after parsing print this subcommand's usage.
        command.set_defaults(usage_error=command.error)
    return parser


def _expression_text(args) -> str:
    if bool(args.expr) == bool(args.expr_file):
        raise ParseError("provide exactly one of --expr or --expr-file", 0, 0)
    if args.expr:
        return args.expr
    with open(args.expr_file, "r", encoding="utf-8") as fh:
        return fh.read()


def _make_spec(args, ast: TraceWordAst) -> MomentSpec:
    bindings: dict[str, Matrix] = {}
    if args.bind:
        built = 0  # entries of the file's identities so far

        def identity(n: int) -> Matrix:
            nonlocal built
            built += n * n
            _enforce_budget(built, "identity binding")
            return Matrix.identity(n)

        with open(args.bind, "r", encoding="utf-8") as fh:
            bindings = parse_bindings(fh.read(), identity=identity)
    shape, slot_names = build_shape(ast)
    if args.bind_identity:
        # One n x n identity per size of the unbound slots, n^2 entries each.
        profile = slot_dimensions(shape, args.n_dim, args.m_dim)
        sizes = {profile[k][0] for k, name in enumerate(slot_names) if name not in bindings}
        _enforce_budget(sum(n * n for n in sizes), "identity fill")
        bindings = slot_identity_fill(bindings, slot_names, shape, args.n_dim, args.m_dim)
    gram = None
    if args.gram:
        with open(args.gram, "r", encoding="utf-8") as fh:
            gram = parse_gram(fh.read())
    wigner = tuple(w for w in args.wigner.split(",") if w)
    return elaborate(
        ast,
        bindings,
        args.n_dim,
        args.m_dim,
        q=args.q,
        gram=gram,
        wigner=wigner,
    )


def _exact_str(x) -> str:
    return str(Fraction(x)) if not isinstance(x, float) else repr(x)


def _float(x) -> float:
    """``float(x)``, or inf with the sign of ``x`` where an exact ``x`` lies
    past the largest double, as float mode's arithmetic gives there."""
    try:
        return float(x)
    except OverflowError:
        return float("inf") if x > 0 else float("-inf")


def _term_record(t: TermReport, exact: bool) -> dict:
    rec = {
        "index": t.index,
        "blocks": [list(b) for b in t.blocks],
        "weight": _float(t.weight),
        "order_exponent": t.order_exponent,
        "cycles": cycle_string(t.cycles),
        "value": _float(t.value),
        "surface": {
            "components": [
                {
                    "factors": list(c.factors),
                    "vertices": c.vertices,
                    "edges": c.edges,
                    "faces": c.faces,
                    "chi": c.chi,
                    "orientable": c.orientable,
                    "classification": c.classification,
                }
                for c in t.surface.components
            ]
        },
    }
    if exact:
        rec["value_exact"] = _exact_str(t.value)
    if t.epsilon is not None:
        rec["epsilon"] = list(t.epsilon)
    return rec


def _blocks_str(blocks) -> str:
    """Render pairing blocks as e.g. ``1-2;3-4``."""
    return ";".join("-".join(str(x) for x in b) for b in blocks)


def _result_payload(args, ast, spec, result: MomentResult, statistic: str) -> dict:
    r = spec.shape.r
    payload = {
        "schema": "wte.result.v1",
        "command": args.command,
        "statistic": statistic,
        "expression": pretty(ast),
        "n_dim": spec.n_dim,
        "m_dim": spec.m_dim,
        "q": float(spec.q),
        "exact": args.exact,
        "normalized_total": _float(result.total),
        "unnormalized_total": _float(result.total) * spec.n_dim**r,
        "prefactor_exponent": result.prefactor_exponent,
        "unnormalized_prefactor_exponent": result.prefactor_exponent + r,
        "term_count": len(result.terms),
        "spec_hash": result.metadata["spec_hash"],
    }
    if args.exact:
        payload["normalized_total_exact"] = _exact_str(result.total)
        payload["unnormalized_total_exact"] = _exact_str(
            Fraction(result.total) * spec.n_dim**r
        )
    return payload


# ``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` with the encoder
# built once, not once per streamed record.
_json_text = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _emit_json(payload: dict, key: Optional[str] = None, records: Iterable[dict] = ()) -> None:
    """Write ``payload`` as one line of JSON.  With ``key``, ``payload[key]``
    is the list of ``records``, each written as it is made: the text of the
    payload with an empty list there, the records written into it."""
    if key is None:
        sys.stdout.write(_json_text(payload) + "\n")
        return
    head, _, tail = _json_text({**payload, key: []}).partition(f'"{key}":[]')
    sys.stdout.write(head + f'"{key}":[')
    for i, rec in enumerate(records):
        sys.stdout.write(("," if i else "") + _json_text(rec))
    sys.stdout.write("]" + tail + "\n")


def _emit_result_text(payload: dict, result: MomentResult,
                      records: Optional[Iterable[dict]]) -> None:
    """The result's summary, then with ``records`` the term table, one row
    written per record as it is made."""
    out = sys.stdout
    out.write(f"statistic: {payload['statistic']} ({result.metadata['mode']})\n")
    out.write(f"expression: {payload['expression']}\n")
    out.write(
        f"dims: N={payload['n_dim']} M={payload['m_dim']}  q={payload['q']}\n"
    )
    if "normalized_total_exact" in payload:
        out.write(
            f"normalized total   = {payload['normalized_total_exact']}"
            f" (= {payload['normalized_total']!r})\n"
        )
        out.write(
            f"unnormalized total = {payload['unnormalized_total_exact']}"
            f" (= {payload['unnormalized_total']!r})\n"
        )
    else:
        out.write(f"normalized total   = {payload['normalized_total']!r}\n")
        out.write(f"unnormalized total = {payload['unnormalized_total']!r}\n")
    out.write(
        f"prefactor exponent = {payload['prefactor_exponent']} (normalized), "
        f"{payload['unnormalized_prefactor_exponent']} (unnormalized)\n"
    )
    out.write(f"terms: {payload['term_count']}\n")
    out.write(f"spec: {payload['spec_hash'][:16]}\n")
    out.write(f"elapsed: {result.metadata['elapsed_s']:.3f}s\n")
    if records is not None:
        out.write(
            f"{'idx':>5} {'blocks':<18} {'weight':>10} {'exp':>4} "
            f"{'chi':<8} {'class':<22} {'cycles':<26} value\n"
        )
        for t in records:
            blocks = _blocks_str(t["blocks"])
            chis = ",".join(str(c["chi"]) for c in t["surface"]["components"])
            cls = ",".join(c["classification"] for c in t["surface"]["components"])
            value = t.get("value_exact", repr(t["value"]))
            out.write(
                f"{t['index']:>5} {blocks:<18} {t['weight']:>10.4g} "
                f"{t['order_exponent']:>4} {chis:<8} {cls:<22} "
                f"{t['cycles']:<26} {value}\n"
            )


def _emit_csv(header: Sequence[str], rows) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _emit_result_csv(records: Iterable[dict]) -> None:
    def row(t: dict) -> list:
        comps = t["surface"]["components"]
        return [
            t["index"],
            _blocks_str(t["blocks"]),
            t["weight"],
            t["order_exponent"],
            "|".join(str(c["chi"]) for c in comps),
            "|".join(str(c["orientable"]).lower() for c in comps),
            "|".join(c["classification"] for c in comps),
            t["cycles"],
            t["value"],
        ]

    _emit_csv(
        ["index", "blocks", "weight", "order_exponent", "chi", "orientable",
         "classification", "cycles", "value"],
        map(row, records),
    )


def _cmd_moment(args) -> int:
    ast = parse(_expression_text(args))
    spec = _make_spec(args, ast)
    effective = "cumulant" if "cumulant" in (args.command, ast.kind) else "moment"
    fn = cumulant if effective == "cumulant" else moment
    result = fn(spec, exact=args.exact, threads=args.threads)
    payload = _result_payload(args, ast, spec, result, effective)
    # Each record is made as it is written; csv always writes the term table.
    records = (_term_record(t, args.exact) for t in result.terms)
    if args.format == "json":
        _emit_json(payload, "terms" if args.terms else None, records)
    elif args.format == "csv":
        _emit_result_csv(records)
    else:
        _emit_result_text(payload, result, records if args.terms else None)
    return 0


def _cmd_verify(args) -> int:
    ast = parse(_expression_text(args))
    spec = _make_spec(args, ast)
    if ast.kind == "cumulant":
        raise ValueError("verify compares moments; use an E[...] expression")
    # The oracle checks its budget before any work, so a refused verify
    # does not pay for the engine's pairing sum first.
    oracle = wick_oracle(spec, exact=args.exact)
    result = moment(spec, exact=args.exact)
    # Each check is a record whose keys are in csv column order.
    def check(name, engine, oracle, metric, tolerance, ok) -> dict:
        return {"name": name, "engine": engine, "oracle": oracle, "metric": metric,
                "tolerance": tolerance, "pass": ok}

    if args.exact:
        ok = Fraction(result.total) == Fraction(oracle)
        checks = [check("wick(exact)", str(result.total), str(oracle), "equal", "0", ok)]
    else:
        scale = max(abs(float(oracle)), abs(float(result.total)), 1.0)
        rel = abs(float(result.total) - float(oracle)) / scale
        checks = [
            check("wick(float)", repr(float(result.total)), repr(float(oracle)),
                  f"rel={rel:.3e}", f"{FLOAT_TOL:g}", rel <= FLOAT_TOL)
        ]
    if args.samples:
        report = mc_oracle(spec, args.samples, seed=args.seed)
        z = report.zscore(float(result.total))
        checks.append(
            check("monte-carlo", repr(float(result.total)),
                  f"{report.estimate!r} +/- {report.stderr:.3e}",
                  f"z={z:.2f}", f"{MC_SIGMA:g} sigma", z <= MC_SIGMA)
        )
    passed = all(c["pass"] for c in checks)
    if args.format == "json":
        _emit_json(
            {"schema": "wte.verify.v1", "expression": pretty(ast), "checks": checks,
             "pass": passed}
        )
    elif args.format == "csv":
        _emit_csv(["check", "engine", "oracle", "metric", "tolerance", "pass"],
                  (list(c.values()) for c in checks))
    else:
        for c in checks:
            sys.stdout.write(
                f"{c['name']}: engine={c['engine']} oracle={c['oracle']} {c['metric']} "
                f"(tol {c['tolerance']}): {'OK' if c['pass'] else 'MISMATCH'}\n"
            )
        sys.stdout.write(f"VERIFY: {'PASS' if passed else 'FAIL'}\n")
    return 0 if passed else 1


def _cmd_census(args) -> int:
    ast = parse(_expression_text(args))
    shape, _ = build_shape(ast)
    if shape.m % 2:
        raise ValueError(f"odd letter count {shape.m}: no pairings to classify")
    # Every format writes the groups before the per-pairing records, so one
    # pass over the pairings counts the groups and, with --terms, a second
    # pass writes each record as it is made rather than holding them all.
    groups: dict[tuple, int] = {}
    for _, _, report, cross in census_rows(shape):
        chis = tuple(sorted(report.chi_list))
        orients = tuple(sorted(c.orientable for c in report.components))
        key = (report.order_exponent, chis, orients, report.connected, cross)
        groups[key] = groups.get(key, 0) + 1
    rows = sorted(groups.items(), key=lambda kv: (-kv[0][0], kv[0]))
    payload = {
        "schema": "wte.census.v1",
        "expression": pretty(ast),
        "m": shape.m,
        "r": shape.r,
        "total_pairings": pairing_count(shape.m),
        "groups": [
            {
                "order_exponent": k[0],
                "chi": list(k[1]),
                "orientable": list(k[2]),
                "transitive": k[3],
                "crossings": k[4],
                "count": count,
            }
            for k, count in rows
        ],
    }
    records = (
        {
            "index": idx,
            "blocks": [list(b) for b in blocks],
            "order_exponent": report.order_exponent,
            "chi": list(report.chi_list),
            "orientable": [c.orientable for c in report.components],
            "classification": [c.classification for c in report.components],
            "transitive": report.connected,
            "crossings": cross,
        }
        for idx, blocks, report, cross in (census_rows(shape) if args.terms else ())
    )
    if args.format == "json":
        _emit_json(payload, "pairings" if args.terms else None, records)
    elif args.format == "csv":
        _emit_csv(
            ["order_exponent", "chi", "orientable", "transitive", "crossings", "count"],
            (
                [
                    g["order_exponent"],
                    "|".join(str(c) for c in g["chi"]),
                    "|".join(str(o).lower() for o in g["orientable"]),
                    str(g["transitive"]).lower(),
                    g["crossings"],
                    g["count"],
                ]
                for g in payload["groups"]
            ),
        )
    else:
        sys.stdout.write(
            f"census: {payload['expression']}  m={shape.m} r={shape.r} "
            f"pairings={payload['total_pairings']}\n"
        )
        sys.stdout.write(
            f"{'exponent':>8} {'chi':<12} {'orientable':<14} "
            f"{'transitive':<10} {'crossings':>9} {'count':>7}\n"
        )
        for g in payload["groups"]:
            sys.stdout.write(
                f"{g['order_exponent']:>8} "
                f"{','.join(str(c) for c in g['chi']):<12} "
                f"{','.join('yes' if o else 'no' for o in g['orientable']):<14} "
                f"{'yes' if g['transitive'] else 'no':<10} "
                f"{g['crossings']:>9} {g['count']:>7}\n"
            )
        for rec in records:
            sys.stdout.write(
                f"  #{rec['index']}: blocks={_blocks_str(rec['blocks'])}"
                + f" exp={rec['order_exponent']}"
                + f" chi={rec['chi']} class={rec['classification']}"
                + f" transitive={'yes' if rec['transitive'] else 'no'}"
                + f" crossings={rec['crossings']}\n"
            )
    return 0


def _cmd_clt(args) -> int:
    ast = parse(_expression_text(args))
    spec = _make_spec(args, ast)
    report = clt_report(spec, exact=args.exact)
    n = spec.shape.r
    # One rounding of the difference: exact where the entries are exact,
    # so two entries past the largest double give their true gap, not NaN.
    gap = [[_float(abs(report.full[i][j] - report.leading[i][j])) for j in range(n)]
           for i in range(n)]
    payload = {
        "schema": "wte.clt.v1",
        "expression": pretty(ast),
        "n_dim": spec.n_dim,
        "m_dim": spec.m_dim,
        "full": [[_float(x) for x in row] for row in report.full],
        "leading": [[_float(x) for x in row] for row in report.leading],
        "gap": gap,
    }
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "csv":
        rows = ([i + 1, j + 1, payload["full"][i][j], payload["leading"][i][j], gap[i][j]]
                for i in range(n) for j in range(n))
        _emit_csv(["i", "j", "full", "leading", "gap"], rows)
    else:
        sys.stdout.write(f"clt covariances (N^2 k2), N={spec.n_dim} M={spec.m_dim}\n")
        for name, table in (("full", payload["full"]), ("leading", payload["leading"]),
                            ("gap", gap)):
            sys.stdout.write(f"{name}:\n")
            for row in table:
                sys.stdout.write("  " + "  ".join(f"{x: .10g}" for x in row) + "\n")
    return 0


_COMMANDS = {
    "moment": _cmd_moment,
    "cumulant": _cmd_moment,
    "verify": _cmd_verify,
    "census": _cmd_census,
    "clt": _cmd_clt,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "census" and args.terms and args.format == "csv":
        args.usage_error(
            "census --format csv writes the group table; "
            "--terms applies to json and text"
        )
    if args.command == "verify" and args.samples and args.q != 1:
        args.usage_error("verify --samples needs --q 1: Monte Carlo sampling requires q = 1")
    # A command builds only acyclic data (tuples, terms, numbers, arrays),
    # so the cyclic collector would only walk the growing term list again
    # and again; forked workers inherit the pause.  The caller's setting
    # comes back once the command's results are freed.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(args)
    finally:
        if collecting:
            gc.enable()


def _run(args: argparse.Namespace) -> int:
    """Run the parsed command; its exit code."""
    try:
        code = _COMMANDS[args.command](args)
        # Flush here so that a closed pipe raises inside this try, not
        # during the interpreter's flush at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (e.g. ``wte ... | head``).  Point stdout
        # at devnull so the final flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (ParseError, MatrixFormatError, OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (DimensionError, UnboundSlotError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except BudgetError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    except (ValueError, OverflowError, WorkerError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except KeyboardInterrupt:
        sys.stderr.write("interrupted\n")
        return 130


if __name__ == "__main__":
    sys.exit(main())
