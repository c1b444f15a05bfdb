"""Write ``bench/references.json``: the default seed's exact references.

Usage (from the root of a checkout)::

    python3 bench/make_references.py

Each operation's value comes from the engine in exact mode and must equal
the benchmark's own vectorised reference (``reference.py``); where the
brute-force Wick oracle fits its default work budget, its value must
equal both.  Any disagreement stops the script without writing.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import reference  # noqa: E402
from worker import build_spec  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

import wte  # noqa: E402


def main() -> int:
    out: dict = {"seed": DEFAULT_SEED}
    for name, wl in WORKLOADS.items():
        entries = {}
        for op in wl.ops(DEFAULT_SEED):
            if op.ref_key in entries:
                continue
            spec, _, _ = build_spec(wte, op.inst.job())
            fn = wte.cumulant if op.statistic == "cumulant" else wte.moment
            res = fn(spec, exact=True)
            value, kept = reference.evaluate(op.inst.problem(op.statistic))
            if (res.total, len(res.terms)) != (value, kept):
                raise SystemExit(f"{op.ref_key}: engine {res.total} ({len(res.terms)} terms) "
                                 f"!= reference {value} ({kept} terms)")
            wick_checked = False
            if op.statistic == "moment":
                try:
                    wick = wte.wick_oracle(spec, exact=True)
                except wte.BudgetError:
                    wick = None
                if wick is not None:
                    if wick != value:
                        raise SystemExit(f"{op.ref_key}: wick {wick} != {value}")
                    wick_checked = True
            entries[op.ref_key] = {
                "sha256": op.inst.sha256(),
                "value": str(value),
                "terms": kept,
                "wick_checked": wick_checked,
            }
            print(f"{name} {op.ref_key}: {value} ({kept} terms, wick {wick_checked})",
                  flush=True)
        out[name] = entries
    (BENCH / "references.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
