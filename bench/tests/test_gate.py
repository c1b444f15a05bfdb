from fractions import Fraction

import pytest

import run
from workloads import Instance, Op, alternating

INST = Instance.generate(alternating("alt4", (4,)), 3, 2, seed=5)
VALUE = Fraction(-37, 9)
REFS = {"moment:" + INST.key: (VALUE, 3)}


def lib_rec(**over):
    rec = {"kind": "moment", "key": INST.key, "value": str(VALUE), "terms": 3, "seconds": 0.1}
    rec.update(over)
    return rec


def test_lib_gate_accepts_the_reference():
    assert run.gate_lib(Op("moment", INST), lib_rec(), REFS) is None


@pytest.mark.parametrize(
    "kind, over",
    [
        ("moment", {"value": str(VALUE + Fraction(1, 10**12))}),
        ("moment", {"terms": 2}),
        ("moment", {"error": "Traceback (most recent call last): ..."}),
        ("wick", {"wick": str(VALUE * 2)}),
        ("mc", {"mc": [float(VALUE) + 6.0, 1.0]}),
    ],
)
def test_lib_gate_catches_a_perturbed_result(kind, over):
    rec = lib_rec(kind=kind, wick=str(VALUE), mc=[float(VALUE) + 4.0, 1.0])
    rec.update(over)
    assert run.gate_lib(Op(kind, INST), rec, REFS) is not None


def test_lib_gate_accepts_oracles_within_limits():
    rec = lib_rec(kind="mc", mc=[float(VALUE) + 4.9, 1.0])
    assert run.gate_lib(Op("mc", INST), rec, REFS) is None
    rec = lib_rec(kind="wick", wick=str(VALUE))
    assert run.gate_lib(Op("wick", INST), rec, REFS) is None


def cli_child(total, rc=0, stderr="", terms=3):
    out = '{"normalized_total": %r, "term_count": %d}\n' % (total, terms)
    return run.Child(rc, 1.0, 1000, out, stderr)


def test_cli_gate_uses_a_relative_float_tolerance():
    op = Op("moment", INST)
    assert run.gate_cli(op, cli_child(float(VALUE)), REFS) is None
    assert run.gate_cli(op, cli_child(float(VALUE) * (1 + 5e-11)), REFS) is None
    assert run.gate_cli(op, cli_child(float(VALUE) * (1 + 2e-10)), REFS) is not None


@pytest.mark.parametrize(
    "child",
    [
        cli_child(float(VALUE), rc=1, stderr="error: boom"),
        cli_child(float(VALUE), stderr="Traceback (most recent call last):"),
        cli_child(float(VALUE), terms=4),
        run.Child(0, 1.0, 1000, "not json\n", ""),
    ],
)
def test_cli_gate_catches_failures(child):
    assert run.gate_cli(Op("moment", INST), child, REFS) is not None


def test_tally_counts_failures_against_attempts():
    t = run.Tally()
    assert t.record("a", None) and not t.record("b", "wrong")
    assert t.attempted == 2 and [f["op"] for f in t.failures] == ["b"]
