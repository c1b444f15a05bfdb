import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import reference
import wte
from worker import build_spec
from workloads import DEFAULT_SEED, WORKLOADS, Instance, Word, distinct_instances

BENCH_REFS = json.loads(
    (Path(reference.__file__).parent / "references.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generation_is_deterministic_per_seed(name):
    ops = WORKLOADS[name].ops
    a, b, c = ops(11), ops(11), ops(12)
    assert [o.inst.sha256() for o in a] == [o.inst.sha256() for o in b]
    for x, y in zip(a, b):
        assert all(np.array_equal(p, q) for p, q in zip(x.inst.mats, y.inst.mats))
    assert [o.inst.sha256() for o in a] != [o.inst.sha256() for o in c]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_integer_matrices_in_range_of_the_slot_sizes(name):
    for inst in distinct_instances(WORKLOADS[name].ops(DEFAULT_SEED)):
        dims = inst.word.slot_dims(inst.n_dim, inst.m_dim)
        assert [a.shape for a in inst.mats] == dims
        assert all(a.dtype.kind == "i" and a.min() >= -3 and a.max() <= 3 for a in inst.mats)


def random_word(rng):
    while True:
        lengths = tuple(rng.choice((1, 2, 3, 4)) for _ in range(rng.choice((1, 1, 2, 3))))
        if sum(lengths) % 2 == 0 and sum(lengths) <= 8:
            break
    fams = rng.choice(("X", "XY"))
    factors = tuple(
        tuple(rng.choice(fams) + rng.choice(("", "'")) for _ in range(n)) for n in lengths
    )
    gram = (("X", "Y", Fraction(1, 2)), ("Y", "Y", Fraction(3))) if fams == "XY" else ()
    wigner = frozenset({factors[0][0].rstrip("'")}) if rng.random() < 0.3 else frozenset()
    q = rng.choice((Fraction(1), Fraction(1, 2), Fraction(0), Fraction(-1)))
    return Word("w", factors, q=q, gram=gram, wigner=wigner)


@pytest.mark.parametrize("case", range(40))
def test_reference_equals_the_engine_on_random_small_words(case):
    rng = random.Random(case)
    word = random_word(rng)
    n = rng.choice((2, 3))
    m = n if word.wigner else rng.choice((1, 2, 3))
    inst = Instance.generate(word, n, m, seed=case)
    statistic = rng.choice(("moment", "cumulant"))
    spec, _, _ = build_spec(wte, inst.job())
    res = (wte.cumulant if statistic == "cumulant" else wte.moment)(spec, exact=True)
    assert reference.evaluate(inst.problem(statistic)) == (res.total, len(res.terms))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_committed_references_match_the_generated_inputs(name):
    committed = BENCH_REFS[name]
    assert BENCH_REFS["seed"] == DEFAULT_SEED
    for op in WORKLOADS[name].ops(DEFAULT_SEED):
        entry = committed[op.ref_key]
        assert entry["sha256"] == op.inst.sha256()
        value, terms = reference.evaluate(op.inst.problem(op.statistic))
        assert (Fraction(entry["value"]), entry["terms"]) == (value, terms)
