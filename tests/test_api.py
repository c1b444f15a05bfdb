"""The package's public surface: ``wte.__all__``, the README's library
examples, and the names the benchmark reads off the program."""

import ast
import contextlib
import importlib
import io
import os
import re

import pytest

import wte
import wte.cli
import wte.engine

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")

PUBLIC = [
    "BudgetError", "CltReport", "ComponentSurface", "DimensionError", "Gram", "Matrix",
    "MatrixFormatError", "McReport", "MomentResult", "MomentSpec", "ParseError",
    "SurfaceReport", "TermReport", "TraceWordAst", "UnboundSlotError", "WordShape",
    "clt_report", "cumulant", "elaborate", "leading_terms", "load_matrix", "mc_oracle",
    "moment", "parse", "parse_bindings", "parse_matrix", "pretty", "subspec", "wick_oracle",
]

# Names that left the package root; each is imported from its module.
MODULE_NAMES = {
    "engine": ["is_transitive", "pairing_weight"],
    "expr": ["build_shape"],
    "gluing": [
        "MirrorPropertyError", "back_rotation", "front_rotation", "lift_pairing",
        "particular_cycles", "sign_flip", "slot_dimensions", "surface_census",
        "transpose_flip", "vertex_permutation",
    ],
    "matrices": ["bind_matrices", "trace_along"],
    "oracles": ["is_noncrossing"],
    "perm": [
        "Pairing", "SignedPermutation", "compose", "crossings", "cycle_string", "cycles",
        "enumerate_pairings", "inverse", "orbits", "pairing_count",
    ],
}


class TestPublicApi:
    def test_all_is_the_library_api(self):
        assert sorted(wte.__all__) == PUBLIC
        for name in PUBLIC:
            assert getattr(wte, name) is not None

    def test_star_import_binds_exactly_all(self):
        namespace: dict = {}
        exec("from wte import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == PUBLIC

    @pytest.mark.parametrize("module", sorted(MODULE_NAMES))
    def test_the_rest_stay_in_their_modules(self, module):
        mod = importlib.import_module(f"wte.{module}")
        for name in MODULE_NAMES[module]:
            assert name not in wte.__all__
            assert getattr(mod, name) is not None


def readme_blocks(section: str) -> list[str]:
    """The ``python`` code blocks of the README section headed ``section``."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", body, flags=re.S)


@pytest.mark.parametrize("index", [0, 1])
def test_readme_library_examples(index):
    # Each print's output is the value its comment gives.
    block = readme_blocks("Library quick start")[index]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    comments = [line.split("#", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(comments) == (2, 1)[index]
    for value, comment in zip(printed, comments):
        assert value in comment


def wte_reads(path: str) -> set[str]:
    """Every dotted name the script at ``path`` reads off ``wte``: the
    longest attribute chain on the name ``wte``, e.g. ``engine.moment``."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    chains, inner = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            parts, base = [], node
            while isinstance(base, ast.Attribute):
                inner.add(id(base))
                parts.append(base.attr)
                base = base.value
            if isinstance(base, ast.Name) and base.id == "wte":
                chains.add(".".join(reversed(parts)))
    return chains


class TestBenchmarkContract:
    """What the benchmark's worker reads off the program, checked here so
    that a change that breaks it fails tier-1 rather than every benchmark
    pass as ``run_failed``.  ``bench/worker.py`` looks up each name in
    ``ENGINE_NAMES`` on ``wte.engine`` and reads
    ``wte.engine._combinatorics.cache_info()`` on every library pass,
    traced or not, so those names cannot leave the engine until the
    benchmark gates on a result's terms instead of on ``TermReport``
    calls (ROADMAP item 1)."""

    @pytest.fixture
    def worker(self, monkeypatch):
        monkeypatch.syspath_prepend(BENCH)
        return importlib.import_module("worker")

    def test_engine_names(self, worker):
        for name in worker.ENGINE_NAMES:
            assert callable(getattr(wte.engine, name)), name

    def test_cli_names(self, worker):
        for name in worker.CLI_NAMES:
            assert callable(getattr(wte.cli, name)), name

    def test_plan_cache_info(self):
        info = wte.engine._combinatorics.cache_info()
        assert info.hits >= 0 and info.misses >= 0

    def test_names_read_off_wte(self):
        reads = set().union(
            *(wte_reads(os.path.join(BENCH, s)) for s in ("worker.py", "make_references.py"))
        )
        assert {
            "Matrix", "Gram", "parse", "elaborate", "moment", "cumulant", "wick_oracle",
            "mc_oracle", "BudgetError", "engine._combinatorics.cache_info", "cli.main",
        } <= reads
        for chain in sorted(reads):
            obj = wte
            for part in chain.split("."):
                obj = getattr(obj, part)
