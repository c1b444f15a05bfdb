import concurrent.futures
import gc
import hashlib
import io
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

import wte
import wte.cli
import wte.engine
from wte.cli import main
from wte.expr import build_shape, parse
from wte.gluing import MirrorPropertyError, slot_dimensions, surface_census
from wte.perm import crossings, enumerate_pairings

RESULT_SCHEMA = {
    "type": "object",
    "required": [
        "schema", "command", "statistic", "expression", "n_dim", "m_dim", "q",
        "exact", "normalized_total", "unnormalized_total", "prefactor_exponent",
        "unnormalized_prefactor_exponent", "term_count", "spec_hash",
    ],
    "properties": {
        "schema": {"const": "wte.result.v1"},
        "statistic": {"enum": ["moment", "cumulant"]},
        "n_dim": {"type": "integer", "minimum": 1},
        "m_dim": {"type": "integer", "minimum": 1},
        "normalized_total": {"type": "number"},
        "unnormalized_total": {"type": "number"},
        "prefactor_exponent": {"type": "integer"},
        "term_count": {"type": "integer", "minimum": 0},
        "spec_hash": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
        "terms": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "index", "blocks", "weight", "order_exponent", "cycles",
                    "value", "surface",
                ],
                "properties": {
                    "surface": {
                        "type": "object",
                        "required": ["components"],
                        "properties": {
                            "components": {
                                "type": "array",
                                "items": {
                                    "type": "object",
                                    "required": [
                                        "factors", "vertices", "edges", "faces",
                                        "chi", "orientable", "classification",
                                    ],
                                },
                            }
                        },
                    }
                },
            },
        },
    },
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


QUAD = "E[ tr(X' D1 X D2) ]"
ALT6 = "E[ tr(X' D1 X D2 X' D3 X D4 X' D5 X D6) ]"
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
SRC = os.path.dirname(os.path.dirname(wte.__file__))


def q_half_args(tmp_path) -> tuple[str, ...]:
    """``wte moment`` arguments for q = 1/2 on the alternating 8-letter
    word at N=3, M=2, with fixed integer matrices in every slot."""
    lines = []
    for k in range(1, 9):
        n = 2 if k % 2 else 3
        rows = [" ".join(str((3 * k + 5 * i + 7 * j) % 7 - 3) for j in range(n)) for i in range(n)]
        mat = tmp_path / f"d{k}.txt"
        mat.write_text(f"{n} {n}\n" + "\n".join(rows) + "\n")
        lines.append(f"D{k} = {mat}\n")
    binds = tmp_path / "binds.txt"
    binds.write_text("".join(lines))
    expr = "E[ tr(" + " ".join(f"X' D{2 * k - 1} X D{2 * k}" for k in range(1, 5)) + ") ]"
    return ("moment", "--expr", expr, "--bind", str(binds), "-N", "3", "-M", "2",
            "--q", "1/2", "--exact", "--terms", "--format", "json")


# Words whose ``--terms`` output in every format, float and exact, is pinned
# by the sha256 digests in ``data/terms_digests.json`` (text without its
# ``elapsed:`` line): name -> (command, expression, N, M, extra options).
# The Wigner word has three Z letters, which pair with X letters through a
# Gram entry of 1/2.
GOLDEN = {
    "alt10": ("moment", "E[ tr(" + " ".join(f"X' D{2 * k - 1} X D{2 * k}" for k in range(1, 6))
              + ") ]", 4, 3, ()),
    "cumulant4x6": ("cumulant", "k[ tr(X' D1 X D2 X' D3 X D4) "
                    "tr(X' D5 X D6 X' D7 X D8 X' D9 X D10) ]", 4, 3, ()),
    "wigner3": ("moment", "E[ tr(X' D1 Z D2 X D3 X' D4 Z D5 X D6 X' D7 X D8 Z D9 X D10) ]",
                3, 3, ("--wigner", "Z", "--gram", "gram.txt")),
}


def golden_args(tmp_path, name, exact, fmt="json") -> tuple[str, ...]:
    """``wte`` arguments for the golden word ``name``."""
    return (*bound_args(tmp_path, *GOLDEN[name]), *(("--exact",) if exact else ()),
            "--terms", "--format", fmt)


def golden_digest(name, exact, fmt="json") -> str:
    """The pinned sha256 digest of the golden word's output."""
    key = f"{name}-{'exact' if exact else 'float'}" + ("" if fmt == "json" else f"-{fmt}")
    with open(os.path.join(DATA, "terms_digests.json"), encoding="utf-8") as fh:
        return json.load(fh)[key]


def digest(out: str) -> str:
    """The sha256 digest of ``out`` without its ``elapsed:`` line."""
    kept = [line for line in out.splitlines(keepends=True) if not line.startswith("elapsed:")]
    return hashlib.sha256("".join(kept).encode()).hexdigest()


def bound_args(tmp_path, command, expr, n_dim, m_dim, extra=()) -> tuple[str, ...]:
    """``wte`` arguments for ``expr`` with slot matrices from
    ``default_rng(7)`` with entries in [-3, 3], drawn in slot order, and
    the Gram matrix of X and Z in ``gram.txt``."""
    shape, slot_names = build_shape(parse(expr))
    rng = np.random.default_rng(7)
    lines = []
    for name_k, (rows, cols) in zip(slot_names, slot_dimensions(shape, n_dim, m_dim)):
        entries = rng.integers(-3, 4, size=(rows, cols))
        mat = tmp_path / f"{name_k}.txt"
        mat.write_text(f"{rows} {cols}\n" + "".join(" ".join(map(str, r)) + "\n" for r in entries))
        lines.append(f"{name_k} = {mat}\n")
    (tmp_path / "binds.txt").write_text("".join(lines))
    (tmp_path / "gram.txt").write_text("X Z\n1 1/2\n1/2 1\n")
    extra = tuple(str(tmp_path / x) if x.endswith(".txt") else x for x in extra)
    return (command, "--expr", expr, "--bind", str(tmp_path / "binds.txt"),
            "-N", str(n_dim), "-M", str(m_dim), *extra)


class TestMomentCommand:
    def test_first_moment_value(self, capsys):
        payload = run_json(
            capsys, "moment", "--expr", QUAD, "--bind-identity", "-N", "4", "-M", "3"
        )
        assert payload["normalized_total"] == pytest.approx(0.75)
        assert payload["unnormalized_total"] == pytest.approx(3.0)
        assert payload["prefactor_exponent"] == -2

    def test_exact_mode_reports_fraction(self, capsys):
        payload = run_json(
            capsys, "moment", "--expr", QUAD, "--bind-identity", "-N", "4", "-M", "3",
            "--exact",
        )
        assert payload["normalized_total_exact"] == "3/4"

    def test_text_format(self, capsys):
        code, out, _ = run(
            capsys, "moment", "--expr", QUAD, "--bind-identity", "-N", "4", "-M", "3"
        )
        assert code == 0
        assert "normalized total   = 0.75" in out

    def test_terms_table(self, capsys):
        payload = run_json(
            capsys, "moment", "--expr", QUAD, "--bind-identity", "-N", "4", "-M", "3",
            "--terms",
        )
        (term,) = payload["terms"]
        assert term["cycles"] == "(1)(2)"
        assert term["surface"]["components"][0]["classification"] == "sphere"

    def test_json_validates_against_schema(self, capsys):
        payload = run_json(
            capsys, "moment", "--expr", "E[ tr(X' D1 X D2 X' D3 X D4) ]",
            "--bind-identity", "-N", "3", "-M", "2", "--terms",
        )
        jsonschema.validate(payload, RESULT_SCHEMA)

    @pytest.mark.parametrize(
        "command,expr",
        [
            ("moment", "E[ tr(X' D1 X D2 X' D3 X D4) ]"),
            ("cumulant", "k[ tr(X' D1 X D2) tr(X' D3 X D4) ]"),
            ("census", "E[ tr(X' D1 X D2 X' D3 X D4) tr(X' D5 X D6) ]"),
        ],
        ids=["moment", "cumulant", "census"],
    )
    def test_json_identical_across_threads(self, capsys, command, expr):
        # census takes neither --threads nor the model options, so its case
        # compares two identical runs.
        args = (command, "--expr", expr, "--terms", "--format", "json")
        first = second = ()
        if command != "census":
            args += ("--bind-identity", "-N", "3", "-M", "2")
            first, second = ("--threads", "1"), ("--threads", "4")
        code1, out1, _ = run(capsys, *args, *first)
        code4, out4, _ = run(capsys, *args, *second)
        assert code1 == code4 == 0
        assert out1 == out4

    @pytest.mark.parametrize("chunk", [None, 7], ids=["default", "7"])
    def test_exact_terms_json_is_unchanged(self, capsys, tmp_path, monkeypatch, chunk):
        # The committed bytes were written when exact mode multiplied object
        # arrays and summed the term values one Fraction at a time; the
        # integer numerators over one denominator give the same output.
        # The 105 pairings fit in one default chunk; chunks of 7 put 14
        # seams inside them.
        if chunk:
            monkeypatch.setattr(wte.engine, "_CHUNK_TERMS", chunk)
        code, out, err = run(capsys, *q_half_args(tmp_path))
        assert code == 0, err
        with open(os.path.join(DATA, "q_half_m8_exact_terms.json"), encoding="utf-8") as fh:
            assert out == fh.read()

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_terms_json_digest(self, capsys, tmp_path, name, exact):
        code, out, err = run(capsys, *golden_args(tmp_path, name, exact))
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == golden_digest(name, exact)

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_terms_text_and_csv_digest(self, capsys, tmp_path, name, exact, fmt):
        code, out, err = run(capsys, *golden_args(tmp_path, name, exact, fmt))
        assert code == 0, err
        assert digest(out) == golden_digest(name, exact, fmt)

    @pytest.mark.parametrize(
        "fmt, first",
        [("json", '"index":0,'), ("text", "\n    0 1-2;3-4;5-6 "), ("csv", "\n0,1-2;3-4;5-6,")],
        ids=["json", "text", "csv"],
    )
    def test_records_written_as_they_are_made(self, monkeypatch, fmt, first):
        # No format holds every term's record before writing: term 0's is on
        # stdout before the record of term 2 reads its cycles.
        out, seen = io.StringIO(), []
        real = wte.cli.cycle_string

        def cycle_string(cycles):
            seen.append(out.getvalue())
            return real(cycles)

        monkeypatch.setattr(wte.cli, "cycle_string", cycle_string)
        monkeypatch.setattr(sys, "stdout", out)
        assert main([*ALT6_ARGS, "--terms", "--format", fmt]) == 0
        assert len(seen) == 15
        assert first not in seen[0] and first in seen[2]
        assert out.getvalue().count(first) == 1

    def test_decimal_q_is_exact(self, capsys):
        args = ("moment", "--expr", "E[ tr(X' D1 X D2 X' D3 X D4) ]",
                "--bind-identity", "-N", "3", "-M", "2", "--exact")
        decimal = run_json(capsys, *args, "--q", "0.3")
        fraction = run_json(capsys, *args, "--q", "3/10")
        assert decimal["normalized_total_exact"] == "53/45"
        assert decimal == fraction

    def test_csv_emits_term_rows(self, capsys):
        code, out, _ = run(
            capsys, "moment", "--expr", QUAD, "--bind-identity", "-N", "4", "-M", "3",
            "--format", "csv",
        )
        lines = out.strip().splitlines()
        assert code == 0 and len(lines) == 2
        assert lines[0].startswith("index,blocks,weight")

    def test_expr_file(self, capsys, tmp_path):
        expr_file = tmp_path / "word.txt"
        expr_file.write_text(QUAD + "\n")
        payload = run_json(
            capsys, "moment", "--expr-file", str(expr_file), "--bind-identity",
            "-N", "4", "-M", "3",
        )
        assert payload["normalized_total"] == pytest.approx(0.75)

    def test_bindings_file(self, capsys, tmp_path):
        mat = tmp_path / "d1.txt"
        mat.write_text("3 3\n1 0 0\n0 1 0\n0 0 1\n")
        binds = tmp_path / "binds.txt"
        binds.write_text(f"D1 = {mat}\nD2 = I 4\n")
        payload = run_json(
            capsys, "moment", "--expr", QUAD, "--bind", str(binds), "-N", "4", "-M", "3"
        )
        assert payload["normalized_total"] == pytest.approx(0.75)

    def test_wigner_flag(self, capsys):
        payload = run_json(
            capsys, "moment", "--expr", "E[ tr(Z D1 Z D2) ]", "--bind-identity",
            "-N", "4", "-M", "4", "--wigner", "Z",
        )
        assert payload["normalized_total"] == pytest.approx(5 / 8)

    def test_cumulant_head_routes_to_cumulant(self, capsys):
        payload = run_json(
            capsys, "moment", "--expr", "k[ tr(X' D1 X D2) tr(X' D3 X D4) ]",
            "--bind-identity", "-N", "4", "-M", "4",
        )
        assert payload["statistic"] == "cumulant"
        assert payload["term_count"] == 2

    @pytest.mark.parametrize("head", ["E[", "k["])
    @pytest.mark.parametrize("command", ["moment", "cumulant"])
    def test_head_or_subcommand_asks_for_a_cumulant(self, capsys, command, head):
        # Either k[ or the cumulant subcommand computes the cumulant.
        payload = run_json(
            capsys, command, "--expr", f"{head} tr(X' D1 X D2) tr(X' D3 X D4) ]",
            "--bind-identity", "-N", "4", "-M", "3", "--exact",
        )
        cumulant = "cumulant" in (command, {"E[": "moment", "k[": "cumulant"}[head])
        assert payload["statistic"] == ("cumulant" if cumulant else "moment")
        assert payload["normalized_total_exact"] == ("3/32" if cumulant else "21/32")


class TestCumulantCommand:
    def test_single_factor_equals_moment(self, capsys):
        m = run_json(
            capsys, "moment", "--expr", QUAD, "--bind-identity", "-N", "5", "-M", "5"
        )
        k = run_json(
            capsys, "cumulant", "--expr", QUAD, "--bind-identity", "-N", "5", "-M", "5"
        )
        assert m["normalized_total"] == k["normalized_total"]


ALT12 = "E[ tr(" + " ".join(f"X' D{2 * k - 1} X D{2 * k}" for k in range(1, 7)) + ") ]"
ALT12_ARGS = ("moment", "--expr", ALT12, "--bind-identity", "-N", "3", "-M", "2")
# Words that the threads tests shard: name -> (wte arguments, terms per
# chunk), the chunks small enough that every word has at least 15.
SHARDED = {
    "alt12": (lambda tmp: bound_args(tmp, "moment", ALT12, 3, 2), 512),
    "q-half-exact": (lambda tmp: q_half_args(tmp)[:-2], 7),
    "wigner3": (lambda tmp: bound_args(tmp, *GOLDEN["wigner3"]), 64),
    "cumulant6x6": (lambda tmp: bound_args(
        tmp, "cumulant", "k[ tr(X' D1 X D2 X' D3 X D4 X' D5 X D6) "
        "tr(X' D7 X D8 X' D9 X D10 X' D11 X D12) ]", 3, 2, ("--exact",)), 512),
}


@pytest.fixture
def pools(monkeypatch):
    """The worker count of every pool the engine starts.  Two CPUs are
    available, so that the default threads and ``--threads 2`` shard on
    any host; no worker is left running after the test."""
    started = []

    class Counted(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, workers, *args):
            started.append(workers)
            super().__init__(workers, *args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    monkeypatch.setattr(wte.engine, "_cpus", lambda: 2)
    yield started
    assert multiprocessing.active_children() == []


class TestThreads:
    def test_worker_count_is_capped(self):
        # Picking the count starts no process.
        cpus, many = wte.engine._cpus(), 10**18
        assert wte.engine._workers(many, many) == cpus
        assert wte.engine._workers(0, many) == cpus
        assert wte.engine._workers(1, many) == 1
        assert wte.engine._workers(many, wte.engine._SHARD_CHUNKS - 1) == 1
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    @pytest.mark.parametrize("word", sorted(SHARDED))
    def test_output_identical_across_threads(self, capsys, tmp_path, monkeypatch, pools,
                                             word, fmt):
        make_args, chunk = SHARDED[word]
        monkeypatch.setattr(wte.engine, "_CHUNK_TERMS", chunk)
        args = (*make_args(tmp_path), "--terms", "--format", fmt)
        outs = []
        for threads in (("--threads", "1"), ("--threads", "2"), ()):
            code, out, err = run(capsys, *args, *threads)
            assert code == 0, err
            outs.append([line for line in out.splitlines() if not line.startswith("elapsed:")])
        assert outs[0] == outs[1] == outs[2]
        assert pools == [2, 2]

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_terms_json_digest_sharded(self, capsys, tmp_path, monkeypatch, pools, name, exact):
        # At the default threads, in chunks of 32 terms: 30 to 119 chunks.
        monkeypatch.setattr(wte.engine, "_CHUNK_TERMS", 32)
        code, out, err = run(capsys, *golden_args(tmp_path, name, exact))
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == golden_digest(name, exact)
        assert pools == [2]

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_terms_text_and_csv_digest_sharded(self, capsys, tmp_path, monkeypatch, pools,
                                                name, exact, fmt):
        monkeypatch.setattr(wte.engine, "_CHUNK_TERMS", 32)
        code, out, err = run(capsys, *golden_args(tmp_path, name, exact, fmt))
        assert code == 0, err
        assert digest(out) == golden_digest(name, exact, fmt)
        assert pools == [2]

    def test_worker_error_is_the_in_process_error(self, capsys, monkeypatch, pools):
        # Patched before the workers fork, so they glue with it too.
        def glue(self, partner, eps):
            raise MirrorPropertyError("the cycle through 3 has no mirror partner")

        monkeypatch.setattr(wte.engine._Plan, "glue", glue)
        monkeypatch.setattr(wte.engine, "_CHUNK_TERMS", 512)
        single = run(capsys, *ALT12_ARGS, "--threads", "1")
        sharded = run(capsys, *ALT12_ARGS, "--threads", "2")
        assert single == sharded == (1, "", "error: the cycle through 3 has no mirror partner\n")
        assert pools == [2]

    def test_workers_ignore_ctrl_c(self, capsys, monkeypatch, pools):
        # Each process reports its SIGINT handler: the workers ignore it,
        # so an interrupt reaches only the process that started them.  The
        # test process takes Python's handler for the test's duration, also
        # where it was started with SIGINT ignored (a background job).
        def columns(self, first):
            raise ValueError(f"SIGINT: {signal.getsignal(signal.SIGINT)!r}")

        monkeypatch.setattr(wte.engine._Sum, "columns", columns)
        monkeypatch.setattr(wte.engine, "_CHUNK_TERMS", 512)
        handler = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            _, _, single = run(capsys, *ALT12_ARGS, "--threads", "1")
            _, _, sharded = run(capsys, *ALT12_ARGS, "--threads", "2")
        finally:
            signal.signal(signal.SIGINT, handler)
        assert "SIG_IGN" not in single and "SIG_IGN" in sharded
        assert pools == [2]

    def test_killed_worker_is_an_error_line(self, capsys, monkeypatch, pools):
        parent = os.getpid()

        def columns(self, first):
            assert os.getpid() != parent, "the sum ran in the test's process"
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(wte.engine._Sum, "columns", columns)
        monkeypatch.setattr(wte.engine, "_CHUNK_TERMS", 512)
        code, out, err = run(capsys, *ALT12_ARGS, "--threads", "2")
        assert (code, out) == (1, "")
        assert err.startswith("error: a worker process of the pairing sum ended abruptly")
        assert pools == [2]

    def test_interrupt_exits_130_once(self, capsys, monkeypatch, pools):
        def assemble(self, columns):
            raise KeyboardInterrupt

        monkeypatch.setattr(wte.engine._Sum, "assemble", assemble)
        monkeypatch.setattr(wte.engine, "_CHUNK_TERMS", 512)
        assert run(capsys, *ALT12_ARGS, "--threads", "2") == (130, "", "interrupted\n")
        assert pools == [2]


ALT6_ARGS = ("moment", "--expr", ALT6, "--bind-identity", "-N", "3", "-M", "2")


def exiting_with(code, monkeypatch, tmp_path):
    """Arguments of a command that exits with ``code``."""
    if code == 1:
        monkeypatch.setenv("WTE_BUDGET", "abc")
    elif code == 2:
        return ("moment", "--expr", "E[ tr() ]", "--bind-identity")
    elif code == 3:
        (tmp_path / "binds.txt").write_text("D1 = I 3\n")
        return ("moment", "--expr", QUAD, "--bind", str(tmp_path / "binds.txt"), "-N", "4")
    elif code == 4:
        monkeypatch.setenv("WTE_BUDGET", "5")
    elif code == 130:
        def assemble(self, columns):
            raise KeyboardInterrupt

        monkeypatch.setattr(wte.engine._Sum, "assemble", assemble)
    return ALT6_ARGS


class TestCollector:
    """A command runs with the cyclic collector off and leaves it as the
    caller had it, whichever way it exits."""

    @pytest.fixture(params=[True, False], ids=["on", "off"])
    def enabled(self, request):
        before = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if before else gc.disable)()

    @pytest.mark.parametrize("code", [0, 1, 2, 3, 4, 130])
    def test_state_is_restored(self, capsys, monkeypatch, tmp_path, enabled, code):
        seen, parse = [], wte.cli.parse
        monkeypatch.setattr(wte.cli, "parse", lambda t: seen.append(gc.isenabled()) or parse(t))
        args = exiting_with(code, monkeypatch, tmp_path)
        assert run(capsys, *args)[0] == code
        assert gc.isenabled() is enabled and seen == [False]

    def test_usage_error_leaves_it(self, capsys, enabled):
        with pytest.raises(SystemExit) as info:
            main(["moment", "--expr", QUAD, "-N", "0"])
        assert info.value.code == 2 and gc.isenabled() is enabled


class TestExitCodes:
    def test_parse_error_is_2(self, capsys):
        code, _, err = run(capsys, "moment", "--expr", "E[ tr() ]", "--bind-identity")
        assert code == 2 and "empty trace factor" in err

    def test_dimension_error_is_3(self, capsys, tmp_path):
        binds = tmp_path / "binds.txt"
        binds.write_text("D1 = I 2\nD2 = I 2\n")
        code, _, err = run(
            capsys, "moment", "--expr", QUAD, "--bind", str(binds), "-N", "4", "-M", "3"
        )
        assert code == 3 and "expected" in err

    def test_unbound_slot_is_3(self, capsys, tmp_path):
        binds = tmp_path / "binds.txt"
        binds.write_text("D1 = I 3\n")
        code, _, err = run(
            capsys, "moment", "--expr", QUAD, "--bind", str(binds), "-N", "4", "-M", "3"
        )
        assert code == 3 and "D2" in err

    @pytest.mark.parametrize(
        "d3, entry",
        [("1 2 inf\n0 1 0\n0 0 1", "(1, 3) is inf"), ("inf 0 0\n0 -inf 0\n0 0 1", "(1, 1) is inf")],
        ids=["nan-total", "inf-minus-inf"],
    )
    def test_non_finite_entry_is_1(self, tmp_path, d3, entry):
        # Refused before evaluation, so no numpy warning reaches stderr.
        mat = tmp_path / "d3.txt"
        mat.write_text(f"3 3\n{d3}\n")
        binds = tmp_path / "binds.txt"
        binds.write_text(f"D3 = {mat}\n")
        proc = subprocess.run(
            [sys.executable, "-m", "wte.cli", "moment", "--expr", ALT6, "--bind", str(binds),
             "--bind-identity", "-N", "3", "-M", "3"],
            capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == f"error: slot 3 entry {entry}: matrix entries must be finite\n"

    @pytest.mark.parametrize("command", ["moment", "verify"])
    def test_fsum_overflow_is_1(self, tmp_path, command):
        # tr(D1) = 3.4e308: the fsum of the trace's diagonal overflows.
        (tmp_path / "d1.txt").write_text("2 2\n1.7e308 0\n0 1.7e308\n")
        (tmp_path / "d2.txt").write_text("2 2\n10 0\n0 10\n")
        binds = tmp_path / "b.txt"
        binds.write_text(f"D1 = {tmp_path / 'd1.txt'}\nD2 = {tmp_path / 'd2.txt'}\n")
        argv = [sys.executable, "-m", "wte.cli", command, "--expr", QUAD, "--bind", str(binds),
                "-N", "2", "-M", "2"]
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, env=env)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: intermediate overflow in fsum\n"
        if command == "verify":
            proc = subprocess.run(
                [*argv, "--exact"], capture_output=True, text=True, timeout=120, env=env
            )
            assert proc.returncode == 0 and "VERIFY: PASS" in proc.stdout
            assert proc.stderr == ""

    def past_the_largest_double(self, tmp_path, command, expr, *options):
        """Run ``command`` with D1 = D3 = (1e308) and D2 = D4 = (10) at
        N = M = 1, so each factor's exact value is 10^309."""
        (tmp_path / "big.txt").write_text("1 1\n1e308\n")
        (tmp_path / "ten.txt").write_text("1 1\n10\n")
        binds = tmp_path / "b.txt"
        binds.write_text("".join(
            f"D{k} = {tmp_path / ('big.txt' if k % 2 else 'ten.txt')}\n" for k in range(1, 5)
        ))
        proc = subprocess.run(
            [sys.executable, "-m", "wte.cli", command, "--expr", expr, "--bind", str(binds),
             "-N", "1", "-M", "1", *options],
            capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert proc.stderr == ""
        assert proc.returncode == 0
        return proc.stdout

    BIG = "1" + "0" * 309

    def test_exact_total_past_the_largest_double_json(self, tmp_path):
        # The exact fields keep the exact strings; the float fields read
        # inf, as float mode prints them.
        out = self.past_the_largest_double(tmp_path, "moment", QUAD, "--exact", "--terms",
                                           "--format", "json")
        payload = json.loads(out)
        assert payload["normalized_total_exact"] == payload["unnormalized_total_exact"] == self.BIG
        assert payload["normalized_total"] == payload["unnormalized_total"] == math.inf
        assert '"normalized_total":Infinity' in out
        [term] = payload["terms"]
        assert (term["value"], term["value_exact"], term["weight"]) == (math.inf, self.BIG, 1.0)
        floats = json.loads(self.past_the_largest_double(tmp_path, "moment", QUAD, "--terms",
                                                         "--format", "json"))
        for key in ("normalized_total", "unnormalized_total", "term_count"):
            assert payload[key] == floats[key]
        assert payload["terms"][0]["value"] == floats["terms"][0]["value"]

    def test_exact_total_past_the_largest_double_text_and_csv(self, tmp_path):
        text = self.past_the_largest_double(tmp_path, "moment", QUAD, "--exact", "--terms")
        assert f"normalized total   = {self.BIG} (= inf)\n" in text
        assert f"unnormalized total = {self.BIG} (= inf)\n" in text
        assert text.endswith(f" {self.BIG}\n")
        rows = self.past_the_largest_double(tmp_path, "moment", QUAD, "--exact", "--terms",
                                            "--format", "csv").splitlines()
        assert len(rows) == 2 and rows[1].endswith(",(1)(2),inf")

    def test_exact_clt_past_the_largest_double(self, tmp_path):
        expr = "E[ tr(X' D1 X D2) tr(X' D3 X D4) ]"
        payload = json.loads(self.past_the_largest_double(tmp_path, "clt", expr, "--exact",
                                                          "--format", "json"))
        assert payload["full"] == payload["leading"] == [[math.inf] * 2] * 2
        # The exact gap is rounded once: full and leading are equal here,
        # so it is 0, though each rounds to inf.
        assert payload["gap"] == [[0.0] * 2] * 2
        rows = self.past_the_largest_double(tmp_path, "clt", expr, "--exact",
                                            "--format", "csv").splitlines()
        assert rows[1:] == [f"{i},{j},inf,inf,0.0" for i in (1, 2) for j in (1, 2)]

    def test_float_clt_past_the_largest_double_warns_nothing(self, tmp_path):
        # The trie's stacked products of 1e308 and 10 overflow to inf, as
        # Python floats do, and stderr stays empty (checked by the helper).
        expr = "E[ tr(X' D1 X D2) tr(X' D3 X D4) ]"
        payload = json.loads(self.past_the_largest_double(tmp_path, "clt", expr,
                                                          "--format", "json"))
        assert payload["full"] == payload["leading"] == [[math.inf] * 2] * 2
        assert all(math.isnan(x) for row in payload["gap"] for x in row)

    def test_budget_error_is_4(self, capsys, monkeypatch):
        monkeypatch.setenv("WTE_BUDGET", "5")
        code, _, err = run(
            capsys, "verify", "--expr", QUAD, "--bind-identity", "-N", "2", "-M", "2"
        )
        assert code == 4 and "budget" in err

    @pytest.mark.parametrize("command", ["moment", "verify"])
    @pytest.mark.parametrize("value", ["abc", "1e9"])
    def test_budget_that_is_not_an_integer_is_1(self, capsys, monkeypatch, command, value):
        monkeypatch.setenv("WTE_BUDGET", value)
        code, out, err = run(
            capsys, command, "--expr", QUAD, "--bind-identity", "-N", "3", "-M", "2"
        )
        assert code == 1 and out == ""
        assert err == f"error: WTE_BUDGET takes an integer, got '{value}'\n"

    def test_refused_verify_skips_the_engine(self, capsys, monkeypatch):
        # Engine work (1)!! * 2 = 2 is within the budget of 5, the Wick
        # expansion's (1)!! * (2*2)^1 * 2 = 8 is not: exit 4 at once.
        def never(*args, **kwargs):
            raise AssertionError("ran the engine before the oracle's budget check")

        monkeypatch.setenv("WTE_BUDGET", "5")
        monkeypatch.setattr(wte.cli, "moment", never)
        code, _, err = run(
            capsys, "verify", "--expr", QUAD, "--bind-identity", "-N", "2", "-M", "2"
        )
        assert code == 4 and "wick expansion" in err

    def test_identity_fill_past_budget_is_4(self, capsys, monkeypatch):
        # One 40 x 40 identity for D1 and D2: 1,600 entries against 1,000,
        # refused before any identity is built.
        def never(n):
            raise AssertionError("built an identity before the budget check")

        monkeypatch.setenv("WTE_BUDGET", "1000")
        monkeypatch.setattr(wte.cli.Matrix, "identity", never)
        code, out, err = run(
            capsys, "moment", "--expr", QUAD, "--bind-identity", "-N", "40", "-M", "40"
        )
        assert code == 4 and "identity fill" in err and out == ""

    def test_identity_binding_past_budget_is_4(self, tmp_path):
        # D1 = I 40 has 1,600 entries against a budget of 1,000: refused
        # before the identity is built, with no traceback.
        binds = tmp_path / "binds.txt"
        binds.write_text("D1 = I 40\nD2 = D1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "wte.cli", "moment", "--expr", QUAD, "--bind", str(binds),
             "-N", "40", "-M", "40"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=SRC, WTE_BUDGET="1000"),
        )
        assert proc.returncode == 4 and proc.stdout == ""
        assert "identity binding" in proc.stderr and "Traceback" not in proc.stderr

    def test_identity_bindings_share_one_budget(self, capsys, monkeypatch, tmp_path):
        # Two 20 x 20 identities fit one at a time (400 entries each) but
        # not together against 700: the second is refused unbuilt.
        built = []
        identity = wte.cli.Matrix.identity
        monkeypatch.setattr(wte.cli.Matrix, "identity", lambda n: built.append(n) or identity(n))
        monkeypatch.setenv("WTE_BUDGET", "700")
        binds = tmp_path / "binds.txt"
        binds.write_text("D1 = I 20\nD2 = I 20\n")
        code, out, err = run(
            capsys, "moment", "--expr", QUAD, "--bind", str(binds), "-N", "20", "-M", "20"
        )
        assert code == 4 and "identity binding" in err and out == ""
        assert built == [20]

    def test_long_alias_cycle_is_2(self, capsys, tmp_path):
        binds = tmp_path / "binds.txt"
        binds.write_text("".join(f"D{k} = D{k % 2000 + 1}\n" for k in range(1, 2001)))
        code, out, err = run(
            capsys, "moment", "--expr", QUAD, "--bind", str(binds), "-N", "3", "-M", "3"
        )
        assert code == 2 and "circular alias" in err and out == ""

    @pytest.mark.parametrize("command", ["moment", "cumulant", "census"])
    def test_pairing_sum_past_budget_is_4(self, capsys, monkeypatch, command):
        # m = 18: 17!! * 18 = 620,270,650 exceeds the default budget.
        monkeypatch.delenv("WTE_BUDGET", raising=False)
        expr = "E[ tr(" + " ".join(f"X D{k}" for k in range(1, 19)) + ") ]"
        model = () if command == "census" else ("--bind-identity",)
        code, out, err = run(capsys, command, "--expr", expr, *model)
        assert code == 4 and "budget" in err and out == ""

    def test_unparseable_gram_is_2(self, capsys, tmp_path):
        gram = tmp_path / "gram.txt"
        gram.write_text("G H\n1 0.5\n0.5 abc\n")
        code, _, err = run(
            capsys, "moment", "--expr", "E[ tr(G' D1 G D2) tr(H' D3 H D4) ]",
            "--bind-identity", "-N", "2", "-M", "2", "--gram", str(gram),
        )
        assert code == 2 and "row 2: unparseable entry" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, option, value",
        [
            ("verify", "--samples", "-4"),
            ("verify", "--samples", "1"),
            ("verify", "--seed", "-1"),
            ("verify", "--seed", str(2**128)),
            ("moment", "-N", "0"),
            ("moment", "-M", "0"),
            ("clt", "-N", "-2"),
            ("moment", "--q", "abc"),
            ("moment", "--threads", "-1"),
        ],
    )
    def test_bad_option_value_is_2(self, capsys, command, option, value):
        # Refused while parsing, naming the option: before --bind-identity
        # builds any identity, and before verify runs any check.
        with pytest.raises(SystemExit) as exc:
            main([command, "--expr", QUAD, "--bind-identity", option, value])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"argument {option}: " in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, option, value, takes",
        [
            ("moment", "--q", "abc", "a number in [-1, 1]"),
            ("moment", "--q", "1/0", "a number in [-1, 1]"),
            ("moment", "--q", "2", "a number in [-1, 1]"),
            ("cumulant", "--q", "nan", "a number in [-1, 1]"),
            ("clt", "--q", "-inf", "a number in [-1, 1]"),
            ("moment", "-N", "x", "an integer of at least 1"),
            ("moment", "-M", "1.5", "an integer of at least 1"),
            ("verify", "--samples", "two", "0 or an integer of at least 2"),
            ("verify", "--seed", "-1", "an integer of at least 0 and below 2**128"),
            ("verify", "--seed", "2.5", "an integer of at least 0 and below 2**128"),
            ("cumulant", "--threads", "-1", "an integer of at least 0"),
            ("moment", "--threads", "two", "an integer of at least 0"),
        ],
    )
    def test_bad_option_value_says_what_the_option_takes(
        self, capsys, command, option, value, takes
    ):
        with pytest.raises(SystemExit) as exc:
            main([command, "--expr", QUAD, "--bind-identity", f"{option}={value}"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"argument {option}: must be {takes}" in err and f"got {value!r}" in err
        assert "invalid" not in err and "_parse_number" not in err and "count" not in err
        assert "Traceback" not in err

    def test_samples_with_q_not_one_is_2(self, capsys, monkeypatch):
        # Only q = 1 has a sampling model: refused while reading the
        # options, before the Wick oracle or the engine runs.
        def never(*args, **kwargs):
            raise AssertionError("ran before refusing the options")

        monkeypatch.setattr(wte.cli, "wick_oracle", never)
        monkeypatch.setattr(wte.cli, "moment", never)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--expr", QUAD, "--bind-identity", "--samples", "10", "--q", "1/2"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "Monte Carlo sampling requires q = 1" in err and "Traceback" not in err
        # The subcommand's usage, as for argparse's own option errors.
        assert err.startswith("usage: wte verify ")
        assert "wte verify: error: verify --samples needs --q 1" in err

    @pytest.mark.parametrize("seed", ["0", str(2**128 - 1)])
    def test_seed_range_ends(self, capsys, seed):
        code, out, _ = run(
            capsys, "verify", "--expr", QUAD, "--bind-identity", "-N", "3", "-M", "2",
            "--samples", "10", "--seed", seed, "--format", "json",
        )
        assert code in (0, 1) and json.loads(out)["checks"][1]["name"] == "monte-carlo"

    @pytest.mark.parametrize("samples, checks", [("0", 1), ("2", 2)])
    def test_samples_zero_or_at_least_two(self, capsys, samples, checks):
        # 0 runs no Monte Carlo check; 2 is the fewest that have a spread.
        code, out, _ = run(
            capsys, "verify", "--expr", QUAD, "--bind-identity", "-N", "3", "-M", "2",
            "--samples", samples, "--format", "json",
        )
        assert code in (0, 1) and len(json.loads(out)["checks"]) == checks

    def test_missing_expression_is_2(self, capsys):
        code, _, _ = run(capsys, "moment", "--bind-identity")
        assert code == 2

    def test_missing_expr_file_is_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "moment", "--expr-file", str(tmp_path / "nope.txt"), "--bind-identity"
        )
        assert code == 2 and "nope.txt" in err
        assert "Traceback" not in err

    def test_missing_matrix_in_bindings_is_2(self, capsys, tmp_path):
        binds = tmp_path / "binds.txt"
        binds.write_text(f"D1 = {tmp_path / 'nope.mat'}\nD2 = I 3\n")
        code, _, err = run(
            capsys, "moment", "--expr", QUAD, "--bind", str(binds), "-N", "4", "-M", "3"
        )
        assert code == 2 and "nope.mat" in err
        assert "Traceback" not in err

    def test_non_utf8_expr_file_is_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe" + QUAD.encode("utf-16-le"))
        code, _, err = run(capsys, "moment", "--expr-file", str(path), "--bind-identity")
        assert code == 2 and "utf-8" in err
        assert "Traceback" not in err

    def test_non_utf8_matrix_in_bindings_is_2(self, capsys, tmp_path):
        mat = tmp_path / "d1.mat"
        mat.write_bytes(b"\xff\xfe" + "4 4\n".encode("utf-16-le"))
        binds = tmp_path / "binds.txt"
        binds.write_text(f"D1 = {mat}\nD2 = I 3\n")
        code, _, err = run(
            capsys, "moment", "--expr", QUAD, "--bind", str(binds), "-N", "4", "-M", "3"
        )
        assert code == 2 and "utf-8" in err
        assert "Traceback" not in err

    def test_closed_pipe_is_not_a_traceback(self):
        # The m=12 census table is far larger than a pipe buffer, so the
        # writer is still writing when the reader closes its end.
        expr = "E[ tr(" + " ".join(
            f"X' D{2 * k - 1} X D{2 * k}" for k in range(1, 7)
        ) + ") ]"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(wte.__file__)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "wte.cli", "census", "--expr", expr, "--terms"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert first.startswith(b"census:")
        assert "Traceback" not in err and "BrokenPipeError" not in err


class TestVerifyCommand:
    def test_pass_float(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--expr", QUAD, "--bind-identity", "-N", "3", "-M", "2"
        )
        assert code == 0 and "VERIFY: PASS" in out

    def test_pass_exact(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--expr", QUAD, "--bind-identity", "-N", "3", "-M", "2",
            "--exact",
        )
        assert code == 0 and "VERIFY: PASS" in out

    def test_with_monte_carlo(self, capsys):
        payload_code, out, _ = run(
            capsys, "verify", "--expr", QUAD, "--bind-identity", "-N", "8", "-M", "8",
            "--samples", "20000", "--seed", "5", "--format", "json",
        )
        assert payload_code == 0
        payload = json.loads(out)
        names = [c["name"] for c in payload["checks"]]
        assert "monte-carlo" in names and payload["pass"]

    def test_overflowing_float_word_warns_nothing(self, tmp_path):
        # The Wick products of slot 1's entries with 10 overflow to inf and
        # their sum is nan, as with Python floats; the oracle says nothing
        # of it on stderr.  The engine's traces of D1 and D2 are 0 and 20.
        (tmp_path / "d1.txt").write_text("2 2\n1e308 0\n0 -1e308\n")
        (tmp_path / "d2.txt").write_text("2 2\n10 0\n0 10\n")
        (tmp_path / "b.txt").write_text(f"D1 = {tmp_path / 'd1.txt'}\nD2 = {tmp_path / 'd2.txt'}\n")
        proc = subprocess.run(
            [sys.executable, "-m", "wte.cli", "verify", "--expr", QUAD, "--bind",
             str(tmp_path / "b.txt"), "-N", "2", "-M", "2", "--format", "json"],
            capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert "Warning" not in proc.stderr and proc.stderr == ""
        (check,) = json.loads(proc.stdout)["checks"]
        assert proc.returncode == 1 and (check["engine"], check["oracle"]) == ("0.0", "nan")

    def test_interrupt_while_sampling_exits_130(self):
        # 2,000 one-sample chunks; the second draw sends this process
        # SIGINT, which the calling thread raises as KeyboardInterrupt
        # while it samples.
        script = (
            "import os, signal, sys\n"
            "import wte.cli, wte.oracles\n"
            "draw, calls = wte.oracles._mc_draw, []\n"
            "def interrupting(*args):\n"
            "    calls.append(1)\n"
            "    if len(calls) == 2:\n"
            "        os.kill(os.getpid(), signal.SIGINT)\n"
            "    return draw(*args)\n"
            "wte.oracles._mc_draw = interrupting\n"
            "wte.oracles._MC_CHUNK_BYTES = 8 * 2 * 2\n"
            f"sys.exit(wte.cli.main(['verify', '--expr', {QUAD!r}, '--bind-identity', "
            "'-N', '2', '-M', '2', '--samples', '2000']))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (130, "", "interrupted\n")

    def test_rejects_cumulant_expression(self, capsys):
        code, _, err = run(
            capsys, "verify", "--expr", "k[ tr(X' D1 X D2) ]", "--bind-identity",
            "-N", "2", "-M", "2",
        )
        assert code == 1 and "E[...]" in err


class TestCensusCommand:
    def test_single_pair_word(self, capsys):
        payload = run_json(capsys, "census", "--expr", QUAD)
        assert payload["total_pairings"] == 1
        (group,) = payload["groups"]
        assert group["order_exponent"] == 0 and group["chi"] == [2]

    def test_worked_example_group_present(self, capsys):
        expr = (
            "E[ tr(X' D1 X D2 X' D3 X D4 X' D5 X D6) tr(X' D7 X D8 X' D9 X D10) ]"
        )
        payload = run_json(capsys, "census", "--expr", expr)
        assert payload["total_pairings"] == 945
        assert sum(g["count"] for g in payload["groups"]) == 945
        target = [
            g
            for g in payload["groups"]
            if g["order_exponent"] == -3
            and g["chi"] == [1]
            and g["orientable"] == [False]
        ]
        assert target and sum(g["count"] for g in target) > 0

    def test_detail_rows(self, capsys):
        payload = run_json(capsys, "census", "--expr", QUAD, "--terms")
        assert payload["pairings"][0]["blocks"] == [[1, 2]]

    @pytest.mark.parametrize(
        "fmt, first", [("json", '"index":0,'), ("text", "  #0: ")], ids=["json", "text"]
    )
    def test_records_written_as_they_are_made(self, monkeypatch, fmt, first):
        # --terms must not hold every record before writing: record 0 is
        # on stdout before the last pass over the pairings reaches row 2.
        out, seen = io.StringIO(), []
        real = wte.cli.census_rows

        def census_rows(shape):
            for row in real(shape):
                if row[0] == 2:
                    seen.append(out.getvalue())
                yield row

        monkeypatch.setattr(wte.cli, "census_rows", census_rows)
        monkeypatch.setattr(sys, "stdout", out)
        expr = "E[ tr(X' D1 X D2 X' D3 X D4) ]"
        assert main(["census", "--expr", expr, "--terms", "--format", fmt]) == 0
        assert first in seen[-1]
        assert out.getvalue().count(first) == 1

    def test_odd_word_rejected(self, capsys):
        code, _, err = run(capsys, "census", "--expr", "E[ tr(X D1 X D2 X D3) ]")
        assert code == 1 and "odd" in err

    def test_wigner_flag_rejected(self, capsys):
        # The census classifies the transpose signs as written; it does not
        # average over Wigner sign assignments as moment does.
        with pytest.raises(SystemExit) as exc:
            main(["census", "--expr", "E[ tr(Z D1 Z D2 Z D3 Z D4) ]", "--wigner", "Z"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "unrecognized arguments: --wigner" in err and "Traceback" not in err

    def test_terms_with_csv_rejected(self, capsys):
        # csv writes the group table only; refusing --terms there beats
        # dropping it silently.
        with pytest.raises(SystemExit) as exc:
            main(["census", "--expr", QUAD, "--terms", "--format", "csv"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "csv writes the group table" in err
        assert "--terms applies to json and text" in err
        assert err.startswith("usage: wte census ")
        assert "wte census: error: census --format csv" in err

    def test_counts_match_the_specification(self, capsys):
        # Every pairing's record equals surface_census and crossings.
        expr = "E[ tr(X' D1 X D2 X D3) tr(X' D4 X D5 X' D6) ]"
        payload = run_json(capsys, "census", "--expr", expr, "--terms")
        shape, _ = build_shape(parse(expr))
        for rec, p in zip(payload["pairings"], enumerate_pairings(6), strict=True):
            census = surface_census(p, shape)
            assert rec["blocks"] == [list(b) for b in p.blocks()]
            assert rec["chi"] == list(census.chi_list)
            assert rec["orientable"] == [c.orientable for c in census.components]
            assert rec["transitive"] == census.connected
            assert rec["crossings"] == crossings(p)


MODEL_OPTIONS = ("--bind", "--bind-identity", "-N", "-M", "--q", "--gram", "--exact", "--wigner")
# The options each subcommand takes besides --expr, --expr-file and --format.
OPTIONS = {
    "moment": (*MODEL_OPTIONS, "--terms", "--threads"),
    "cumulant": (*MODEL_OPTIONS, "--terms", "--threads"),
    "verify": (*MODEL_OPTIONS, "--seed", "--samples"),
    "census": ("--terms",),
    "clt": MODEL_OPTIONS,
}
OPTION_VALUES = {
    "--expr": (QUAD,), "--expr-file": ("word.txt",), "--format": ("json",),
    "--bind": ("binds.txt",), "--bind-identity": (), "-N": ("3",), "-M": ("2",),
    "--q": ("1/2",), "--gram": ("gram.txt",), "--exact": (), "--wigner": ("Z",),
    "--terms": (), "--threads": ("1",), "--seed": ("5",), "--samples": ("10",),
}


class TestOptions:
    # Among the refusals: census --exact, census --bind-identity, moment
    # --samples 10, verify --terms and clt --threads 1.
    @pytest.mark.parametrize("command", list(OPTIONS))
    def test_each_subcommand_takes_exactly_its_options(self, capsys, command):
        parser = wte.cli._build_parser()
        takes = {"--expr", "--expr-file", "--format", *OPTIONS[command]}
        for option, value in OPTION_VALUES.items():
            argv = [command, option, *value]
            if option in takes:
                parser.parse_args(argv)
                continue
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            assert exc.value.code == 2
            assert f"unrecognized arguments: {option}" in capsys.readouterr().err


class TestCltCommand:
    def test_symmetric_table(self, capsys):
        expr = "E[ tr(X' D1 X D2) tr(X' D3 X D4 X' D5 X D6) ]"
        payload = run_json(
            capsys, "clt", "--expr", expr, "--bind-identity", "-N", "4", "-M", "4"
        )
        full = payload["full"]
        assert full[0][1] == full[1][0]
        assert payload["full"][0][0] == pytest.approx(2.0)

    def test_independent_families_off_diagonal_zero(self, capsys, tmp_path):
        gram = tmp_path / "gram.txt"
        gram.write_text("G H\n1 0\n0 1\n")
        expr = "E[ tr(G' D1 G D2) tr(H' D3 H D4) ]"
        payload = run_json(
            capsys, "clt", "--expr", expr, "--bind-identity", "-N", "4", "-M", "4",
            "--gram", str(gram),
        )
        assert payload["full"][0][1] == 0.0

    def test_wigner_family_in_some_factors(self, capsys):
        payload = run_json(
            capsys, "clt", "--expr", "E[ tr(X' D1 X D2) tr(Z D3 Z D4) ]",
            "--wigner", "Z", "-N", "2", "-M", "2", "--bind-identity",
        )
        assert payload["full"] == [[2.0, 0.0], [0.0, 1.5]]
        alone = run_json(
            capsys, "clt", "--expr", "E[ tr(Z D1 Z D2) ]",
            "--wigner", "Z", "-N", "2", "-M", "2", "--bind-identity",
        )
        assert alone["full"] == [[1.5]]
