"""The command-line surface: exit codes, JSON schema conformance, and the
round-trip of printed group literals."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from fuchs.cli import _parse, main
from fuchs.abelian import FinAbGroup, parse_group, format_group
from fuchs.tnlab import EXAMPLE_NAMES
from test_cli_golden import QUERIES

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "src" / "fuchs" / "data" /
     "verdict-schema.json").read_text(encoding="utf-8"))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return code, doc


class TestDecide:
    def test_exit_codes(self, capsys):
        assert run(capsys, "decide", "--class", "any", "Z/4Z x Z/16Z")[0] == 0
        assert run(capsys, "decide", "--class", "any", "Z/4Z x Z/32Z")[0] == 1
        assert run(capsys, "decide", "--class", "tn", "Z/4Z x Z/8Z x Z")[0] == 2
        assert run(capsys, "decide", "--class", "any", "garbage")[0] == 3

    def test_spec_example(self, capsys):
        code, doc = run_json(capsys, "decide", "--class", "any", "Z/4Z x Z/16Z")
        assert code == 0
        assert doc["verdict"] == "realisable"
        assert doc["certificate"]["fermat_prime"] == 17

    def test_finite_class(self, capsys):
        code, doc = run_json(capsys, "decide", "--class", "finite", "Z/328Z")
        assert code == 1 and doc["verdict"] == "not_realisable"
        assert run(capsys, "decide", "--class", "finite", "Z/2Z x Z")[0] == 3

    def test_tn_class(self, capsys):
        code, doc = run_json(capsys, "decide", "--class", "tn", "Z/328Z x Z")
        assert code == 0 and doc["theorem"] == "tn-rank-threshold"

    def test_witness_rebuild_beyond_the_cap_is_unchecked(self, capsys,
                                                          monkeypatch):
        # rebuilding the F_5 witness needs the unit group of a ring of
        # order 5 > 4: the verdict stands, unchecked, instead of exit 3
        monkeypatch.setenv("FUCHS_ORACLE_CAP", "4")
        code, doc = run_json(capsys, "decide", "--class", "finite",
                             "Z/4Z x Z/16Z")
        assert code == 0 and doc["verdict"] == "realisable"
        assert doc["checked"] is False

    def test_usage_error_leaves_the_next_query_unchanged(self, capsys):
        query = ("decide", "--class", "any", "Z/4Z x Z/16Z", "--json")
        alone = run(capsys, *query)
        assert run(capsys, "decide", "--no-such-flag")[0] == 3
        again = run(capsys, *query)
        assert again[:2] == alone[:2]


class TestRank:
    def test_paper_numbers(self, capsys):
        code, doc = run_json(capsys, "rank", "Z/8Z x Z/41Z")
        assert code == 0
        assert doc == {"kind": "rank", "group": "Z/8Z x Z/41Z",
                       "g": 79, "r": 1, "case": "C1"}

    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "rank", "Z/8Z x Z/41Z")
        assert "g(Z/8Z x Z/41Z) = 79" in out and "r = 1 (case C1)" in out

    def test_rejects_bad_input(self, capsys):
        assert run(capsys, "rank", "Z/9Z")[0] == 3       # odd order
        assert run(capsys, "rank", "Z/8Z x Z")[0] == 3   # free part


class TestOracles:
    def test_radical_oracle_p2(self, capsys):
        code, doc = run_json(capsys, "oracle", "radical", "--prime", "2",
                             "--exp", "3")
        assert code == 0
        assert doc["classes"] == 16
        assert doc["violations"] == []
        assert doc["mismatches"]  # the p = 2 gap is visible
        assert doc["byott_holds"] is True

    def test_radical_oracle_odd(self, capsys):
        code, doc = run_json(capsys, "oracle", "radical", "--prime", "3",
                             "--exp", "2")
        assert code == 0
        assert doc["mismatches"] == [] and doc["violations"] == []

    @pytest.mark.parametrize("prime, exp, named", [
        ("2", "0", "exponent k = 0"), ("2", "-2", "exponent k = -2"),
        ("6", "2", "p = 6"), ("1", "2", "p = 1")])
    def test_radical_oracle_bad_arguments_exit_3(self, capsys, prime, exp,
                                                 named):
        code, out, err = run(capsys, "oracle", "radical", "--prime", prime,
                             "--exp", exp)
        assert code == 3 and out == ""
        assert "Traceback" not in err and named in err

    def test_finring_corpus(self, capsys):
        code, doc = run_json(capsys, "oracle", "finring", "--corpus")
        assert code == 0
        assert doc["all_local_formulas_hold"] is True
        assert len(doc["rings"]) >= 40

    def test_finring_file(self, capsys, tmp_path):
        from fuchs.finring import zn_ring
        path = tmp_path / "z9.ring"
        path.write_text(zn_ring(9).to_presentation(), encoding="utf-8")
        code, doc = run_json(capsys, "oracle", "finring", str(path))
        assert code == 0
        assert doc["rings"][0]["units"] == "Z/2Z x Z/3Z"

    @pytest.mark.parametrize("n, local, structures", [(9, True, 2),
                                                      (6, False, 0)])
    def test_finring_searches_units_once_per_ring(self, capsys, tmp_path,
                                                  monkeypatch, n, local,
                                                  structures):
        # localize, unit_group and verify_local_formula share one unit
        # search, and a non-local ring is split before any; a local ring
        # recovers two structures, A* and 1 + m, counted wherever they run
        # (finring or the radical ring of m)
        import fuchs.finring as finring
        import fuchs.radical as radical
        calls = {"unit_elements": 0, "abelian_structure": 0}
        for module, name in ((finring, "unit_elements"),
                             (finring, "abelian_structure"),
                             (radical, "abelian_structure")):
            inner = getattr(module, name)

            def counted(*args, _inner=inner, _name=name, **kwargs):
                calls[_name] += 1
                return _inner(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        path = tmp_path / f"z{n}.ring"
        path.write_text(finring.zn_ring(n).to_presentation(), encoding="utf-8")
        code, doc = run_json(capsys, "oracle", "finring", str(path))
        assert code == 0 and doc["rings"][0]["local"] is local
        assert calls == {"unit_elements": int(local),
                         "abelian_structure": structures}


class TestModels:
    def test_nil_torsion_computed_once_per_model(self, capsys, tmp_path,
                                                 monkeypatch):
        # the report and the construction reuse the N_tors that
        # validate_model computed when the model was built
        import fuchs.tnlab as tnlab
        calls = []
        inner = tnlab.nil_torsion
        monkeypatch.setattr(tnlab, "nil_torsion",
                            lambda A: calls.append(A.name) or inner(A))
        model = tnlab.build_construction_model(4, FinAbGroup.from_orders([3, 3]))
        assert len(calls) == 1
        path = tmp_path / "c.tn"
        path.write_text(model.to_presentation(), encoding="utf-8")
        for argv in (["model", str(path)], ["example", "paper-7-1"]):
            calls.clear()
            code, doc = run_json(capsys, *argv)
            assert code == 0 and doc["nil_torsion"]
            assert len(calls) == 1, argv

    def test_example_reports(self, capsys):
        code, doc = run_json(capsys, "example", "paper-7-1")
        assert code == 0
        assert doc["nil_torsion"] == "Z/2Z x Z/2Z x Z/2Z x Z/2Z"
        assert doc["adjoint"] == "Z/2Z x Z/2Z x Z/4Z"
        assert doc["torsion_units"] == "Z/2Z x Z/2Z x Z/4Z x Z/8Z"
        assert doc["sequence_splits"] is False

    def test_model_file_flags(self, capsys, tmp_path):
        from fuchs.tnlab import load_example
        path = tmp_path / "m.tn"
        path.write_text(load_example("paper-7-2-v4").to_presentation(),
                        encoding="utf-8")
        code, doc = run_json(capsys, "model", str(path), "--torsion-units")
        assert code == 0 and doc["torsion_units"] == "Z/4Z x Z/8Z"
        code, doc = run_json(capsys, "model", str(path), "--sequence")
        assert code == 0 and doc["sequence_splits"] is False

    @staticmethod
    def _structure_recoveries(capsys, monkeypatch, path):
        import fuchs.radical as radical
        import fuchs.tnlab as tnlab
        tnlab._torsion_unit_data.cache_clear()
        tnlab.adjoint_of_nil_torsion.cache_clear()
        calls = []
        inner = tnlab.abelian_structure
        for module in (tnlab, radical):
            monkeypatch.setattr(module, "abelian_structure",
                                lambda *args: calls.append(1) or inner(*args))
        code, doc = run_json(capsys, "model", str(path))
        assert code == 0
        return doc, len(calls)

    def test_one_plus_n_recovered_once_per_model(self, capsys, tmp_path,
                                                 monkeypatch):
        # the report's 1 + N_tors and the unit sweep share one structure
        # recovery, run by the component's RadicalRing.adjoint_group;
        # B*_tors takes one, and A*_tors none, since Z/4 and Z/13 share
        # no prime
        import fuchs.tnlab as tnlab
        path = tmp_path / "c.tn"
        path.write_text(tnlab.build_construction_model(
            4, FinAbGroup.from_orders([13])).to_presentation(), encoding="utf-8")
        doc, calls = self._structure_recoveries(capsys, monkeypatch, path)
        assert doc["torsion_units"] == "Z/4Z x Z/13Z"
        assert calls == 2

    def test_shared_prime_swept_once(self, capsys, tmp_path, monkeypatch):
        # B*_tors and 1 + N_tors are both 2-groups: one more recovery, of
        # the Sylow 2-subgroup of A*_tors
        from fuchs.tnlab import load_example
        path = tmp_path / "v4.tn"
        path.write_text(load_example("paper-7-2-v4").to_presentation(),
                        encoding="utf-8")
        doc, calls = self._structure_recoveries(capsys, monkeypatch, path)
        assert doc["torsion_units"] == "Z/4Z x Z/8Z"
        assert calls == 3

    def test_generator_of_infinite_order_exits_3(self, capsys, tmp_path):
        # Z[sqrt 2]: x^2 = 2 has no root of unity, so the walk of x stops
        # at its cap of 4096 powers, quickly and without a traceback
        import time
        path = tmp_path / "sqrt2.tn"
        path.write_text("kind = tn\nconductor = 1\nfree_basis = u x\n"
                        "mult u u = u\nmult u x = x\nmult x x = 2*u\n",
                        encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run(capsys, "model", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert "Traceback" not in err
        assert "generator has no small multiplicative order" in err

    @pytest.mark.parametrize("order", [0, 1, -2])
    def test_bad_torsion_order_exits_3(self, capsys, tmp_path, order):
        path = tmp_path / "bad.tn"
        path.write_text(f"""\
name = bad
kind = tn
conductor = 4
free_basis = u
tors_basis = y:{order}
scalar_action y = y
mult u u = u
mult u y = y
mult y y = 0
""", encoding="utf-8")
        code, out, err = run(capsys, "model", str(path))
        assert code == 3 and out == ""
        assert "Traceback" not in err and "torsion order of y" in err

    def test_missing_file(self, capsys):
        assert run(capsys, "model", "/nonexistent.tn")[0] == 3


_TN = """\
name = t
kind = tn
conductor = 4
free_basis = u
tors_basis = y:2
scalar_action y = y
mult u u = u
mult u y = y
mult y y = 0
"""

_RING = """\
kind = ring
basis_orders = 4 4
one = 1 0
mult[1][1] = 1 0
mult[1][2] = 0 1
mult[2][2] = 0 0
"""


def _edit(doc, old, new):
    assert old in doc
    return doc.replace(old, new)


# (document, the message fragment that names the symbol, key or line)
_MALFORMED = {
    "tn-scalar-key-without-symbol": (
        _edit(_TN, "scalar_action y = y", "scalar_action = 2*y"),
        "'scalar_action = 2*y'"),
    "tn-mult-key-one-symbol": (_TN + "mult y = 0\n", "'mult y = 0'"),
    "tn-mult-key-three-symbols": (_TN + "mult y y y = 0\n", "'mult y y y = 0'"),
    "tn-torsion-symbol-twice": (
        _edit(_TN, "tors_basis = y:2", "tors_basis = y:2 y:2"), "'y'"),
    "tn-free-symbol-twice": (
        _edit(_TN, "free_basis = u", "free_basis = u u"), "'u'"),
    "tn-symbol-free-and-torsion": (
        _edit(_TN, "free_basis = u", "free_basis = u y"), "'y'"),
    "tn-conductor-0": (_edit(_TN, "conductor = 4", "conductor = 0"), "conductor"),
    "tn-conductor-negative": (
        _edit(_TN, "conductor = 4", "conductor = -4"), "conductor"),
    # above the fixed cap of 256, refused before Z[zeta_k] is built
    "tn-conductor-above-cap": (
        _edit(_TN, "conductor = 4", "conductor = 257"), "conductor 257"),
    "tn-conductor-huge": (
        _edit(_TN, "conductor = 4", "conductor = 99999999999"),
        "conductor 99999999999"),
    "tn-undeclared-mult-symbol": (_TN + "mult u zz = 0\n", "'zz'"),
    "tn-undeclared-scalar-symbol": (_TN + "scalar_action u = y\n", "'u'"),
    "tn-repeated-mult": (_TN + "mult u y = 0\n", "'mult u y = 0'"),
    "tn-repeated-mult-swapped": (_TN + "mult y u = y\n", "'mult y u = y'"),
    "tn-repeated-scalar": (_TN + "scalar_action y = y\n", "'scalar_action y = y'"),
    "tn-missing-free-basis": (_edit(_TN, "free_basis = u\n", ""), "free_basis"),
    "tn-missing-mult": (_edit(_TN, "mult y y = 0\n", ""), "missing mult y y"),
    "tn-missing-scalar-action": (
        _edit(_TN, "scalar_action y = y\n", ""), "missing scalar_action for y"),
    # a header key given twice is refused, not overwritten by the last value
    "tn-repeated-conductor": (_TN + "conductor = 1\n", "repeated key 'conductor'"),
    "tn-repeated-free-basis": (
        _TN + "free_basis = u\n", "repeated key 'free_basis'"),
    "ring-repeated-basis-orders": (
        _RING + "basis_orders = 6 6\n", "repeated key 'basis_orders'"),
    "ring-mult-i-above-j": (_RING + "mult[2][1] = 0 1\n", "mult[2][1]"),
    "ring-mult-index-above-rank": (_RING + "mult[1][3] = 0 0\n", "mult[1][3]"),
    "ring-mult-index-zero": (_RING + "mult[0][1] = 0 0\n", "mult[0][1]"),
    "ring-repeated-mult": (_RING + "mult[1][2] = 0 1\n", "mult[1][2]"),
    "ring-missing-one": (_edit(_RING, "one = 1 0\n", ""), "one"),
    "ring-missing-mult": (
        _edit(_RING, "mult[2][2] = 0 0\n", ""), "missing mult[2][2]"),
    # a malformed number names its key or symbol
    "tn-torsion-order-missing": (
        _edit(_TN, "tors_basis = y:2", "tors_basis = y"), "torsion order of y"),
    "tn-torsion-order-not-integer": (
        _edit(_TN, "tors_basis = y:2", "tors_basis = y:two"), "torsion order of y"),
    "tn-conductor-not-integer": (
        _edit(_TN, "conductor = 4", "conductor = 4.0"), "conductor"),
    "ring-basis-order-not-integer": (
        _edit(_RING, "basis_orders = 4 4", "basis_orders = 4 x"), "basis_orders"),
    "ring-one-not-integer": (_edit(_RING, "one = 1 0", "one = 1 o"), "one:"),
    "ring-mult-not-integer": (
        _edit(_RING, "mult[1][2] = 0 1", "mult[1][2] = 0 1/2"), "mult[1][2]"),
    "ring-prime-not-integer": ("prime = p\n" + _RING, "prime"),
    "ring-with-prime": ("prime = 7\n" + _RING, "'prime'"),
    # `oracle finring` reads unital rings only
    "ring-radical-document": (
        "kind = radical\nprime = 2\nbasis_orders = 4\nmult[1][1] = 2\n",
        "not a unital-ring document"),
    "ring-kind-missing": (
        _edit(_RING, "kind = ring\n", ""), "not a unital-ring document"),
}


class TestMalformedDocuments:
    @pytest.mark.parametrize("suffix, doc", [(".tn", _TN), (".ring", _RING)])
    def test_base_documents_are_accepted(self, capsys, tmp_path, suffix, doc):
        path = tmp_path / f"ok{suffix}"
        path.write_text(doc, encoding="utf-8")
        argv = ["model"] if suffix == ".tn" else ["oracle", "finring"]
        assert run(capsys, *argv, str(path))[0] == 0

    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_rejected_with_exit_3(self, capsys, tmp_path, case):
        doc, fragment = _MALFORMED[case]
        tn = case.startswith("tn-")
        path = tmp_path / ("bad.tn" if tn else "bad.ring")
        path.write_text(doc, encoding="utf-8")
        argv = ["model"] if tn else ["oracle", "finring"]
        code, out, err = run(capsys, *argv, str(path))
        assert code == 3 and out == ""
        assert "Traceback" not in err and fragment in err, err


class TestTable:
    def test_cyclic_table(self, capsys):
        code, doc = run_json(capsys, "table", "cyclic", "--max", "20")
        assert code == 0
        rows = {row["n"]: row for row in doc["rows"]}
        assert rows[6]["finite"] == "realisable"
        assert rows[6]["tn_rank0"] == "realisable"
        assert rows[8]["tn_rank0"] == "not_realisable"
        assert rows[8]["min_rank_any"] == 0   # 8 = 3^2 - 1 covers it
        assert rows[9]["min_rank_any"] is None

    @pytest.mark.parametrize("bound", ["1", "0", "-5"])
    def test_max_below_two_exits_3(self, capsys, bound):
        code, out, err = run(capsys, "table", "cyclic", "--max", bound)
        assert code == 3 and out == ""
        assert "Traceback" not in err
        assert f"--max must be at least 2, got {bound}" in err

    def test_jobs_flag_is_gone(self, capsys):
        assert run(capsys, "table", "cyclic", "--max", "12", "--jobs", "2")[0] == 3


def _reference_parser() -> argparse.ArgumentParser:
    # the argparse tree the command line was read with before the table in
    # fuchs.cli replaced it; the table's parser must read argv the same way
    top = argparse.ArgumentParser(prog="fuchs")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide realisability of a group")
    p.add_argument("--class", dest="ring_class", default="any",
                   choices=["finite", "tn", "any"])
    p.add_argument("group", help='group literal, e.g. "Z/4Z x Z/8Z x Z^2"')
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("rank", help="print g(T) and r(T) with case tag")
    p.add_argument("group", help="finite group literal with cyclic 2-part")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("oracle", help="run a brute-force verification")
    osub = p.add_subparsers(dest="oracle_kind", required=True)
    orad = osub.add_parser("radical")
    orad.add_argument("--prime", type=int, required=True)
    orad.add_argument("--exp", type=int, required=True)
    orad.add_argument("--json", action="store_true")
    ofin = osub.add_parser("finring")
    ofin.add_argument("file", nargs="?")
    ofin.add_argument("--corpus", action="store_true")
    ofin.add_argument("--json", action="store_true")

    p = sub.add_parser("model", help="evaluate a TN model file")
    p.add_argument("file")
    p.add_argument("--torsion-units", action="store_true")
    p.add_argument("--sequence", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("example", help="reproduce a shipped example model")
    p.add_argument("name", choices=sorted(EXAMPLE_NAMES))
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("table", help="tabulate verdicts")
    tsub = p.add_subparsers(dest="table_kind", required=True)
    tcyc = tsub.add_parser("cyclic")
    tcyc.add_argument("--max", type=int, required=True)
    tcyc.add_argument("--json", action="store_true")
    return top


def _reference(argv):
    """The attributes the reference parser sets, or None if it rejects."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_reference_parser().parse_args(argv))
        except SystemExit:
            return None


_ARGVS = [
    *(list(q) for q in QUERIES), *([*q, "--json"] for q in QUERIES),
    ["decide", "--class=tn", "Z/8Z"], ["decide", "--cl", "tn", "Z/8Z"],
    ["rank", "--js", "Z/8Z"], ["decide", "--class", "nope", "Z/8Z"],
    ["decide", "--class"], ["decide", "--j", "--c=finite", "Z/8Z"],
    ["table", "cyclic", "--max", "-5"],
    ["oracle", "radical", "--prime", "3", "--exp", "-2"],
    ["oracle", "radical", "--prime", "3", "--exp"],
    ["oracle", "radical", "--prime", "x", "--exp", "2"],
    ["oracle", "radical", "--prime", "3"],
    ["oracle", "radical", "--exp=2", "--prime=3", "--json"],
    ["decide"], ["decide", "A", "B"], ["decide", "--json=1", "Z/8Z"],
    ["table", "cyclic", "--max", "12", "--jobs", "2"], ["decide", "-x", "Z/8Z"],
    ["decide", "--", "Z/4Z"], ["decide", "--json", "--", "-Z/4Z"],
    ["oracle"], ["table"], [], ["nope"], ["oracle", "nope"], ["--json"],
    ["example", "nope"], ["example", "paper-7-1", "extra"],
    ["oracle", "finring"], ["oracle", "finring", "ring.txt", "--corpus"],
    ["model", "--sequence", "--torsion-units", "m.tn"], ["model", "--s", "m.tn"],
    ["model"], ["decide", "--json", "--class", "tn", "Z/8Z"],
    ["decide", "--class", "tn", "--class", "finite", "Z/8Z"],
    ["table", "cyclic", "--max", "7", "--max", "9"],
]


class TestParser:
    @pytest.mark.parametrize("argv", _ARGVS, ids=repr)
    def test_reads_argv_as_the_reference_parser(self, capsys, argv):
        expected = _reference(argv)
        if expected is None:
            with pytest.raises(ValueError):
                _parse(argv)
            code, out, err = run(capsys, *argv)
            assert code == 3 and out == "" and err.startswith("fuchs: error: ")
        else:
            _, args = _parse(argv)
            assert {k: getattr(args, k) for k in expected} == expected

    @pytest.mark.parametrize("argv", [
        ["-h"], ["--help"], ["--he"], ["decide", "-h"], ["oracle", "-h"],
        ["oracle", "radical", "--prime", "3", "--help"],
        ["table", "cyclic", "-h"],
    ], ids=repr)
    def test_help_prints_usage_and_exits_0(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 0 and out.startswith("usage: fuchs ") and err == ""
        # after a command, only that command's lines
        prefix = " ".join(w for w in argv if w.isalpha())
        assert all(f"fuchs {prefix}" in line for line in out.splitlines())

    def test_usage_lists_every_command(self, capsys):
        out = run(capsys, "-h")[1]
        for path in ("decide", "rank", "oracle radical", "oracle finring",
                     "model", "example", "table cyclic"):
            assert f"fuchs {path} " in out
        assert "--prime INT --exp INT" in out and "{any,finite,tn}" in out


def _cli(*argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    return subprocess.run([sys.executable, "-m", "fuchs.cli", *argv],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))


def test_module_entry_point_reads_sys_argv():
    done = _cli("decide", "--class", "any", "Z/4Z x Z/16Z", "--json")
    assert done.returncode == 0, done.stderr
    jsonschema.validate(json.loads(done.stdout), SCHEMA)
    for argv in (["-h"], ["decide", "-h"]):
        done = _cli(*argv)
        assert done.returncode == 0 and done.stdout.strip(), argv
    done = _cli("decide", "--no-such-flag")
    assert done.returncode == 3 and done.stdout == ""
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("fuchs: error: ")


class TestRoundTrip:
    def test_printed_literals_reparse(self, capsys):
        for text in ("Z/4Z x Z/8Z x Z^2", "z/600z", "1", "Z x Z"):
            grp = parse_group(text)
            printed = format_group(grp)
            assert parse_group(printed) == grp


def test_import_leaves_out_dataclasses_and_inspect():
    # start-up cost: ``dataclasses`` pulls in inspect, ast, dis and
    # tokenize, and ``argparse`` the gettext machinery, which nothing the
    # CLI runs needs; -S keeps site hooks out
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = ("import sys, fuchs.cli; print(sorted(m for m in sys.modules "
             "if m in ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize', "
             "'argparse')))")
    done = subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
