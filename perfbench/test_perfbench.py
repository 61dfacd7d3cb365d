"""Tests for the benchmark itself: seeded generation, self-time
arithmetic, the tracer's bindings and the output checks."""

import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

VALIDATOR = jsonschema.Draft202012Validator(json.loads(
    (ROOT / "src" / "fuchs" / "data" / "verdict-schema.json").read_text()))


def _generated(name, seed, tmp_path):
    workdir = tmp_path / f"{name}-{seed}"
    ops = workloads.generate(name, seed, workdir)
    files = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
    for op in ops:      # paths differ between the two directories
        op["argv"] = [Path(a).name if a.startswith(str(tmp_path)) else a
                      for a in op["argv"]]
    return ops, files


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_a_function_of_the_seed(name, tmp_path):
    first = _generated(name, 7, tmp_path / "a")
    assert first == _generated(name, 7, tmp_path / "b")
    assert first != _generated(name, 8, tmp_path / "c")


def test_decide_stream_keeps_its_strata(tmp_path):
    ops = workloads.generate("decide-stream", 3, tmp_path)
    info = workloads.describe("decide-stream", ops)
    assert info["near_bound"] == workloads.N_NEAR
    assert info["max_exp"] <= workloads.EXP_BOUND
    argvs = [op["argv"] for op in ops]
    assert ["decide", "--class", "any", "Z/4Z x Z/16Z", "--json"] in argvs


@pytest.mark.parametrize("seed", (1, 2))
def test_oracles_keep_every_family(seed, tmp_path):
    ops = workloads.generate("oracles", seed, tmp_path)
    info = workloads.describe("oracles", ops)
    assert sorted(info["radical_orders"]) == [4, 8, 9, 25, 27, 125]
    assert info["below_256"] and info["from_256_to_1023"]
    assert info["from_1024_to_4096"] and info["max_order"] <= workloads.ORDER_CAP
    assert info["corpus_ops"] == 1
    assert info["k_values"] == [2, 4, 8]
    assert info["h_min"] < 16 and info["h_max"] > 600


def test_self_times_on_a_synthetic_nest():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7] and a second
    # call of b [7.5, 8]
    spans = [("a", 0.0, 10.0, -1, 0), ("b", 1.0, 4.0, 0, 0),
             ("c", 5.0, 9.0, 0, 0), ("d", 6.0, 7.0, 2, 0),
             ("b", 7.5, 8.0, 2, 0)]
    got = tracing.self_times(spans)
    assert got["a"] == (1, pytest.approx(3.0))
    assert got["b"] == (2, pytest.approx(3.5))
    assert got["c"] == (1, pytest.approx(2.5))
    assert got["d"] == (1, pytest.approx(1.0))
    total = sum(secs for _, secs in got.values())
    assert total == pytest.approx(10.0)


def test_traced_worker_wraps_every_binding(tmp_path):
    ops = tmp_path / "ops.json"
    ops.write_text(json.dumps([
        ["decide", "--class", "finite", "Z/2Z x Z/4Z x Z/3Z", "--json"],
        ["oracle", "radical", "--prime", "2", "--exp", "2", "--json"]]))
    result, spans = tmp_path / "result.json", tmp_path / "spans.tsv"
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(ops),
                    str(result), "1", str(spans)], check=True, timeout=120)
    doc = json.loads(result.read_text())
    layers = doc["layers"]
    assert layers["cli.main"][0] == 2
    # bound in fuchs.cli by "from .realize import ..."
    assert layers["realize.decide_finite"][0] >= 1
    # bound in fuchs.radical by "from .abelian import ..."
    assert layers["abelian.abelian_structure"][0] >= 1
    assert doc["counts"]["radical.classes"] == 4
    assert sum(doc["counts"][f"realize.certificate.{s}"]
               for s in ("pass", "fail", "uncheckable")) == 1
    assert len(spans.read_text().splitlines()) > 1
    assert 5 < doc["peak_rss_mb"] < 500


def _decide_doc(verdict="not_realisable", checked=True):
    payload = {"realisable": "certificate", "not_realisable": "obstruction",
               "unknown": "gap"}[verdict]
    return {"query": "Z/328Z", "class": "finite", "verdict": verdict,
            "theorem": "cyclic-finite-units", "checked": checked,
            payload: {"m": 328}}


def _check(check, code, doc):
    return checks.check_op(check, code, json.dumps(doc), VALIDATOR)


def test_checker_accepts_and_flags_decide_outputs():
    check = {"kind": "decide", "class": "finite", "verdict": "not_realisable"}
    assert _check(check, 1, _decide_doc()) is None
    assert _check(check, 0, _decide_doc("realisable")) is not None
    assert _check(check, 0, _decide_doc()) is not None          # exit code
    assert _check(check, 1, _decide_doc(checked=False)) is not None
    assert _check(check, 3, {"bogus": 1}) is not None            # schema
    assert checks.check_op(check, None, "", VALIDATOR) is not None


def test_checker_knows_uncheckable_witnesses():
    doc = {"query": "Z/2Z x Z/1009Z", "class": "tn", "verdict": "realisable",
           "theorem": "tn-rank-threshold", "checked": False,
           "certificate": {"bad_primes": [], "epsilon": 1,
                           "adjoined_torsion": "Z/1009Z"}}
    check = {"kind": "decide", "class": "tn"}
    assert _check(check, 0, doc) is None
    doc["certificate"]["adjoined_torsion"] = "Z/7Z"
    assert _check(check, 0, doc) is not None


def test_checker_flags_wrong_radical_class_count():
    doc = {"kind": "oracle-radical", "p": 2, "k": 3, "classes": 16,
           "violations": [], "mismatches": [], "byott_holds": True}
    check = {"kind": "radical", "p": 2, "k": 3}
    assert _check(check, 0, doc) is None
    assert _check(check, 0, dict(doc, classes=15)) is not None
    assert _check(check, 0, dict(doc, byott_holds=False)) is not None


def test_checker_recomputes_zn_units():
    assert checks.zn_units(9) == [2, 3]
    assert checks.zn_units(32) == [2, 8]
    assert checks.zn_units(1024) == [2, 256]
    ring = {"ring": "Z/9Z", "local": True, "p": 3, "lam": 1,
            "units": "Z/6Z", "local_formula": True}
    doc = {"kind": "oracle-finring", "rings": [ring],
           "all_local_formulas_hold": True}
    check = {"kind": "finring", "rings": 1, "zn": 9}
    assert _check(check, 0, doc) is None
    ring["units"] = "Z/2Z x Z/2Z"
    assert _check(check, 0, doc) is not None
    doc["rings"] = [{"ring": "Z/12Z", "local": False, "idempotent": [4]}]
    assert _check(dict(check, zn=12), 0, doc) is None
    doc["rings"][0]["idempotent"] = [5]
    assert _check(dict(check, zn=12), 0, doc) is not None


def test_checker_compares_model_groups():
    doc = {"kind": "model", "name": "m", "torsion_units": "Z/12Z x Z/5Z"}
    check = {"kind": "model", "expect": {"torsion_units": [4, 3, 5]}}
    assert _check(check, 0, doc) is None
    doc["torsion_units"] = "Z/4Z x Z/5Z"
    assert _check(check, 0, doc) is not None


def test_g_closed_form_matches_the_paper():
    assert checks.g_closed_form(3, [41]) == 79
    assert checks.g_closed_form(3, []) == 1
    assert checks.g_closed_form(1, []) == 0
