"""Command-line front end.

Exit codes are pipeline-friendly: 0 for Realisable or a verification pass,
1 for NotRealisable or a verification failure, 2 for Unknown, 3 for usage
or parse errors.  ``--json`` switches every subcommand to a machine-readable
document validating against the shipped schema; FUCHS_ORACLE_CAP overrides
the enumeration caps.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .abelian import FgAbGroup, FinAbGroup, format_group, parse_group
from .finring import FinCommRing, NotLocal, build_corpus, localize, \
    unit_group, verify_local_formula
from .radical import check_byott, check_small_theorem, enumerate_radical_rings
from .realize import (certificate_check_status, decide_any, decide_finite,
                      decide_tn, ge_classify, g_value, r_value,
                      verdict_to_json, mersenne_split, GeClass)
from .tnlab import (TnModel, adjoint_of_nil_torsion, load_example, sequence_splits,
                    torsion_units, quotient_torsion_units, EXAMPLE_NAMES)
from .verdict import Verdict

EXIT_REALISABLE = 0
EXIT_NOT_REALISABLE = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3


# built on the first call, not at import, and reused by every later main()
@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
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


def _emit(args, payload: dict, human: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)


def _cmd_decide(args) -> int:
    G = parse_group(args.group)
    decide = {"finite": lambda g: decide_finite(g.torsion),
              "tn": decide_tn, "any": decide_any}[args.ring_class]
    if args.ring_class == "finite" and G.free_rank:
        print("the finite-ring class takes a finite group (no Z^r factor)",
              file=sys.stderr)
        return EXIT_USAGE
    v = decide(G)
    if not v.is_unknown:
        v = Verdict(v.kind, v.theorem, v.query, v.ring_class, v.certificate,
                    v.obstruction, v.gap,
                    checked=certificate_check_status(v) == "pass")
    # the human line serialises the payload, so build it only to print it
    human = "" if args.json else (
        f"{format_group(G)} [{args.ring_class}]: {v.kind} ({v.theorem})\n"
        f"  {json.dumps(v.payload(), sort_keys=True)}")
    _emit(args, verdict_to_json(v), human)
    return {"realisable": EXIT_REALISABLE,
            "not_realisable": EXIT_NOT_REALISABLE,
            "unknown": EXIT_UNKNOWN}[v.kind]


def _cmd_rank(args) -> int:
    G = parse_group(args.group)
    if G.free_rank:
        print("rank takes the torsion part only", file=sys.stderr)
        return EXIT_USAGE
    T = G.torsion
    g = g_value(T)
    ge = ge_classify(T)
    if isinstance(ge, GeClass):
        r, case = r_value(ge)
        payload = {"kind": "rank", "group": format_group(T), "g": g,
                   "r": r, "case": case}
        human = f"g({format_group(T)}) = {g}; r = {r} (case {case})"
    else:
        payload = {"kind": "rank", "group": format_group(T), "g": g,
                   "r": None, "case": None,
                   "reason": ge.reason}
        human = f"g({format_group(T)}) = {g}; r undefined: {ge.reason}"
    _emit(args, payload, human)
    return EXIT_REALISABLE


def _cmd_oracle_radical(args) -> int:
    rings = enumerate_radical_rings(args.prime, args.exp)
    report = check_small_theorem(args.prime, args.exp)
    byott = None
    if args.prime == 2 and args.exp >= 3:
        byott = all(check_byott(N) for N in rings)
    payload = {
        "kind": "oracle-radical",
        "p": args.prime, "k": args.exp,
        "classes": len(report.entries),
        "violations": [_entry_json(e) for e in report.violations],
        "mismatches": [_entry_json(e) for e in report.mismatches],
        "byott_holds": byott,
    }
    lines = [f"{len(report.entries)} isomorphism classes of commutative "
             f"radical rings of order {args.prime}^{args.exp}"]
    for e in report.mismatches:
        lines.append(f"  additive {e['additive']} != adjoint {e['adjoint']}"
                     f"  (rank {e['prank']})")
    if not report.mismatches:
        lines.append("  additive and adjoint groups agree on every class")
    if byott is not None:
        lines.append(f"  cyclic-adjoint-implies-cyclic-additive: "
                     f"{'holds' if byott else 'FAILS'}")
    lines.append(f"  small-rank violations: {len(report.violations)}")
    _emit(args, payload, "\n".join(lines))
    ok = not report.violations and (byott is None or byott)
    return EXIT_REALISABLE if ok else EXIT_NOT_REALISABLE


def _entry_json(e) -> dict:
    return {"additive": str(e["additive"]), "adjoint": str(e["adjoint"]),
            "prank": e["prank"], "small": e["small"]}


def _verify_one_ring(A) -> dict:
    data = localize(A)
    if isinstance(data, NotLocal):
        return {"ring": A.name or str(A), "local": False,
                "idempotent": list(data.idempotent)}
    group = unit_group(A, units=data.units)
    return {"ring": A.name or str(A), "local": True,
            "p": data.p, "lam": data.lam,
            "units": str(group),
            "local_formula": verify_local_formula(A, data=data, group=group)}


def _cmd_oracle_finring(args) -> int:
    if args.corpus:
        rings = build_corpus()
    elif args.file:
        with open(args.file, encoding="utf-8") as fh:
            rings = [FinCommRing.from_presentation(fh.read())]
    else:
        print("need a FILE or --corpus", file=sys.stderr)
        return EXIT_USAGE
    results = [_verify_one_ring(A) for A in rings]
    ok = all(r.get("local_formula", True) for r in results)
    payload = {"kind": "oracle-finring", "rings": results,
               "all_local_formulas_hold": ok}
    lines = []
    for rres in results:
        if rres["local"]:
            lines.append(f"{rres['ring']}: local ({rres['p']},{rres['lam']}), "
                         f"A* = {rres['units']}, "
                         f"formula {'ok' if rres['local_formula'] else 'FAILS'}")
        else:
            lines.append(f"{rres['ring']}: not local, idempotent "
                         f"{rres['idempotent']}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_REALISABLE if ok else EXIT_NOT_REALISABLE


def _model_report(model: TnModel) -> dict:
    return {
        "kind": "model",
        "name": model.name,
        "nil_torsion": str(model.n_tors.additive_group()),
        "adjoint": str(adjoint_of_nil_torsion(model)),
        "quotient_torsion_units": str(quotient_torsion_units(model)),
        "torsion_units": str(torsion_units(model)),
        "sequence_splits": sequence_splits(model),
    }


def _print_model_report(rep: dict) -> str:
    return (f"model {rep['name']}\n"
            f"  N_tors          = {rep['nil_torsion']}\n"
            f"  1 + N_tors      = {rep['adjoint']}\n"
            f"  (A/N)*_tors     = {rep['quotient_torsion_units']}\n"
            f"  A*_tors         = {rep['torsion_units']}\n"
            f"  sequence splits = {rep['sequence_splits']}")


def _cmd_model(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        model = TnModel.from_presentation(fh.read())
    if args.torsion_units and not args.sequence:
        val = torsion_units(model)
        _emit(args, {"kind": "model", "name": model.name,
                     "torsion_units": str(val)},
              f"A*_tors = {val}")
        return EXIT_REALISABLE
    if args.sequence and not args.torsion_units:
        val = sequence_splits(model)
        _emit(args, {"kind": "model", "name": model.name,
                     "sequence_splits": val},
              f"sequence splits = {val}")
        return EXIT_REALISABLE
    rep = _model_report(model)
    _emit(args, rep, _print_model_report(rep))
    return EXIT_REALISABLE


def _cmd_example(args) -> int:
    model = load_example(args.name)
    rep = _model_report(model)
    _emit(args, rep, _print_model_report(rep))
    return EXIT_REALISABLE


def _cyclic_row(n: int) -> dict:
    fin = decide_finite(FinAbGroup.from_orders([n]))
    tn = decide_tn(FgAbGroup(FinAbGroup.from_orders([n]), 0))
    if fin.is_realisable:
        min_rank = 0
    elif n % 2 == 0:
        min_rank = mersenne_split(n)[0]
    else:
        min_rank = None
    return {"n": n, "finite": fin.kind, "tn_rank0": tn.kind,
            "min_rank_any": min_rank}


def _cmd_table_cyclic(args) -> int:
    if args.max < 2:
        raise ValueError(f"--max must be at least 2, got {args.max}")
    rows = [_cyclic_row(n) for n in range(2, args.max + 1)]
    payload = {"kind": "table-cyclic", "max": args.max, "rows": rows}
    lines = [f"{'n':>5}  {'finite':<16}{'tn (r=0)':<16}{'min rank (any)'}"]
    for row in rows:
        mr = row["min_rank_any"]
        lines.append(f"{row['n']:>5}  {row['finite']:<16}{row['tn_rank0']:<16}"
                     f"{mr if mr is not None else 'not realisable'}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_REALISABLE


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_REALISABLE
    try:
        if args.command == "decide":
            return _cmd_decide(args)
        if args.command == "rank":
            return _cmd_rank(args)
        if args.command == "oracle":
            if args.oracle_kind == "radical":
                return _cmd_oracle_radical(args)
            return _cmd_oracle_finring(args)
        if args.command == "model":
            return _cmd_model(args)
        if args.command == "example":
            return _cmd_example(args)
        if args.command == "table":
            return _cmd_table_cyclic(args)
        raise AssertionError(args.command)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
