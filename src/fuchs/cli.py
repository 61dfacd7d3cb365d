"""Command-line front end.

Exit codes are pipeline-friendly: 0 for Realisable or a verification pass,
1 for NotRealisable or a verification failure, 2 for Unknown, 3 for usage
or parse errors.  ``--json`` switches every subcommand to a machine-readable
document validating against the shipped schema; FUCHS_ORACLE_CAP overrides
the enumeration caps.
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace

from .abelian import FgAbGroup, FinAbGroup, format_group, parse_group
from .finring import FinCommRing, NotLocal, build_corpus, localize, \
    unit_group, verify_local_formula
from .radical import check_byott, check_small_theorem, enumerate_radical_rings
from .realize import (certificate_check_status, decide_finite, decide_tn,
                      decider, ge_classify, g_value, r_value,
                      verdict_to_json, mersenne_split, GeClass)
from .tnlab import (TnModel, adjoint_of_nil_torsion, load_example, sequence_splits,
                    torsion_units, quotient_torsion_units, EXAMPLE_NAMES)
from .verdict import Verdict

EXIT_REALISABLE = 0
EXIT_NOT_REALISABLE = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3


# a token such as -5 is a value: no option looks like a negative number
_is_option = re.compile(r"-(?!\d*\.?\d+$).").match


def _metavar(kind) -> str:
    return "" if kind is None else " INT" if kind is int else \
        " {" + ",".join(kind) + "}"


def _usage(path: str) -> str:
    """Usage lines of every command under ``path`` ("" for all of them)."""
    lines = []
    for name, (positionals, options, required, _) in _COMMANDS.items():
        if f"{name} ".startswith(f"{path} ".lstrip()):
            words = [opt + _metavar(kind) if opt in required else
                     f"[{opt}{_metavar(kind)}]" for opt, kind in options.items()]
            words += [f"[{pos[:-1].upper()}]" if pos[-1] == "?" else
                      _metavar(kind).strip() or pos.upper()
                      for pos, kind in positionals.items()]
            lines.append(" ".join(["fuchs", name, *words]))
    return "usage: " + "\n       ".join(lines)


def _convert(name: str, kind, token: str):
    try:
        if kind is None or kind is not int and token in kind:
            return token
        if kind is int:
            return int(token)
    except ValueError:
        pass
    raise ValueError(f"{name} takes{_metavar(kind)}, got {token!r}")


def _parse(argv: list[str]):
    """The command path and the namespace the _cmd_* functions read, or the
    path and its usage text on -h/--help; ValueError on other bad input."""
    args, path, given, values, rest = SimpleNamespace(), "", {}, [], iter(argv)
    for token in rest:
        options = _COMMANDS[path][1] if path in _COMMANDS else {}
        if token == "--":
            values.extend(rest)
        elif _is_option(token):
            name, eq, value = token.partition("=")
            names = (*options, "--help", "-h")
            hits = [n for n in names if n == name] or [
                n for n in names if name[:2] == "--" and n.startswith(name)]
            if len(hits) != 1:
                raise ValueError(f"{'ambiguous' if hits else 'unrecognized'} "
                                 f"option {name!r}")
            opt, kind = hits[0], options.get(hits[0])
            if opt in ("--help", "-h"):
                return path, _usage(path)
            if kind is not None and not eq:
                value = next(rest, None)
                eq = value is not None and not _is_option(value)
            if bool(eq) != (kind is not None):
                raise ValueError(f"{opt} {'needs a' if kind else 'takes no'} "
                                 f"value: {token!r}")
            given[opt] = True if kind is None else _convert(opt, kind, value)
        elif path in _COMMANDS:
            values.append(token)
        else:
            setattr(args, f"{path}_kind" if path else "command", token)
            path = f"{path} {token}".lstrip()
            if not any(f"{name} ".startswith(f"{path} ") for name in _COMMANDS):
                raise ValueError(f"no command {path!r}")
    if path not in _COMMANDS:
        raise ValueError(f"{('fuchs ' + path).strip()!r} needs a command")
    positionals, options, required, _ = _COMMANDS[path]
    for opt, kind in options.items():
        default = kind[0] if isinstance(kind, tuple) else None if kind else False
        setattr(args, "ring_class" if opt == "--class" else
                opt[2:].replace("-", "_"), given.get(opt, default))
    if not sum(p[-1] != "?" for p in positionals) <= len(values) <= len(positionals):
        raise ValueError(f"{path} takes {', '.join(positionals)}, got {values!r}")
    for k, (pos, kind) in enumerate(positionals.items()):
        setattr(args, pos.rstrip("?"),
                _convert(pos, kind, values[k]) if k < len(values) else None)
    if any(opt not in given for opt in required):
        raise ValueError(f"{path} needs {', '.join(required)}")
    return path, args


def _emit(args, payload: dict, human: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)


def _cmd_decide(args) -> int:
    G = parse_group(args.group)
    if args.ring_class == "finite" and G.free_rank:
        print("the finite-ring class takes a finite group (no Z^r factor)",
              file=sys.stderr)
        return EXIT_USAGE
    v = decider(args.ring_class)(G)
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


# Each command path maps to its positionals, options, required options and
# handler.  A kind is None (a flag, or free text), int, or a tuple of
# choices whose first is the default; a positional ending in "?" may be left
# out.  --class stores to ring_class, every other option to its name with -
# turned into _.
_COMMANDS = {
    "decide": ({"group": None},
               {"--class": ("any", "finite", "tn"), "--json": None}, (),
               _cmd_decide),
    "rank": ({"group": None}, {"--json": None}, (), _cmd_rank),
    "oracle radical": ({}, {"--prime": int, "--exp": int, "--json": None},
                       ("--prime", "--exp"), _cmd_oracle_radical),
    "oracle finring": ({"file?": None}, {"--corpus": None, "--json": None}, (),
                       _cmd_oracle_finring),
    "model": ({"file": None}, {"--torsion-units": None, "--sequence": None,
                               "--json": None}, (), _cmd_model),
    "example": ({"name": tuple(sorted(EXAMPLE_NAMES))}, {"--json": None}, (),
                _cmd_example),
    "table cyclic": ({}, {"--max": int, "--json": None}, ("--max",),
                     _cmd_table_cyclic),
}


def main(argv=None) -> int:
    try:
        path, args = _parse(sys.argv[1:] if argv is None else argv)
    except ValueError as exc:
        print(f"fuchs: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if isinstance(args, str):
        print(args)
        return EXIT_REALISABLE
    try:
        return _COMMANDS[path][3](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
