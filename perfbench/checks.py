"""Output checks for every benchmark op.

Each op carries a ``check`` dict written by the generator.  ``check_op``
returns ``None`` when the op's exit code and stdout are correct, else a
one-line reason; a reason counts the op as failed.  Expected values come
from the paper and README anchors or are recomputed here independently of
the program (unit groups of Z/n, the g(T) closed form, class counts).
"""

from __future__ import annotations

import json

EXIT_BY_VERDICT = {"realisable": 0, "not_realisable": 1, "unknown": 2}

# Certificate re-checks rebuild a TN construction witness only up to this
# order (WITNESS_CAP in fuchs.realize); above it the CLI reports
# checked=false by design.
WITNESS_CAP = 700

# Isomorphism classes of commutative radical rings of order p^k.
RADICAL_CLASSES = {(2, 2): 4, (2, 3): 16, (3, 2): 4, (5, 2): 4, (3, 3): 17,
                   (5, 3): 17}


def factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def primary(orders) -> list[int]:
    """Sorted prime-power orders of the cyclic group product."""
    out = []
    for n in orders:
        out.extend(p ** e for p, e in factor(n).items())
    return sorted(out)


def group_type(text: str) -> list[int]:
    """Primary decomposition of a printed finite group like
    ``Z/2Z x Z/12Z`` (``1`` is the trivial group)."""
    orders = []
    for piece in text.replace(" ", "").split("x"):
        if piece == "1":
            continue
        if not (piece.startswith("Z/") and piece.endswith("Z")):
            raise ValueError(f"not a finite group factor: {piece!r}")
        orders.append(int(piece[2:-1]))
    return primary(orders)


def zn_units(n: int) -> list[int]:
    """Primary type of (Z/n)* from the factorisation of n."""
    orders = []
    for p, e in factor(n).items():
        if p == 2:
            orders += [] if e == 1 else [2] if e == 2 else [2, 2 ** (e - 2)]
        else:
            orders += [p - 1, p ** (e - 1)]
    return primary(o for o in orders if o > 1)


def euler_phi(n: int) -> int:
    out = n
    for p in factor(n):
        out -= out // p
    return out


def g_closed_form(two_exp: int, odd: list[int]) -> int:
    """g(Z/2^eps x T_odd) by the paper's closed form, with T_odd given as
    prime-power orders."""
    total = sum(euler_phi(2 ** two_exp * q) // 2 - 1 for q in odd)
    if len({min(factor(q)) for q in odd}) != 1 and two_exp != 1:
        total += euler_phi(2 ** two_exp) // 2 - 1
    return total


def check_op(check: dict, code, stdout: str, validator) -> str | None:
    if code is None:
        return "raised an exception"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return f"exit {code}: stdout is not JSON"
    errors = sorted(validator.iter_errors(doc), key=str)
    if errors:
        return f"schema: {errors[0].message[:120]}"
    return _CHECKS[check["kind"]](check, code, doc)


def _check_decide(check, code, doc):
    verdict = doc["verdict"]
    if code != EXIT_BY_VERDICT[verdict]:
        return f"exit {code} for verdict {verdict}"
    if doc["class"] != check["class"]:
        return f"class {doc['class']} != {check['class']}"
    if "verdict" in check and verdict != check["verdict"]:
        return f"verdict {verdict} != {check['verdict']}"
    if "fermat_prime" in check and \
            doc.get("certificate", {}).get("fermat_prime") != check["fermat_prime"]:
        return "Fermat prime missing from certificate"
    if verdict != "unknown" and doc["checked"] != _checkable(doc):
        return f"checked={doc['checked']} on a {verdict} verdict"
    return None


def _checkable(doc) -> bool:
    """A certificate is re-derived unless its TN construction witness is
    beyond WITNESS_CAP."""
    cert = doc.get("certificate")
    if doc["theorem"] != "tn-rank-threshold" or cert is None or cert["bad_primes"]:
        return True
    order = 1
    for q in group_type(cert["adjoined_torsion"]):
        order *= q
    return order * 2 ** cert["epsilon"] <= WITNESS_CAP


def _check_rank(check, code, doc):
    if code != 0:
        return f"rank exit {code}"
    want = g_closed_form(check["two_exp"], check["odd"])
    if doc["g"] != want:
        return f"g = {doc['g']} != {want}"
    for key in ("r", "case"):
        if key in check and doc[key] != check[key]:
            return f"{key} = {doc[key]} != {check[key]}"
    return None


def _check_radical(check, code, doc):
    if code != 0:
        return f"radical exit {code}"
    want = RADICAL_CLASSES[(check["p"], check["k"])]
    if doc["classes"] != want:
        return f"{doc['classes']} classes != {want}"
    if doc["violations"]:
        return "small-rank violations reported"
    if doc["byott_holds"] is False:
        return "byott_holds is false"
    if (check["p"] == 2 and check["k"] >= 3) != (doc["byott_holds"] is True):
        return f"byott_holds = {doc['byott_holds']}"
    return None


def _check_finring(check, code, doc):
    if code != 0 or not doc["all_local_formulas_hold"]:
        return "local formula fails"
    rings = doc["rings"]
    if len(rings) != check["rings"]:
        return f"{len(rings)} rings != {check['rings']}"
    for entry in rings:
        if entry["local"] and entry["local_formula"] is not True:
            return f"{entry['ring']}: local formula fails"
        n = check.get("zn") or _zn_order(entry["ring"])
        if n is None:
            continue
        if entry["local"] != (len(factor(n)) == 1):
            return f"{entry['ring']}: local = {entry['local']}"
        if entry["local"] and group_type(entry["units"]) != zn_units(n):
            return f"{entry['ring']}: units {entry['units']}"
        if not entry["local"]:
            (e,) = entry["idempotent"]
            if e in (0, 1) or e * e % n != e:
                return f"{entry['ring']}: {e} is not a nontrivial idempotent"
    return None


def _zn_order(name: str) -> int | None:
    if name.startswith("Z/") and name.endswith("Z") and name[2:-1].isdigit():
        return int(name[2:-1])
    return None


def _check_model(check, code, doc):
    if code != 0:
        return f"model exit {code}"
    for key, want in check["expect"].items():
        if group_type(doc[key]) != primary(want):
            return f"{key} = {doc[key]} != {want}"
    return None


_CHECKS = {"decide": _check_decide, "rank": _check_rank,
           "radical": _check_radical, "finring": _check_finring,
           "model": _check_model}
