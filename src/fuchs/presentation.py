"""Shared text format for ring and TN-model presentations.

One document per object.  Lines are ``key = value`` pairs; ``#`` starts a
comment.  Three kinds are supported:

``kind = radical``
    prime, basis_orders, and symmetric ``mult[i][j] = c1 c2 ...`` rows
    (1-based indices, i <= j), each value a coordinate vector.

``kind = ring``
    like radical but with arbitrary basis orders, no ``prime``, and an
    extra ``one = c1 c2 ...`` row for the identity coordinates.

``kind = tn``
    conductor (1 to ``caps.TN_CONDUCTOR_CAP``, else CapExceeded),
    free_basis (symbol names, first one is the identity), tors_basis
    (``name:order`` pairs), ``scalar_action name = ...`` rows giving the
    base root of unity acting on each torsion symbol, and ``mult a b = ...``
    rows over all basis symbols.  Values on free symbols
    are integer polynomials in ``z`` (the base root of unity), e.g.
    ``(1+2z^2)*x``; values on torsion symbols are plain integers.

Ring tables arrive and leave in the pair order of ``table.pairs``, and so
do the TN rows, over the free then the torsion symbols: a product is a
tuple of z-polynomials, one per free symbol, and a tuple of integers, one
per torsion symbol, and a ``scalar_action`` row is one such integer tuple
per torsion symbol.  The symbol names stay in this module.  Every row must
be given, and a key other than a ``mult`` or ``scalar_action`` row may
appear only once.

Round-trip guarantee: ``parse(print(obj)) == obj`` for every emitted
document.
"""

from __future__ import annotations

import re

from .caps import TN_CONDUCTOR_CAP, CapExceeded
from .table import pairs


class PresentationError(ValueError):
    pass


def _entries(text: str):
    """(key, value, line) per line with content; rows are left to their
    parsers, which know when two spellings name one entry."""
    seen = set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise PresentationError(f"bad line: {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key.startswith(("mult", "scalar_action")):
            if key in seen:
                raise PresentationError(f"repeated key {key!r}")
            seen.add(key)
        yield key, value.strip(), line


def _int(token: str, where: str) -> int:
    """``int(token)``, or a PresentationError that names ``where``."""
    try:
        return int(token)
    except ValueError:
        raise PresentationError(f"{where}: {token!r} is not an integer") from None


def _intvec(s: str, key: str) -> tuple[int, ...]:
    return tuple(_int(tok, key) for tok in s.split())


_MULT_RE = re.compile(r"^mult\[(\d+)\]\[(\d+)\]$")


_KIND_NOUNS = {"radical": "radical-ring", "ring": "unital-ring"}


def parse_ring_document(text: str, kind: str | None = None) -> dict:
    """Parse a ``radical`` or ``ring`` document into a plain dict; ``mult``
    is the table in the pair order of ``table.pairs``.  Given ``kind``, a
    document of the other kind is refused."""
    fields: dict = {}
    rows = {}  # (i, j), 1-based -> coordinate vector
    for key, value, _ in _entries(text):
        m = _MULT_RE.match(key)
        if m:
            i, j = int(m.group(1)), int(m.group(2))
            if (i, j) in rows:
                raise PresentationError(f"repeated key {key!r}")
            rows[(i, j)] = _intvec(value, key)
        elif key == "kind":
            fields["kind"] = value
        elif key == "prime":
            fields["prime"] = _int(value, key)
        elif key == "basis_orders":
            fields["basis_orders"] = _intvec(value, key)
        elif key == "one":
            fields["one"] = _intvec(value, key)
        elif key == "name":
            fields["name"] = value
        else:
            raise PresentationError(f"unknown key {key!r}")
    if kind and fields.get("kind") != kind:
        raise PresentationError(f"not a {_KIND_NOUNS[kind]} document")
    if fields.get("kind") not in _KIND_NOUNS:
        raise PresentationError("document kind must be 'radical' or 'ring'")
    if "basis_orders" not in fields:
        raise PresentationError("missing basis_orders")
    required, foreign = (("one", "prime") if fields["kind"] == "ring"
                         else ("prime", "one"))
    if required not in fields:
        raise PresentationError(f"missing {required}")
    if foreign in fields:
        raise PresentationError(
            f"key {foreign!r} does not belong in a {fields['kind']} document")
    r = len(fields["basis_orders"])
    for i, j in rows:
        if not 1 <= i <= j <= r:
            raise PresentationError(
                f"mult[{i}][{j}] needs indices 1 <= i <= j <= {r}")
    for i, j in pairs(r):
        if (i + 1, j + 1) not in rows:
            raise PresentationError(f"missing mult[{i + 1}][{j + 1}]")
    fields["mult"] = tuple(rows[i + 1, j + 1] for i, j in pairs(r))
    return fields


def format_ring_document(kind: str, basis_orders, mult, one=None, prime=None, name=None) -> str:
    lines = []
    if name:
        lines.append(f"name = {name}")
    lines.append(f"kind = {kind}")
    if prime is not None:
        lines.append(f"prime = {prime}")
    lines.append("basis_orders = " + " ".join(str(n) for n in basis_orders))
    if one is not None:
        lines.append("one = " + " ".join(str(c) for c in one))
    for (i, j), vec in zip(pairs(len(basis_orders)), mult):
        lines.append(f"mult[{i + 1}][{j + 1}] = " + " ".join(str(c) for c in vec))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# TN documents: coefficients are integer polynomials in z


_TERM_RE = re.compile(r"^(?:\(([^()]*)\)|(-?\d+))(?:\*([A-Za-z]\w*))?$|^([A-Za-z]\w*)$")


def _parse_zpoly(s: str) -> tuple[int, ...]:
    """Parse '1+2z^2-z' into little-endian coefficients (1, -1, 2)."""
    s = s.replace(" ", "")
    if not s:
        raise PresentationError("empty coefficient")
    coeffs: dict[int, int] = {}
    for m in re.finditer(r"([+-]?)(\d*)(z(?:\^(\d+))?)?", s):
        sign, digits, zpart, power = m.groups()
        if not sign and not digits and not zpart:
            continue
        c = int(digits) if digits else 1
        if sign == "-":
            c = -c
        k = 0
        if zpart:
            k = int(power) if power else 1
        coeffs[k] = coeffs.get(k, 0) + c
    deg = max(coeffs) if coeffs else 0
    out = [coeffs.get(k, 0) for k in range(deg + 1)]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _format_zpoly(coeffs) -> str:
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            terms.append(f"{c:+d}")
        else:
            z = "z" if k == 1 else f"z^{k}"
            if c == 1:
                terms.append(f"+{z}")
            elif c == -1:
                terms.append(f"-{z}")
            else:
                terms.append(f"{c:+d}{z}")
    if not terms:
        return "0"
    joined = "".join(terms)
    return joined[1:] if joined.startswith("+") else joined


def parse_combination(s: str, free_names, tors_names):
    """Parse a sum like ``x + (1+z)*u + 3*y`` into coefficient maps.

    Returns (free: {name: zpoly}, tors: {name: int}).  The literal ``0``
    denotes the zero combination.
    """
    free: dict[str, tuple[int, ...]] = {}
    tors: dict[str, int] = {}
    s = s.replace(" ", "")
    if s == "0":
        return free, tors
    # split into top-level terms on +/- not inside parentheses
    terms = []
    depth = 0
    cur = ""
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0 and cur:
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    if cur:
        terms.append(cur)
    for term in terms:
        sign = 1
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        m = _TERM_RE.match(term)
        if not m:
            raise PresentationError(f"bad term {term!r}")
        paren, number, starred, bare = m.groups()
        name = starred or bare
        if paren is not None:
            coeff = _parse_zpoly(paren)
        elif number is not None:
            coeff = (int(number),)
        else:
            coeff = (1,)
        coeff = tuple(sign * c for c in coeff)
        if name is None:
            raise PresentationError(f"constant term {term!r} needs a basis symbol")
        if name in free_names:
            prev = free.get(name, ())
            width = max(len(prev), len(coeff))
            merged = tuple((prev[i] if i < len(prev) else 0) +
                           (coeff[i] if i < len(coeff) else 0) for i in range(width))
            free[name] = merged
        elif name in tors_names:
            if len(coeff) > 1:
                raise PresentationError(f"torsion coefficient must be an integer: {term!r}")
            tors[name] = tors.get(name, 0) + (coeff[0] if coeff else 0)
        else:
            raise PresentationError(f"unknown basis symbol {name!r}")
    return free, tors


def format_combination(free: dict, tors: dict) -> str:
    parts = []
    for name, poly in free.items():
        poly = list(poly)
        while poly and poly[-1] == 0:
            poly.pop()
        if not poly:
            continue
        if poly == [1]:
            parts.append(name)
        else:
            parts.append(f"({_format_zpoly(poly)})*{name}")
    for name, c in tors.items():
        if c == 0:
            continue
        if c == 1:
            parts.append(name)
        elif c > 0:
            parts.append(f"{c}*{name}")
        else:
            parts.append(f"({c})*{name}")  # parens keep the join '+'-safe
    return " + ".join(parts) if parts else "0"


def parse_tn_document(text: str) -> dict:
    """Parse a ``tn`` document into a plain dict.  Every basis symbol is
    declared once; a ``scalar_action`` key names one torsion symbol and a
    ``mult`` key two basis symbols, each key given exactly once.  The rows
    come back as tuples (module docstring), the coefficients unreduced."""
    fields: dict = {}
    pending = []
    for key, value, line in _entries(text):
        words = key.split()
        if key == "kind":
            fields["kind"] = value
        elif key == "name":
            fields["name"] = value
        elif key == "conductor":
            fields["conductor"] = _int(value, key)
            if fields["conductor"] < 1:
                raise PresentationError(
                    f"conductor must be >= 1, got {fields['conductor']}")
            if fields["conductor"] > TN_CONDUCTOR_CAP:
                raise CapExceeded(
                    f"conductor {fields['conductor']} is above the cap "
                    f"{TN_CONDUCTOR_CAP}")
        elif key == "free_basis":
            fields["free_basis"] = tuple(value.split())
        elif key == "tors_basis":
            symbols = []
            for tok in value.split():
                nm, _, order = tok.partition(":")
                order = _int(order, f"torsion order of {nm}")
                if order < 2:
                    raise PresentationError(f"torsion order of {nm} must be >= 2")
                symbols.append((nm, order))
            fields["tors_basis"] = tuple(symbols)
        elif words and words[0] in ("scalar_action", "mult"):
            if len(words) != (2 if words[0] == "scalar_action" else 3):
                raise PresentationError(f"bad key in line {line!r}")
            pending.append((words[0], tuple(words[1:]), value, line))
        else:
            raise PresentationError(f"unknown key {key!r}")
    if fields.get("kind") != "tn":
        raise PresentationError("document kind must be 'tn'")
    for required in ("conductor", "free_basis"):
        if required not in fields:
            raise PresentationError(f"missing {required}")
    fields.setdefault("tors_basis", ())
    free_names = fields["free_basis"]
    tors_names = tuple(nm for nm, _ in fields["tors_basis"])
    seen = set()
    for nm in free_names + tors_names:
        if nm in seen:
            raise PresentationError(f"basis symbol {nm!r} is listed twice")
        seen.add(nm)
    rows = {}  # (tag, frozenset of symbols) -> (free map, torsion map)
    for tag, symbols, value, line in pending:
        allowed = tors_names if tag == "scalar_action" else seen
        for nm in symbols:
            if nm not in allowed:
                what = "torsion" if tag == "scalar_action" else "basis"
                raise PresentationError(
                    f"unknown {what} symbol {nm!r} in line {line!r}")
        key = (tag, frozenset(symbols))
        if key in rows:
            raise PresentationError(f"repeated key in line {line!r}")
        rows[key] = parse_combination(
            value, () if tag == "scalar_action" else free_names, tors_names)

    def row(tag, symbols, missing):
        if (tag, frozenset(symbols)) not in rows:
            raise PresentationError(f"missing {missing}")
        free, tors = rows[tag, frozenset(symbols)]
        return (tuple(free.get(nm, ()) for nm in free_names),
                tuple(tors.get(nm, 0) for nm in tors_names))

    fields["scalar_action"] = tuple(
        row("scalar_action", (nm,), f"scalar_action for {nm}")[1]
        for nm in tors_names)
    names = free_names + tors_names
    fields["mult"] = tuple(
        row("mult", (names[a], names[b]), f"mult {names[a]} {names[b]}")
        for a, b in pairs(len(names)))
    return fields


def format_tn_document(name, conductor, free_names, tors_pairs, scalar_action, mult) -> str:
    """The document of a model whose rows are tuples in the layout that
    ``parse_tn_document`` returns."""
    lines = [f"name = {name}", "kind = tn", f"conductor = {conductor}"]
    lines.append("free_basis = " + " ".join(free_names))
    lines.append("tors_basis = " + " ".join(f"{nm}:{o}" for nm, o in tors_pairs))
    tors_names = tuple(nm for nm, _ in tors_pairs)
    for nm, col in zip(tors_names, scalar_action):
        lines.append(f"scalar_action {nm} = "
                     + format_combination({}, dict(zip(tors_names, col))))
    names = (*free_names, *tors_names)
    for (a, b), (free, tors) in zip(pairs(len(names)), mult):
        lines.append(f"mult {names[a]} {names[b]} = " + format_combination(
            dict(zip(free_names, free)), dict(zip(tors_names, tors))))
    return "\n".join(lines) + "\n"
