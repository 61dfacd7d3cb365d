"""Tri-state decision outcomes with re-checkable payloads."""

from __future__ import annotations

from .record import Frozen, _set

REALISABLE = "realisable"
NOT_REALISABLE = "not_realisable"
UNKNOWN = "unknown"


class Verdict(Frozen):
    """Outcome of one realisability decision.

    Exactly one of ``certificate``, ``obstruction``, ``gap`` is populated,
    matching ``kind``; ``theorem`` names the classification rule that
    produced the outcome.  ``realize.certificate_check`` re-checks a
    certificate with the proof bound to its (class, theorem) pair, and an
    obstruction by running the class's decider again and comparing the two
    verdicts for equality.  ``checked`` (whether the payload re-checked)
    takes no part in equality or hashing.
    """

    _repr_fields = ("kind", "theorem", "query", "ring_class", "certificate",
                    "obstruction", "gap", "checked")
    _uncompared = ("checked",)

    def __init__(self, kind: str, theorem: str, query: str, ring_class: str,
                 certificate: dict | None = None,
                 obstruction: dict | None = None, gap: dict | None = None,
                 checked: bool = False):
        _set(self, "kind", kind)
        _set(self, "theorem", theorem)
        _set(self, "query", query)
        _set(self, "ring_class", ring_class)
        _set(self, "certificate", certificate)
        _set(self, "obstruction", obstruction)
        _set(self, "gap", gap)
        _set(self, "checked", checked)
        if kind not in (REALISABLE, NOT_REALISABLE, UNKNOWN):
            raise ValueError(f"bad verdict kind {kind}")
        payloads = [certificate, obstruction, gap]
        expected = {REALISABLE: 0, NOT_REALISABLE: 1, UNKNOWN: 2}[kind]
        for idx, payload in enumerate(payloads):
            if (payload is not None) != (idx == expected):
                raise ValueError("verdict payload does not match its kind")

    @property
    def is_realisable(self) -> bool:
        return self.kind == REALISABLE

    @property
    def is_not_realisable(self) -> bool:
        return self.kind == NOT_REALISABLE

    @property
    def is_unknown(self) -> bool:
        return self.kind == UNKNOWN

    def payload(self) -> dict:
        return self.certificate or self.obstruction or self.gap or {}


def realisable(theorem, query, ring_class, certificate) -> Verdict:
    return Verdict(REALISABLE, theorem, query, ring_class, certificate=certificate)


def not_realisable(theorem, query, ring_class, obstruction) -> Verdict:
    return Verdict(NOT_REALISABLE, theorem, query, ring_class, obstruction=obstruction)


def unknown(theorem, query, ring_class, gap) -> Verdict:
    return Verdict(UNKNOWN, theorem, query, ring_class, gap=gap)
