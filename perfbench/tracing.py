"""Spans around the public functions of each fuchs module, recorded from
outside the package.

A traced worker calls :func:`install`, which replaces every binding of a
listed function in every loaded ``fuchs`` module namespace with a wrapper,
so ``fuchs.cli.decide_finite`` is traced as well as
``fuchs.realize.decide_finite``.  Spans live in memory as tuples
``(name, start, end, parent, op)``; :func:`self_times` turns them into the
per-layer ``calls`` and ``self_s`` metrics.
"""

from __future__ import annotations

import functools
import sys
import time

# Layer = module; the public functions whose calls and self time are kept.
LAYERS = {
    "cli": ("main",),
    "abelian": ("parse_group", "abelian_structure", "smith_normal_form",
                "pgroup_basis"),
    "numtheory": ("factorize", "pearson_schneider_covers",
                  "mersenne_divisor_set", "cyclotomic_poly",
                  "factor_cyclo_mod"),
    "realize": ("decide_finite", "decide_tn", "decide_any",
                "certificate_check_status", "g_value", "ge_classify"),
    "radical": ("enumerate_radical_rings", "validate_radical",
                "check_small_theorem", "check_byott",
                "radical_ring_from_mult"),
    "finring": ("validate_ring", "unit_elements", "unit_group", "localize",
                "verify_local_formula", "maximal_ideal_ring"),
    "tnlab": ("validate_model", "nil_torsion", "adjoint_of_nil_torsion",
              "torsion_units", "quotient_torsion_units", "sequence_splits",
              "build_construction_model"),
    "presentation": ("parse_ring_document", "parse_tn_document"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

COUNTERS = (
    "realize.verdict.realisable", "realize.verdict.not_realisable",
    "realize.verdict.unknown",
    "realize.certificate.pass", "realize.certificate.fail",
    "realize.certificate.uncheckable",
    "radical.classes", "finring.elements_scanned", "finring.local_rings",
)


class Tracer:
    """In-memory span recorder with one open-span stack (the CLI is
    single-threaded, so spans nest strictly)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.op = -1
        self._stack: list[int] = []
        self._enumerated: set = set()

    def call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op)
        self._count(name, args, result)
        return result

    def _count(self, name, args, result) -> None:
        """Counters taken at the layer boundary from a call's arguments and
        result.  Every decider call counts, nested ones included; radical
        classes count once per (p, k), since the CLI asks the cached
        enumeration twice per oracle run."""
        counts = self.counts
        if name in ("realize.decide_finite", "realize.decide_tn",
                    "realize.decide_any"):
            counts[f"realize.verdict.{result.kind}"] += 1
        elif name == "realize.certificate_check_status":
            counts[f"realize.certificate.{result}"] += 1
        elif name == "radical.enumerate_radical_rings":
            if args[:2] not in self._enumerated:
                self._enumerated.add(args[:2])
                counts["radical.classes"] += len(result)
        elif name == "finring.unit_elements":
            counts["finring.elements_scanned"] += args[0].order()
        elif name == "finring.localize":
            if not hasattr(result, "idempotent"):
                counts["finring.local_rings"] += 1


def install(tracer: Tracer) -> None:
    """Wrap every binding of every listed function in the loaded fuchs
    modules."""
    modules = [m for key, m in sorted(sys.modules.items())
               if m is not None and (key == "fuchs" or key.startswith("fuchs."))]
    for mod_name, fns in LAYERS.items():
        defining = sys.modules[f"fuchs.{mod_name}"]
        for fn_name in fns:
            original = getattr(defining, fn_name)
            wrapper = _wrap(tracer, f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return traced


def self_times(spans) -> dict[str, tuple[int, float]]:
    """``{name: (calls, self seconds)}``.  A span's self time is its
    duration minus the part of its interval covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, list] = {}
    for idx, (name, start, end, _parent, _op) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        entry = out.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - covered
    return {name: (calls, secs) for name, (calls, secs) in out.items()}
