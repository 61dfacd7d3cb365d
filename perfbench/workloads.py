"""Seeded inputs for the two benchmark workloads.

``generate(name, seed, workdir)`` returns the op list of one workload: each
op is ``{"argv": [...], "check": {...}}``, where ``argv`` goes to
``fuchs.cli.main`` and ``check`` tells :mod:`checks` what a correct output
is.  Ring and TN model files are written into ``workdir`` here, before any
timing starts, so the program only ever sees generated inputs.  The same
seed gives the same op list and the same files.

Each workload is a fixed list of slots; the seed fills every slot from a
narrow band or a stratum of inputs of near-equal cost, so the work per run
barely moves with the seed.  ``decide-stream`` is the decider's query
stream; ``oracles`` chains the three brute-force oracle families (radical
rings, finite rings, TN models) in one op list.
"""

from __future__ import annotations

import random
from math import lcm, prod
from pathlib import Path

from checks import factor, group_type

WORKLOADS = ("decide-stream", "oracles")

# ---------------------------------------------------------------------------
# decide-stream

EXP_BOUND = 500_000       # every group exponent stays at or below this
NEAR_BAND = 0.9           # "near the bound": exponent in [0.9, 1] x bound
N_NEAR = 12               # near-bound finite queries (the O(exp) sieve)
RANDOM_EXP_CAP = 5_000    # exponent cap for the random bulk of the stream
RANDOM_ODD_CAP = 30       # odd-part cap: keeps TN witness rebuilds small
N_RANDOM_PER_CLASS = 40
N_RANK = 10
# Odd H for TN witness rebuilds of near-equal cost (witness order 2|H| stays
# within the 700 cap); two are drawn and each is queried at r = 0 and 1.
WITNESS_MENU = ([243], [13, 13], [3, 5, 7], [169])
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
MID_PRIMES = (17, 19, 23, 29, 31, 37, 41, 43)

ANCHORS = (  # README and paper anchors with their expected answers
    (["decide", "--class", "finite", "Z/328Z"],
     {"kind": "decide", "class": "finite", "verdict": "not_realisable"}),
    (["decide", "--class", "tn", "Z/328Z"],
     {"kind": "decide", "class": "tn", "verdict": "not_realisable"}),
    (["decide", "--class", "any", "Z/328Z"],
     {"kind": "decide", "class": "any", "verdict": "not_realisable"}),
    (["decide", "--class", "tn", "Z/328Z x Z"],
     {"kind": "decide", "class": "tn", "verdict": "realisable"}),
    (["decide", "--class", "any", "Z/4Z x Z/16Z"],
     {"kind": "decide", "class": "any", "verdict": "realisable",
      "fermat_prime": 17}),
    (["rank", "Z/8Z x Z/41Z"],
     {"kind": "rank", "two_exp": 3, "odd": [41], "r": 1, "case": "C1"}),
)


def primes_between(lo: int, hi: int) -> list[int]:
    if hi < 2:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, int(hi ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(range(p * p, hi + 1, p)))
    return [p for p in range(max(lo, 2), hi + 1) if sieve[p]]


def _prime_power(rng, primes, max_value=81) -> int:
    p = rng.choice(primes)
    e = 1
    while p ** (e + 1) <= max_value and rng.random() < 0.4:
        e += 1
    return p ** e


def literal(orders, rank=0) -> str:
    parts = [f"Z/{n}Z" for n in orders]
    parts += [] if rank == 0 else ["Z"] if rank == 1 else [f"Z^{rank}"]
    return " x ".join(parts)


def _random_group(rng) -> list[int]:
    while True:
        orders = [_prime_power(rng, SMALL_PRIMES if rng.random() < 0.85
                               else MID_PRIMES)
                  for _ in range(rng.randint(1, 8))]
        odd = prod(q for q in orders if q % 2)
        if lcm(*orders) <= RANDOM_EXP_CAP and odd <= RANDOM_ODD_CAP:
            return orders


def _near_bound_group(rng) -> list[int]:
    """A non-cyclic odd group whose exponent lies within NEAR_BAND of the
    bound: small factors sharing a prime, times one large prime."""
    lo = int(NEAR_BAND * EXP_BOUND)
    while True:
        small = [_prime_power(rng, (3, 5, 7), 27)
                 for _ in range(rng.randint(2, 4))]
        if len({min(factor(q)) for q in small}) == len(small):
            continue
        base = lcm(*small)
        big = [p for p in primes_between(-(-lo // base), EXP_BOUND // base)
               if base % p]
        if big:
            return small + [rng.choice(big)]


def _decide_stream(rng, workdir):
    ops = [(list(argv), dict(check)) for argv, check in ANCHORS]
    for _ in range(N_NEAR):
        ops.append((["decide", "--class", "finite",
                     literal(_near_bound_group(rng))],
                    {"kind": "decide", "class": "finite"}))
    for H in rng.sample(WITNESS_MENU, 2):
        # Z/2 x H with odd H is TN-realisable at every free rank, and its
        # certificate re-check rebuilds the construction witness (shared by
        # both queries through the worker's torsion-unit cache).
        for rank in (0, 1):
            ops.append((["decide", "--class", "tn", literal([2] + H, rank)],
                        {"kind": "decide", "class": "tn",
                         "verdict": "realisable"}))
    for _ in range(N_RANK):
        two_exp = rng.randint(1, 4)
        odd = [_prime_power(rng, SMALL_PRIMES[1:] + MID_PRIMES[:3])
               for _ in range(rng.randint(0, 4))]
        ops.append((["rank", literal([2 ** two_exp] + odd)],
                    {"kind": "rank", "two_exp": two_exp,
                     "odd": sorted(odd)}))
    for cls in ("finite", "tn", "any"):
        for _ in range(N_RANDOM_PER_CLASS):
            rank = 0 if cls == "finite" else rng.choice((0, 0, 1, 2))
            ops.append((["decide", "--class", cls,
                         literal(_random_group(rng), rank)],
                        {"kind": "decide", "class": cls}))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# oracles, radical family: every order, 5^3 (the mixed-type enumeration,
# ~9.4 s of the family's ~9.7 s) included

RADICAL_ORDERS = ((2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (5, 3))


def _radical_oracle(rng, workdir):
    return [(["oracle", "radical", "--prime", str(p), "--exp", str(k)],
             {"kind": "radical", "p": p, "k": k})
            for p, k in rng.sample(RADICAL_ORDERS, len(RADICAL_ORDERS))]


# ---------------------------------------------------------------------------
# oracles, finring family

UNIT_SWITCH = 256         # unit_elements: pairwise search up to here
ORDER_CAP = 4096          # unit-group cap

# Strata of rings with near-equal oracle cost (measured on a 2-vCPU box),
# cheapest first, with the number of distinct rings drawn from each: 19
# rings plus the --corpus op, about 3.5 s a round.  Every stratum is drawn
# from, so orders fall on both sides of UNIT_SWITCH and one ring of order
# 1024 (the top stratum) exposes the O(n^2) localize.  Specs: ("zn", n),
# ("field", q), ("gr", p, c, q) Galois ring, ("nil", n) Z/n[t]/(t^2),
# ("nilf", q) F_q[t]/(t^2), ("znt", n, d) Z/n[t]/(t^2, (n/d)t),
# ("prod", a, b) Z/a x Z/b, ("unit", c) Z/2^c + N for a random radical N of
# order 8.
FINRING_STRATA = (
    ((("field", 8), ("field", 9), ("zn", 30), ("field", 4), ("prod", 4, 9),
      ("gr", 2, 2, 4)), 2),                                          # ~5 ms
    ((("nil", 6), ("field", 16), ("zn", 60), ("nilf", 4), ("nil", 4),
      ("zn", 300), ("field", 25)), 3),                               # ~9 ms
    ((("zn", 400), ("zn", 500), ("field", 27)), 2),                  # ~15 ms
    ((("prod", 16, 25), ("zn", 800)), 1),                            # ~21 ms
    ((("prod", 32, 27), ("gr", 2, 3, 4), ("zn", 150), ("field", 257),
      ("nil", 12)), 3),                                              # ~50 ms
    ((("prod", 8, 27), ("zn", 625), ("prod", 5, 49), ("field", 211),
      ("field", 199)), 3),                                           # ~180 ms
    ((("gr", 3, 3, 9), ("unit", 4), ("zn", 512), ("field", 233),
      ("gr", 5, 2, 25)), 2),                                         # ~280 ms
    ((("gr", 2, 3, 8), ("field", 251), ("field", 907)), 1),          # ~350 ms
    ((("zn", 256), ("gr", 2, 5, 4)), 1),                             # ~530 ms
    ((("zn", 1024), ("nil", 32), ("znt", 512, 2), ("znt", 256, 4),
      ("znt", 128, 8)), 1),                                          # ~1 s
)   # plus the --corpus op, ~260 ms


def _build_ring(rng, spec):
    from fuchs import finring as F
    from fuchs.radical import enumerate_radical_rings

    kind, *args = spec
    if kind == "zn":
        return F.zn_ring(*args)
    if kind == "field":
        return F.field_ring(*args)
    if kind == "gr":
        return F.galois_ring(*args)
    if kind == "nil":
        return F.nilpotent_extension(F.zn_ring(*args))
    if kind == "nilf":
        return F.nilpotent_extension(F.field_ring(*args))
    if kind == "znt":
        return F.zn_with_nilpotent(*args)
    if kind == "prod":
        return F.product_ring(F.zn_ring(args[0]), F.zn_ring(args[1]))
    (c,) = args
    N = rng.choice([N for N in enumerate_radical_rings(2, 3)
                    if max(N.exponents) <= c])
    return F.unitalization(N, c)


def _finring_oracle(rng, workdir):
    specs = [spec for menu, n in FINRING_STRATA for spec in rng.sample(menu, n)]
    ops = []
    for i, spec in enumerate(specs):
        ring = _build_ring(rng, spec)
        path = workdir / f"ring{i:02d}.ring"
        path.write_text(ring.to_presentation(), encoding="utf-8")
        check = {"kind": "finring", "rings": 1, "order": ring.order()}
        if spec[0] in ("zn", "field") and ring.rank() == 1:   # Z/n or F_p
            check["zn"] = ring.order()
        ops.append((["oracle", "finring", str(path)], check))
    ops.append((["oracle", "finring", "--corpus"],
                {"kind": "finring", "rings": 47}))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# oracles, TN-model family

EXAMPLES = {  # acceptance criteria 2 and 3
    "paper-7-1": {"nil_torsion": [2, 2, 2, 2], "adjoint": [2, 2, 4],
                  "torsion_units": [2, 2, 4, 8]},
    "paper-7-2-v2": {"torsion_units": [4, 4]},
    "paper-7-2-v4": {"torsion_units": [4, 8]},
}
# Strata of construction models (k, H) with near-equal cost, cheapest
# first, with the number of distinct models drawn from each (a repeated
# model would hit the worker's torsion-unit cache): 20 models plus the
# three examples, about 4.3 s a round.  The second stratum is drawn whole,
# so k = 2, 4 and 8 all occur; |H| runs from 9 to 729.
TN_STRATA = (
    (((2, [3, 3]), (2, [11])), 2),                                   # ~12 ms
    (((4, [13]), (2, [25]), (2, [5, 5]), (2, [27]), (8, [3, 3])), 5),  # ~27 ms
    (((4, [17]), (2, [3, 3, 3]), (4, [25]), (4, [5, 5])), 3),        # ~37 ms
    (((2, [81]), (4, [37]), (2, [3, 3, 3, 3]), (4, [41])), 2),       # ~110 ms
    (((2, [125]), (4, [9, 9]), (4, [3, 3, 5]), (2, [11, 11]),
      (2, [5, 5, 5]), (8, [41]), (4, [61])), 3),                     # ~175 ms
    (((2, [121]), (4, [5, 13])), 1),                                 # ~210 ms
    (((2, [243]), (2, [3, 5, 7]), (2, [13, 13])), 1),                # ~340 ms
    (((2, [289]), (8, [13, 13])), 1),                                # ~650 ms
    (((2, [19, 19]), (4, [289])), 1),                                # ~880 ms
    (((2, [25, 25]), (2, [27, 27])), 1),                             # ~1.1 s
)


def _tn_models(rng, workdir):
    from fuchs.abelian import FinAbGroup
    from fuchs.tnlab import build_construction_model

    ops = [(["example", name], {"kind": "model", "expect": expect})
           for name, expect in EXAMPLES.items()]
    pairs = [pair for menu, n in TN_STRATA for pair in rng.sample(menu, n)]
    for i, (k, H) in enumerate(pairs):
        model = build_construction_model(k, FinAbGroup.from_orders(H))
        path = workdir / f"model{i:02d}.tn"
        path.write_text(model.to_presentation(), encoding="utf-8")
        ops.append((["model", str(path)],
                    {"kind": "model", "k": k, "H": H,
                     "expect": {"torsion_units": [k] + H, "nil_torsion": H,
                                "adjoint": H}}))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------

def _oracles(rng, workdir):
    """The three oracle families one after another, each shuffled."""
    return (_radical_oracle(rng, workdir) + _finring_oracle(rng, workdir)
            + _tn_models(rng, workdir))


def describe(name: str, ops: list[dict]) -> dict:
    """Input properties of a generated op list, for the run record."""
    out: dict = {"ops": len(ops)}
    if name == "decide-stream":
        exps = [lcm(*group_type(" x ".join(
                    p for p in op["argv"][3].split(" x ") if p.startswith("Z/"))))
                for op in ops if op["argv"][0] == "decide"]
        near = sum(e >= NEAR_BAND * EXP_BOUND for e in exps)
        out.update(exp_bound=EXP_BOUND, max_exp=max(exps), near_bound=near,
                   near_share=round(near / len(ops), 4),
                   rank_ops=len(ops) - len(exps))
        return out
    checks = [op["check"] for op in ops]
    orders = [c["order"] for c in checks if "order" in c]
    sizes = [prod(c["H"]) for c in checks if "H" in c]
    out.update(radical_orders=[c["p"] ** c["k"] for c in checks
                               if c["kind"] == "radical"],
               rings=len(orders),
               below_256=sum(o < UNIT_SWITCH for o in orders),
               from_256_to_1023=sum(UNIT_SWITCH <= o < 1024 for o in orders),
               from_1024_to_4096=sum(1024 <= o <= ORDER_CAP for o in orders),
               max_order=max(orders),
               corpus_ops=sum(c["kind"] == "finring" and "order" not in c
                              for c in checks),
               models=len(sizes), h_min=min(sizes), h_max=max(sizes),
               k_values=sorted({c["k"] for c in checks if "H" in c}))
    return out


_GENERATORS = {"decide-stream": _decide_stream, "oracles": _oracles}


def generate(name: str, seed: int, workdir: Path) -> list[dict]:
    rng = random.Random(f"{name}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    ops = _GENERATORS[name](rng, workdir)
    return [{"argv": argv + ["--json"], "check": check}
            for argv, check in ops]
