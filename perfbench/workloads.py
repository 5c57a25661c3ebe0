"""The benchmark's workloads: seeded op lists for the zqlab command line.

An op is one fresh `zqlab` process: a subcommand, the JSON config it
reads and its extra flags.  Op lists depend only on the workload name and
the seed, so the same seed always gives byte-identical op lists.

Seeds map onto a pool of POOL input variants (variant = seed % POOL).
Each variant's outputs were recorded once as the reference the checker
compares against, so every seed has a reference.  Within a workload the
variants differ in content (random subsets, sampling seeds) but not in
the amount of work, which keeps run-to-run spread small.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

POOL = 16

WORKLOADS = ("verify_large", "corr_scan", "sweep_grid")

SWEEP_PRIMES = (10007, 12889, 15727, 18583, 21467, 24317, 27179, 30011)
FERMAT_PRIMES = (151, 163, 173, 181, 191, 197)


@dataclass(frozen=True)
class Op:
    """One zqlab invocation: `zqlab <command> --config C --out O <args>`."""

    name: str
    command: str  # verify | corr | sweep
    config: dict
    args: tuple = ()

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "command": self.command,
            "config": self.config,
            "args": list(self.args),
        }


def variant(seed: int) -> int:
    return seed % POOL


def _rng(workload: str, v: int, tag: str) -> random.Random:
    return random.Random(f"{workload}:{v}:{tag}")


def random_subset(rng: random.Random, q: int) -> list:
    """A subset of Z_q with each residue in it with probability 1/2,
    neither empty nor all of Z_q."""
    while True:
        elems = [n for n in range(q) if rng.random() < 0.5]
        if 0 < len(elems) < q:
            return elems


def _explicit(q: int, elements) -> dict:
    return {"kind": "explicit", "params": {"q": q, "elements": list(elements)}}


def _budget(constant, shape="sqrt_log") -> dict:
    return {"constant": constant, "shape": shape}


def _verify_large(v: int) -> list:
    flags = ("--workers", "1", "--seed", str(v))
    qr = {
        "construction": {"kind": "quadratic_residues", "params": {"p": 1000003}},
        "derivations": [{"kind": "characteristic"}, {"kind": "gap_mod", "M": 3}],
        "analyses": [
            {"kind": "cardinality"},
            {"kind": "patterns", "sequence": "characteristic", "length": 12,
             "budget": _budget(32)},
            {"kind": "patterns", "sequence": "gap_mod", "length": 4,
             "budget": _budget(32)},
            {"kind": "sign_patterns", "window": 8, "budget": _budget(32)},
            {"kind": "correlation_sampled", "k": 2, "samples": 16},
        ],
    }
    index_range = {
        "construction": {"kind": "index_range",
                         "params": {"p": 1000003, "f": [0, 1], "r": 0, "s": 333334}},
        "derivations": [{"kind": "gap_threshold", "m": 3}],
        "analyses": [
            {"kind": "cardinality"},
            {"kind": "balance", "sequence": "gap_threshold", "budget": _budget(4)},
            {"kind": "patterns", "sequence": "gap_threshold", "length": 6,
             "budget": _budget(8)},
        ],
    }
    power_residues = {
        "construction": {"kind": "power_residues",
                         "params": {"p": 1000003, "d": 3, "f": [1, 0, 1]}},
        "derivations": [{"kind": "gap_mod", "M": 3}],
        "analyses": [
            {"kind": "cardinality"},
            {"kind": "balance", "sequence": "gap_mod", "budget": _budget(4)},
        ],
    }
    character = {
        "construction": {"kind": "character_argument",
                         "params": {"p": 100003, "order": 6, "additive": 1,
                                    "f": [0, 1], "g": [0, 0, 1], "alpha": 0,
                                    "beta": {"num": 1, "den": 3}}},
        "derivations": [{"kind": "characteristic"}],
        "analyses": [
            {"kind": "cardinality"},
            {"kind": "patterns", "sequence": "characteristic", "length": 4,
             "budget": _budget(8)},
        ],
    }
    return [
        Op("qr_1000003", "verify", qr, flags),
        Op("index_range_1000003", "verify", index_range, flags),
        Op("power_residues_1000003", "verify", power_residues, flags),
        Op("character_argument_100003", "verify", character, flags),
    ]


# The README `verify` experiment, verbatim.
README_EXPERIMENT = {
    "construction": {"kind": "quadratic_residues", "params": {"p": 10007}},
    "derivations": [
        {"kind": "gap_mod", "M": 2},
        {"kind": "gap_threshold", "m": 2},
        {"kind": "characteristic"},
    ],
    "analyses": [
        {"kind": "cardinality"},
        {"kind": "balance", "sequence": "gap_mod",
         "budget": {"constant": 6, "shape": "sqrt_log"}},
        {"kind": "balance", "sequence": "gap_threshold",
         "budget": {"constant": 4, "shape": "sqrt_log"}},
        {"kind": "patterns", "sequence": "characteristic", "length": 3,
         "budget": {"constant": 32, "shape": "sqrt_log"}},
        {"kind": "sign_patterns", "window": 2,
         "budget": {"constant": 2, "shape": "lemma"}},
    ],
    "seed": 1,
}


def _corr_scan(v: int) -> list:
    corr = ("--workers", "1", "--seed", str(v))
    z56a = _explicit(56, random_subset(_rng("corr_scan", v, "z56a"), 56))
    z56b = _explicit(56, random_subset(_rng("corr_scan", v, "z56b"), 56))
    z48 = {
        "construction": _explicit(48, random_subset(_rng("corr_scan", v, "z48"), 48)),
        "analyses": [{"kind": "sign_patterns", "window": 4,
                      "budget": _budget(1, "lemma")}],
    }
    return [
        Op("z56a_k4", "corr", z56a, ("-k", "4") + corr),
        Op("z56b_k4", "corr", z56b, ("-k", "4") + corr),
        Op("qr401_k2", "corr",
           {"kind": "quadratic_residues", "params": {"p": 401}}, ("-k", "2") + corr),
        Op("primitive_roots127_k3", "corr",
           {"kind": "primitive_roots", "params": {"p": 127}}, ("-k", "3") + corr),
        Op("qr1009_k3_sampled", "corr",
           {"kind": "quadratic_residues", "params": {"p": 1009}},
           ("-k", "3", "--samples", "20000") + corr),
        Op("z48_sign_lemma", "verify", z48, ("--workers", "1", "--seed", str(v))),
        # Verbatim: no --seed, so the config's own seed applies.
        Op("readme_experiment", "verify", README_EXPERIMENT, ()),
    ]


def sweep_constructions(v: int) -> list:
    """The 77 grid points: 8 kinds x 8 primes, 2 Fermat kinds x 6 primes,
    and one explicit control set built to fail the pattern check."""
    points = []
    for p in SWEEP_PRIMES:
        points += [
            {"kind": "quadratic_residues", "params": {"p": p}},
            {"kind": "power_residues", "params": {"p": p, "d": 2, "f": [1, 0, 1]}},
            {"kind": "primitive_roots", "params": {"p": p}},
            {"kind": "primitive_root_powers",
             "params": {"p": p, "s": 2, "r": 2, "f": [1, 1]}},
            {"kind": "index_range",
             "params": {"p": p, "f": [0, 1], "r": 0, "s": (p - 1) // 2}},
            {"kind": "poly_value_range",
             "params": {"p": p, "f": [0, 0, 1], "r": 0, "s": p // 3}},
            {"kind": "inverse_range",
             "params": {"p": p, "f": [0, 1], "r": 1, "s": p // 4}},
            {"kind": "character_argument",
             "params": {"p": p, "order": 2, "additive": 1, "f": [1, 1],
                        "g": [0, 0, 1], "alpha": 0, "beta": {"num": 1, "den": 2}}},
        ]
    for p in FERMAT_PRIMES:
        points += [
            {"kind": "fermat_quotient_power_residues", "params": {"p": p, "d": 2}},
            {"kind": "fermat_quotient_primitive_roots", "params": {"p": p}},
        ]
    # Control: even residues, each kept with probability 9/10.  No two
    # members are adjacent, so the pattern (1, 1) never occurs while its
    # main term is about q/5: the pattern analysis must FAIL.
    rng = _rng("sweep_grid", v, "control")
    q = 10007
    points.append(_explicit(q, [n for n in range(0, q, 2) if rng.random() < 0.9]))
    return points


def _sweep_grid(v: int) -> list:
    base = {
        "construction": {"kind": "quadratic_residues", "params": {"p": 101}},
        "derivations": [{"kind": "gap_threshold", "m": 2}, {"kind": "characteristic"}],
        "analyses": [
            {"kind": "cardinality"},
            {"kind": "balance", "sequence": "gap_threshold", "budget": _budget(4)},
            {"kind": "patterns", "sequence": "characteristic", "length": 2,
             "budget": _budget(1)},
        ],
        "seed": v,
    }
    config = {"base": base,
              "grid": [{"path": "construction", "values": sweep_constructions(v)}]}
    # Workers 1: the points run in the sweep's own process, where the
    # tracing wrappers see them.  At workers 2 the pool's scheduling decides
    # which worker builds which table, and run-to-run spread on a 2-core
    # machine was about 0.25 against about 0.09 at workers 1.
    return [Op("grid77", "sweep", config, ("--workers", "1"))]


def op_list(workload: str, seed: int) -> list:
    v = variant(seed)
    if workload == "verify_large":
        return _verify_large(v)
    if workload == "corr_scan":
        return _corr_scan(v)
    if workload == "sweep_grid":
        return _sweep_grid(v)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def op_list_bytes(workload: str, seed: int) -> bytes:
    ops = [op.to_json() for op in op_list(workload, seed)]
    return json.dumps(ops, sort_keys=True, separators=(",", ":")).encode()
