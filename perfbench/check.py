"""Output checks for benchmark ops.

Every completed op is compared with a reference recorded at the seed
commit (`reference.json`).  Before comparing, the fields that may vary or
that a faster correlation engine may legitimately change are scrubbed:
`seconds`, `timing` and the correlation witness (`window`, `lags`,
`tuples`).  Each witness is then checked on its own: the exact integer
window sum at the reported lags and window, recomputed here from an
independently built membership mask, must equal value * q^k.

An op ends in one of three outcomes:

- ok: it completed and its output passed every check;
- refused: admission control turned it down (exit 2 with the budget
  message).  `expected` tells whether it was refused at the seed commit;
- failed: it crashed, exited unexpectedly or failed a check.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

REFUSAL = re.compile(r"needs ~\d+ \w+, budget is \d+")


class CheckError(Exception):
    pass


@dataclass(frozen=True)
class Outcome:
    status: str  # ok | refused | failed
    expected: bool = True  # for refusals: refused at the seed commit too
    detail: str = ""


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def op_key(op) -> str:
    """Identity of an op's output: everything but the worker count."""
    args = list(op.args)
    if "--workers" in args:
        i = args.index("--workers")
        del args[i : i + 2]
    return digest({"command": op.command, "config": op.config, "args": args})


def report_seed(config: dict, args) -> int:
    """The seed a verify report records: --seed if given, else the config's."""
    args = list(args)
    if "--seed" in args:
        return int(args[args.index("--seed") + 1])
    return config.get("seed", 0)


def entry_key(config: dict, index: int, seed: int) -> str:
    """Identity of one analysis entry: its set, sequence, analysis, and the
    seed only where the analysis draws from it."""
    analysis = config["analyses"][index]
    sequence = analysis.get("sequence")
    derivation = next(
        (d for d in config.get("derivations", ()) if d["kind"] == sequence), None
    )
    seeded = analysis["kind"] == "correlation_sampled" and "seed" not in analysis
    return digest({
        "construction": config["construction"],
        "derivation": derivation,
        "analysis": analysis,
        "seed": seed if seeded else None,
    })


def scrub_entry(entry: dict) -> dict:
    entry = copy.deepcopy(entry)
    entry.pop("seconds", None)
    for item in entry.get("items", ()):
        if "value" in item:
            for key in ("window", "lags", "tuples"):
                item.pop(key, None)
    return entry


def scrub_corr(out: dict) -> dict:
    return {key: out[key] for key in ("k", "value", "mode")}


def modulus(construction: dict) -> int:
    prm = construction["params"]
    if construction["kind"] == "explicit":
        return prm["q"]
    if construction["kind"].startswith("fermat_quotient"):
        return prm["p"] ** 2
    return prm["p"]


def _prime_factors(n: int) -> list:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


def membership(construction: dict):
    """Membership mask of the set, built without zqlab, or None for kinds
    the checker does not rebuild."""
    kind, prm = construction["kind"], construction["params"]
    if kind == "explicit":
        mask = np.zeros(prm["q"], dtype=bool)
        mask[list(prm["elements"])] = True
        return mask
    if kind == "quadratic_residues":
        p = prm["p"]
        x = np.arange(1, p, dtype=np.int64)
        mask = np.zeros(p, dtype=bool)
        mask[x * x % p] = True
        return mask
    if kind == "primitive_roots" and prm["p"] < 10**5:
        p = prm["p"]
        factors = _prime_factors(p - 1)
        mask = np.zeros(p, dtype=bool)
        for g in range(1, p):
            mask[g] = all(pow(g, (p - 1) // r, p) != 1 for r in factors)
        return mask
    return None


def window_sum(mask: np.ndarray, lags, window: int) -> int:
    """sum_{n < window} prod_i f(n + d_i mod q), f = q - T on members, -T off."""
    q = mask.shape[0]
    T = int(mask.sum())
    k = len(lags)
    if q ** (k + 1) < 2**62:
        f = np.where(mask, q - T, -T).astype(np.int64)
    else:
        f = np.where(mask, q - T, -T).astype(object)
    n = np.arange(window, dtype=np.int64)
    prod = f[(n + lags[0]) % q]
    for d in lags[1:]:
        prod = prod * f[(n + d) % q]
    return int(sum(int(v) for v in prod)) if prod.dtype == object else int(prod.sum())


def check_witness(mask, k: int, value: dict, window, lags) -> None:
    q = mask.shape[0]
    lags = list(lags)
    if len(lags) != k or any(not 0 <= d < q for d in lags):
        raise CheckError(f"witness lags {lags} are not {k} residues mod {q}")
    if any(a >= b for a, b in zip(lags, lags[1:])):
        raise CheckError(f"witness lags {lags} are not strictly increasing")
    if not isinstance(window, int) or not 1 <= window <= q:
        raise CheckError(f"witness window {window} outside 1..{q}")
    total = abs(window_sum(mask, lags, window))
    if Fraction(value["num"], value["den"]) * q**k != total:
        raise CheckError(
            f"witness sum {total} at lags {lags}, window {window} does not give "
            f"the value {value['num']}/{value['den']}"
        )


def _combine(statuses) -> str:
    statuses = list(statuses)
    if "FAIL" in statuses:
        return "FAIL"
    if "PASS" in statuses:
        return "PASS"
    return "REPORT_ONLY"


def check_report(config: dict, seed: int, body: dict, refs: dict,
                 lenient: bool = False) -> None:
    """A verification report against its config and the references.

    lenient: the op was refused at the seed commit, so analyses with no
    reference pass when none of their asserted checks fails.
    """
    if body.get("tool", {}).get("name") != "zqlab":
        raise CheckError("report does not name the zqlab tool")
    canonical = json.dumps(body["config"], sort_keys=True, separators=(",", ":"))
    if hashlib.sha256(canonical.encode()).hexdigest() != body["config_hash"]:
        raise CheckError("config_hash does not hash the embedded config")
    if body["config"]["seed"] != seed:
        raise CheckError(f"report seed {body['config']['seed']} != {seed}")
    construction = config["construction"]
    want_set = refs["sets"].get(digest(construction))
    if body["set"]["q"] != modulus(construction):
        raise CheckError(f"set q {body['set']['q']} != {modulus(construction)}")
    if want_set is not None and body["set"] != want_set:
        raise CheckError(f"set {body['set']} != reference {want_set}")
    entries = body["analyses"]
    if len(entries) != len(config["analyses"]):
        raise CheckError(f"{len(entries)} analyses reported, "
                         f"{len(config['analyses'])} configured")
    mask = None
    for i, entry in enumerate(entries):
        want = refs["entries"].get(entry_key(config, i, seed))
        if want is None:
            if not lenient or entry["status"] == "FAIL":
                raise CheckError(f"analysis {i} ({entry['analysis']['kind']}) "
                                 f"has no reference")
        elif digest(scrub_entry(entry)) != want:
            raise CheckError(f"analysis {i} ({entry['analysis']['kind']}) "
                             f"differs from the reference")
        for item in entry["items"]:
            if "value" in item:
                if mask is None:
                    mask = membership(construction)
                if mask is not None:
                    k = entry["analysis"]["k"]
                    check_witness(mask, k, item["value"], item["window"], item["lags"])
    want_status = _combine(e["status"] for e in entries) if entries else "PASS"
    if body["status"] != want_status:
        raise CheckError(f"report status {body['status']} != {want_status}")


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CheckError(f"cannot read {path.name}: {exc}") from exc


def _check_verify(op, code, out: Path, refs, ref) -> None:
    if code not in (0, 1):
        raise CheckError(f"exit code {code}")
    body = _read_json(out)
    check_report(op.config, report_seed(op.config, op.args), body, refs,
                 lenient=ref["refused"])
    if code != (1 if body["status"] == "FAIL" else 0):
        raise CheckError(f"exit code {code} for report status {body['status']}")
    if not ref["refused"] and code != ref["exit"]:
        raise CheckError(f"exit code {code}, reference {ref['exit']}")


def _check_corr(op, code, out: Path, refs, ref) -> None:
    if code != 0:
        raise CheckError(f"exit code {code}")
    result = _read_json(out)
    if scrub_corr(result) != ref["corr"]:
        raise CheckError(f"{scrub_corr(result)} != reference {ref['corr']}")
    mask = membership(op.config)
    if mask is not None:
        check_witness(mask, result["k"], result["value"], result["window"],
                      result["lags"])


def summary_digest(path: Path) -> str:
    """summary.csv without its seconds column."""
    with path.open(newline="") as fh:
        return digest([row[:-1] for row in csv.reader(fh)])


def _check_sweep(op, code, out: Path, refs, ref) -> None:
    if code != ref["exit"]:
        raise CheckError(f"exit code {code}, reference {ref['exit']}")
    base = op.config["base"]
    (axis,) = op.config["grid"]
    for i, construction in enumerate(axis["values"]):
        config = dict(base, construction=construction)
        body = _read_json(out / f"report_{i:04d}.json")
        try:
            check_report(config, base.get("seed", 0), body, refs)
        except CheckError as exc:
            raise CheckError(f"grid point {i}: {exc}") from exc
    summary = out / "summary.csv"
    if not summary.is_file() or summary_digest(summary) != ref["summary"]:
        raise CheckError("summary.csv differs from the reference")


def check_op(op, code: int, stderr: str, out: Path, refs: dict) -> Outcome:
    ref = refs["ops"].get(op_key(op))
    if code == 2 and REFUSAL.search(stderr):
        return Outcome("refused", bool(ref and ref["refused"]), stderr.strip())
    if ref is None:
        return Outcome("failed", detail="no reference recorded for this op")
    checker = {"verify": _check_verify, "corr": _check_corr, "sweep": _check_sweep}
    try:
        checker[op.command](op, code, out, refs, ref)
    except CheckError as exc:
        tail = stderr.strip().splitlines()[-1:] if stderr.strip() else []
        return Outcome("failed", detail="; ".join([str(exc)] + tail))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return Outcome("failed", detail=f"malformed output: {exc!r}")
    return Outcome("ok")


# ----------------------------------------------------------------------
# Recording references (at the seed commit only).


def record_op(op, code: int, stderr: str, out: Path, refs: dict) -> None:
    """Add an op's outputs to the references; refusals record the op only."""
    key = op_key(op)
    if code == 2 and REFUSAL.search(stderr):
        refs["ops"][key] = {"name": op.name, "refused": True, "exit": code}
        return
    if op.command == "corr":
        if code != 0:
            raise CheckError(f"{op.name}: exit code {code}: {stderr}")
        refs["ops"][key] = {"name": op.name, "refused": False, "exit": code,
                            "corr": scrub_corr(_read_json(out))}
        return
    if op.command == "verify":
        reports = [(op.config, report_seed(op.config, op.args), _read_json(out))]
        refs["ops"][key] = {"name": op.name, "refused": False, "exit": code}
    else:
        base = op.config["base"]
        reports = [
            (dict(base, construction=c), base.get("seed", 0),
             _read_json(out / f"report_{i:04d}.json"))
            for i, c in enumerate(op.config["grid"][0]["values"])
        ]
        refs["ops"][key] = {"name": op.name, "refused": False, "exit": code,
                            "summary": summary_digest(out / "summary.csv")}
    for config, seed, body in reports:
        record_report(config, seed, body, refs)


def record_report(config: dict, seed: int, body: dict, refs: dict) -> None:
    refs["sets"][digest(config["construction"])] = body["set"]
    for i, entry in enumerate(body["analyses"]):
        refs["entries"][entry_key(config, i, seed)] = digest(scrub_entry(entry))
