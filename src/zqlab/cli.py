"""Command line front end.

Subcommands:
  construct  build a subset of Z_q and list its elements
  derive     build a derived sequence (gap_mod / gap_threshold / characteristic)
  stats      symbol or fixed-length pattern counts of a derived sequence
  corr       exact or sampled correlation measure of a subset
  verify     run an experiment config and emit a verification report
  sweep      run a config over a parameter grid, writing per-point reports

Exit codes: 0 success (and all asserted checks pass), 1 an asserted
check failed, 2 configuration or usage error.
"""

from __future__ import annotations

import argparse
import atexit
import dataclasses
import gc
import json
import sys
from pathlib import Path

from . import __version__, harness, measures, sequences
from .errors import ConfigError, Error
from .measures import DEFAULT_BUDGET
from .subsets import ConstructionSpec, construct


# An integer literal of a config longer than this many digits is refused:
# CPython's default int-to-str digit limit, fixed here so that reading a
# config does not depend on the limit the process runs under.
_MAX_INT_DIGITS = 4300


def _parse_int(text: str) -> int:
    """int(text) for a JSON integer literal of at most _MAX_INT_DIGITS
    digits, whatever the interpreter's digit limit: a literal longer than
    harness._INT_CHUNK_DIGITS (below the least limit allowed, 640) is read
    in chunks of that many digits, the inverse of harness._int_text."""
    step = harness._INT_CHUNK_DIGITS
    if len(text) <= step:
        return int(text)
    digits = text.lstrip("-")
    if len(digits) > _MAX_INT_DIGITS:
        raise ValueError(
            f"Exceeds the limit ({_MAX_INT_DIGITS} digits) for integer string "
            f"conversion: value has {len(digits)} digits"
        )
    value = 0
    for start in range(0, len(digits), step):
        chunk = digits[start : start + step]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if text.startswith("-") else value


def _load_json(path: str) -> dict:
    """The JSON value in the file; an integer literal past _MAX_INT_DIGITS
    digits, or another value json parses but cannot hold, is a config
    error."""
    with open(path) as fh:
        try:
            return json.load(fh, parse_int=_parse_int)
        except json.JSONDecodeError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _add_io_flags(p):
    p.add_argument("--config", required=True, help="path to a JSON config file")
    p.add_argument("--out", help="write output here instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")


def _add_run_flags(p):
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted for compatibility; every command runs in one process",
    )
    p.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help="max elementary operations before refusing (default %(default)s)",
    )


def _seed(args) -> int | None:
    """--seed, refused below 0 as a config's seed is."""
    return None if args.seed is None else harness.parse_seed(args.seed)


def _count(args, name: str) -> int:
    """--workers or --length, refused below 1."""
    value = getattr(args, name)
    if value < 1:
        raise ConfigError(f"{name}: expected >= 1, got {value}")
    return value


def _cmd_construct(args) -> tuple:
    spec = ConstructionSpec.from_json(_load_json(args.config))
    harness.admit(harness.ExperimentConfig(spec), DEFAULT_BUDGET, args.command)
    rset = construct(spec)
    return rset.to_json(), _element_rows(rset)


def _element_rows(rset):
    """construct's CSV rows, listed only when they are written."""
    yield ["element"]
    for n in rset.array.tolist():
        yield [n]


def _derived_sequence(args, length=None) -> sequences.DerivedSequence:
    """The sequence a derive or stats config names, admitted with the
    count of its `length` windows if given; a {"sequence": ..} config is
    already in memory."""
    cfg = _load_json(args.config)
    if isinstance(cfg, dict) and "sequence" in cfg:
        return sequences.DerivedSequence.from_json(cfg["sequence"])
    if not isinstance(cfg, dict) or not {"construction", "derivation"} <= set(cfg):
        raise Error(
            'config must be {"sequence": ..} or {"construction": .., "derivation": ..}'
        )
    spec = ConstructionSpec.from_json(cfg["construction"])
    dspec = harness.DerivationSpec.from_dict(cfg["derivation"], "derivation")
    harness._check_derivation(dspec, "derivation")
    windows = harness.AnalysisSpec("patterns", dspec.kind, length)
    config = harness.ExperimentConfig(spec, (dspec,), (windows,) if length else ())
    harness.admit(config, DEFAULT_BUDGET, args.command)
    return dspec.derive(construct(spec))


def _cmd_derive(args) -> int:
    seq = _derived_sequence(args)
    if args.fmt == "json":
        text = harness.json_text(seq.to_json()) + "\n"
    else:
        text = seq.symbols_line() + "\n"
    _emit(text, args.out)
    return 0


def _cmd_stats(args) -> tuple:
    length = _count(args, "length")
    seq = _derived_sequence(args, length)
    counts = measures.pattern_counts(seq, length)  # observed, in order
    items = [{"pattern": list(pat), "count": n} for pat, n in counts.items()]
    return {"length": length, "counts": items}, _count_rows(counts)


def _count_rows(counts: dict):
    """stats's CSV rows, listed only when they are written."""
    yield ["pattern", "count"]
    for pat, n in counts.items():
        yield [" ".join(map(str, pat)), n]


def _cmd_corr(args) -> tuple:
    _count(args, "workers")
    spec = ConstructionSpec.from_json(_load_json(args.config))
    kind = "correlation" if args.samples is None else "correlation_sampled"
    analysis = harness.AnalysisSpec(
        kind, k=args.order, samples=args.samples, seed=_seed(args)
    )
    # admitted as verify admits the analysis: its check, then set and scan
    harness.admit(harness.ExperimentConfig(spec, (), (analysis,)), args.budget, "corr")
    result = harness.correlate(construct(spec), analysis, 0, budget=args.budget)
    fields = result.to_json()
    row = {
        **fields,
        "value": f"{result.value.numerator}/{result.value.denominator}",
        "lags": " ".join(map(str, result.lags)),
    }
    return fields, [list(row), list(row.values())]


def _cmd_verify(args) -> int:
    seed = _seed(args)
    _count(args, "workers")
    config = harness.ExperimentConfig.from_dict(_load_json(args.config))
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    report = harness.run(config, op_budget=args.budget)
    if args.fmt == "json":
        text = report.to_json_text()
    else:
        text = harness.csv_text(report.csv_rows())
    _emit(text, args.out)
    if args.out:
        print(f"{report.status}: report written to {args.out}")
    return 1 if report.failed else 0


def _cmd_sweep(args) -> int:
    _count(args, "workers")
    cfg = _load_json(args.config)
    if not isinstance(cfg, dict) or "base" not in cfg or "grid" not in cfg:
        raise Error('sweep config must be {"base": .., "grid": [..]}')
    bodies, rows = harness.sweep(
        cfg["base"],
        cfg["grid"],
        op_budget=args.budget,
        outdir=args.out,
    )
    if args.out is None:
        sys.stdout.write(harness.csv_text(rows))
    else:
        print(f"{len(bodies)} reports written to {args.out}")
    bad = any("error" in b or b.get("status") == "FAIL" for b in bodies)
    return 1 if bad else 0


# Handlers of the commands main renders: (JSON object, CSV rows).
_RENDERED = {"construct": _cmd_construct, "stats": _cmd_stats, "corr": _cmd_corr}
# Handlers that write their own output: the exit code.
_COMMANDS = {"derive": _cmd_derive, "verify": _cmd_verify, "sweep": _cmd_sweep}


# Whether main has registered gc.freeze to run at exit in this process.
_freeze_at_exit = False


def main(argv=None) -> int:
    global _freeze_at_exit
    if not _freeze_at_exit:
        # Teardown then leaves the objects it would collect, mostly import-time
        # cycles, to the OS instead of a collection that outlasts most small
        # scans.  Outputs are written before main returns, and stdout and
        # stderr are flushed after exit handlers run.
        atexit.register(gc.freeze)
        _freeze_at_exit = True
    parser = argparse.ArgumentParser(
        prog="zqlab",
        description="Pseudorandom subsets of Z_q: constructions, derived "
        "sequences, correlation measures, and verification runs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a subset and list its elements")
    _add_io_flags(p)

    p = sub.add_parser("derive", help="build a derived sequence")
    _add_io_flags(p)

    p = sub.add_parser("stats", help="symbol / pattern counts of a sequence")
    _add_io_flags(p)
    p.add_argument("--length", type=int, default=1, help="pattern length, 1 = symbols")

    p = sub.add_parser("corr", help="correlation measure of a subset")
    _add_io_flags(p)
    p.add_argument("-k", "--order", type=int, required=True, help="correlation order")
    p.add_argument("--samples", type=int, help="sample lag tuples instead of all")
    p.add_argument("--seed", type=int, help="sampling seed (default 0)")
    _add_run_flags(p)

    p = sub.add_parser("verify", help="run an experiment config")
    _add_io_flags(p)
    p.add_argument("--seed", type=int, help="override the config seed")
    _add_run_flags(p)

    p = sub.add_parser("sweep", help="run a config over a parameter grid")
    p.add_argument("--config", required=True, help="path to a JSON sweep file")
    p.add_argument("--out", help="directory for per-point reports + summary.csv")
    _add_run_flags(p)

    args = parser.parse_args(argv)
    try:
        if args.command not in _RENDERED:
            return _COMMANDS[args.command](args)
        obj, rows = _RENDERED[args.command](args)
        if args.fmt == "json":
            _emit(harness.json_text(obj) + "\n", args.out)
        else:
            _emit(harness.csv_text(rows), args.out)
        return 0
    except (Error, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
