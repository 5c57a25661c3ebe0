"""Experiment harness: configs, verification runs, reports, sweeps.

An ExperimentConfig names one construction, any derived sequences, and a
list of analyses; ANALYSES maps each analysis kind to its config keys,
cost estimate, runner and check.  run() executes the analyses and
returns a VerificationReport comparing empirical counts against the
exact main terms, with per-item PASS / FAIL / REPORT_ONLY statuses;
sweep() repeats a base config over a parameter grid.

Reports are deterministic byte for byte (given config, seed, and budget)
apart from the timing fields.  Everything runs in the calling process.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import io
import itertools
import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable

from . import __version__, measures, predictions, sequences
from .errors import (
    ConfigError,
    EmptyGridError,
    Error,
    InvalidParameterError,
    PatternTooLongError,
)
from .measures import DEFAULT_BUDGET
from .predictions import _DECIMAL, DeviationBudget
from .subsets import ConstructionSpec, _as_fraction, _fraction_to_json, construct

_TOOL_NAME = "zqlab"

# Feasibility guards: enumerated pattern families stay enumerable, and
# their main terms stay renderable.  A main term of a length-l window of a
# sequence with parameter P (M or m; 1 for the characteristic sequence)
# has about P * l * log10(q) digits, refused past _MAX_MAIN_TERM_DIGITS:
# a fixed bound, not the interpreter's int-to-str limit (4300 by default),
# so admission does not depend on the environment.
_MAX_PATTERN_FAMILY = 4096
_MAX_MAIN_TERM_DIGITS = 4300

# Budget shape -> (formula, sqrt(q) factor or not, log(q) power); lemma: c*2^s*Cmax.
_BUDGET_SHAPES = {
    "absolute": ("{c}", False, 0),
    "sqrt_log": ("{c}*sqrt(q)*log(q)", True, 1),
    "sqrt_log2": ("{c}*sqrt(q)*log(q)^2", True, 2),
    "lemma": ("{c}*2^s*Cmax", False, 0),
}

# A report's CSV columns; a sweep summary puts the point's around them.
_REPORT_COLUMNS = "analysis item empirical predicted deviation budget status".split()


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _expect_int(value, path: str, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(path, f"expected >= {minimum}, got {value}")
    return value


def parse_seed(value, path: str = "seed") -> int:
    """A sampling seed: an integer >= 0 (numpy's generators refuse less)."""
    return _expect_int(value, path, minimum=0)


def _fraction_json(fr: Fraction) -> dict:
    """Exact rational plus a 15-significant-digit decimal rendering."""
    dec = _DECIMAL.divide(fr.numerator, fr.denominator)  # 15 digits
    return {**_fraction_to_json(fr), "decimal": _DECIMAL.to_sci_string(dec)}


# An int past the int-to-str digit limit is written in chunks of this many
# digits: the interpreter allows no limit below 640.
_INT_CHUNK_DIGITS = 512

_CONTAINERS = (dict, list, tuple)
_SCALARS = frozenset((str, int, float, bool, type(None)))


@lru_cache(maxsize=64)
def _encoder(depth: int, sort_keys: bool):
    """json's C encoder, its item separator the newline and indent of
    entries at `depth` + 1; it is only handed scalars and containers of
    scalars, which hold no cycle to check for."""
    separators = (",\n" + "  " * (depth + 1), ": ")
    return json.JSONEncoder(
        sort_keys=sort_keys, separators=separators, check_circular=False
    ).encode


def _key_text(key) -> str:
    """A dict key as json.dumps writes it: a str key encoded, an int,
    float, bool or None key as its scalar text, quoted."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return f'"{_encoder(0, False)(key)}"'
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {type(key).__name__}"
    )


class _Item(dict):
    """A report item, {"label": label, **fields}, that keeps `fields`: the
    scored fields it shares with the items of its (sum, count), which
    json_text renders once.  An item that is changed after it is made
    drops `fields` and renders as any dict."""

    __slots__ = ("fields",)

    def __init__(self, label, fields: dict):
        dict.__init__(self, label=label, **fields)
        self.fields = fields


def _unshared(method):
    def change(self, *args, **kwargs):
        self.fields = None
        return method(self, *args, **kwargs)

    return change


for _name in (
    "__setitem__", "__delitem__", "__ior__",
    "clear", "pop", "popitem", "setdefault", "update",
):
    setattr(_Item, _name, _unshared(getattr(dict, _name)))


def _int_text(n: int) -> str:
    """str(n) for an int past the int-to-str digit limit: its digits in
    chunks of _INT_CHUNK_DIGITS, taken by divmod, each chunk below the
    least limit the interpreter allows."""
    chunks, rest = [], abs(n)
    while rest:
        rest, chunk = divmod(rest, 10**_INT_CHUNK_DIGITS)
        chunks.append(chunk)
    head, *tail = reversed(chunks)
    digits = "".join(f"{chunk:0{_INT_CHUNK_DIGITS}d}" for chunk in tail)
    return f"{'-' if n < 0 else ''}{head}{digits}"


def json_text(obj, sort_keys: bool = False) -> str:
    """json.dumps(obj, indent=2, sort_keys=sort_keys), byte for byte.

    The text is written as fragments appended to one list, joined once at
    the end, so no container's text is copied into its parent's.  A str or
    an int (exactly those types) is written as json writes it, without a
    call into the encoder.  A container of scalars is one call of json's
    C encoder, its separators carrying the newline and indent of its depth;
    any other container writes its entries in turn.  The text of a dict
    entry whose value is a dict is kept, keyed by the key's text, the
    value's identity and the depth.  A report item (_Item) that still
    holds its shared fields is written as the text around its label with
    the label in between; that text is made once per shared fields and
    depth, from the first such item, so each shared body is rendered once.
    No other text is kept, so no long one (a report's items, a set's
    elements) is held twice.  An int past the interpreter's int-to-str
    digit limit, which json refuses with ValueError, is written in chunks
    (_int_text) instead, so a report does not depend on that limit; only
    that ValueError leads there.  Values must be acyclic (a cycle raises
    RecursionError, not json's ValueError).
    """
    entries, around = {}, {}

    def text(write, *args) -> str:
        """The text that write(out, *args) appends, on its own."""
        parts = []
        write(parts.append, *args)
        return "".join(parts)

    def flat(value, depth: int):
        """The text of a nonempty container that holds only scalars, one
        call of json's C encoder; None for any other container, or where
        the encoder refuses an int past the digit limit."""
        values = value.values() if isinstance(value, dict) else value
        if not set(map(type, values)) <= _SCALARS:
            return None
        try:
            inner = _encoder(depth, sort_keys)(value)
        except ValueError:  # past the int-to-str digit limit: entry by entry
            return None
        indent = "  " * (depth + 1)
        return f"{inner[0]}\n{indent}{inner[1:-1]}\n{indent[:-2]}{inner[-1]}"

    def entry(out, k, v, depth: int) -> None:
        # keyed on the key's text: 1 == True, but they are written apart
        name = encode_basestring_ascii(k) if type(k) is str else _key_text(k)
        if not isinstance(v, dict):
            out(f"{name}: ")
            write(out, v, depth + 1)
            return
        cached = (name, id(v), depth)
        part = entries.get(cached)
        if part is None:
            body = flat(v, depth + 1) if v else None
            if body is None:
                body = text(write, v, depth + 1)
            part = entries[cached] = f"{name}: {body}"
        out(part)

    def label_halves(item: _Item, depth: int) -> tuple[str, str]:
        """The text of `item` before and after its label's value."""
        indent = "  " * (depth + 1)
        sep = ",\n" + indent
        keys = sorted(item) if sort_keys else list(item)
        at = keys.index("label")
        head = "".join(text(entry, k, item[k], depth) + sep for k in keys[:at])
        tail = "".join(sep + text(entry, k, item[k], depth) for k in keys[at + 1 :])
        return f'{{\n{indent}{head}"label": ', f"{tail}\n{indent[:-2]}}}"

    def write(out, value, depth: int) -> None:
        kind = type(value)
        if kind is str:
            out(encode_basestring_ascii(value))
            return
        if kind is int:
            try:
                out(int.__repr__(value))
            except ValueError:  # past the int-to-str digit limit
                out(_int_text(value))
            return
        if kind is _Item and getattr(value, "fields", None) is not None:
            shared = (id(value.fields), depth)
            halves = around.get(shared)
            if halves is None:
                halves = around[shared] = label_halves(value, depth)
            out(halves[0])
            write(out, value["label"], depth + 1)
            out(halves[1])
            return
        if not isinstance(value, _CONTAINERS) or not value:
            out(_encoder(depth, sort_keys)(value))
            return
        flat_text = flat(value, depth)
        if flat_text is not None:
            out(flat_text)
            return
        is_dict, indent = isinstance(value, dict), "  " * (depth + 1)
        start, end = "{}" if is_dict else "[]"
        out(f"{start}\n{indent}")
        sep = ",\n" + indent
        if is_dict:
            pairs = sorted(value.items()) if sort_keys else value.items()
            for i, (k, v) in enumerate(pairs):
                if i:
                    out(sep)
                entry(out, k, v, depth)
        else:
            for i, v in enumerate(value):
                if i:
                    out(sep)
                write(out, v, depth + 1)
        out(f"\n{indent[:-2]}{end}")

    return text(write, obj, 0)


def csv_text(rows) -> str:
    """The rows as csv.writer writes them: "\r\n" after each."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _budget_json(budget: DeviationBudget) -> dict:
    return {
        "formula": budget.formula,
        "asserted": budget.asserted,
        "value": budget.bound(),
    }


@dataclass(frozen=True)
class DerivationSpec:
    kind: str
    param: int | None = None

    @classmethod
    def from_dict(cls, obj, path: str) -> "DerivationSpec":
        if not isinstance(obj, dict):
            _fail(path, "expected an object")
        kind = obj.get("kind")
        pname = _known(kind, sequences.DERIVATIONS, f"{path}.kind", "derivation").param
        extras = set(obj) - {"kind"} - ({pname} if pname else set())
        if extras:
            _fail(path, f"unexpected keys {sorted(extras)}")
        if pname is not None and pname not in obj:
            _fail(f"{path}.{pname}", "required")
        return cls(kind, obj.get(pname))

    def to_dict(self) -> dict:
        pname = sequences.DERIVATIONS[self.kind].param
        return {"kind": self.kind, **({pname: self.param} if pname else {})}

    def derive(self, rset) -> sequences.DerivedSequence:
        return sequences.DERIVATIONS[self.kind].derive(rset, self.param)


@dataclass(frozen=True)
class BudgetSpec:
    """A config-level deviation budget: constant times a named shape.

    Shapes: absolute (the constant itself), sqrt_log (c*sqrt(q)*log q),
    sqrt_log2 (c*sqrt(q)*log^2 q), lemma (c * 2^s * Cmax(q, s), the
    correlation-driven window-count budget; sign_patterns only).
    """

    constant: Fraction
    shape: str

    @classmethod
    def from_dict(cls, obj, path: str) -> "BudgetSpec":
        if not isinstance(obj, dict) or set(obj) != {"constant", "shape"}:
            _fail(path, 'expected {"constant": .., "shape": ..}')
        try:
            constant = _as_fraction(obj["constant"], f"{path}.constant")
        except InvalidParameterError as exc:
            raise ConfigError(str(exc)) from exc
        return cls(constant, obj["shape"])

    def to_dict(self) -> dict:
        return {"constant": _fraction_to_json(self.constant), "shape": self.shape}

    def realize(self, q: int, cmax: Fraction | None = None) -> DeviationBudget:
        template, root, log_power = _BUDGET_SHAPES[self.shape]
        c, arg = self.constant, q if root else 1
        coefficient = c * cmax if self.shape == "lemma" else c  # cmax: 2^s*Cmax
        formula = template.format(c=c)
        return DeviationBudget(formula, True, coefficient, arg, log_power, arg)


@dataclass(frozen=True)
class AnalysisSpec:
    kind: str
    sequence: str | None = None
    length: int | None = None
    window: int | None = None
    k: int | None = None
    samples: int | None = None
    seed: int | None = None
    budget: BudgetSpec | None = None

    @classmethod
    def from_dict(cls, obj, path: str) -> "AnalysisSpec":
        if not isinstance(obj, dict):
            _fail(path, "expected an object")
        kind = obj.get("kind")
        record = _known(kind, ANALYSES, f"{path}.kind", "analysis")
        extras = set(obj) - {"kind"} - set(record.keys)
        if extras:
            _fail(path, f"unexpected keys {sorted(extras)} for kind {kind!r}")
        fields = {key: obj[key] for key in record.keys if key in obj}
        if "budget" in fields:
            fields["budget"] = BudgetSpec.from_dict(fields["budget"], f"{path}.budget")
        return cls(kind, **fields)

    @property
    def lemma_budget(self) -> bool:
        """Whether its budget is the correlation-driven lemma shape."""
        return self.budget is not None and self.budget.shape == "lemma"

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        for key in ANALYSES[self.kind].keys:
            value = getattr(self, key)
            if value is not None:
                out[key] = value.to_dict() if key == "budget" else value
        return out


def _sequence_field(value, path: str) -> None:
    if not isinstance(value, str):
        _fail(path, "required" if value is None else "expected a derivation kind name")


def _family_exceeds(size: int, length: int) -> bool:
    """Whether size^length patterns exceed _MAX_PATTERN_FAMILY, without a
    power past 4097^13: capping either operand keeps the answer (for size
    >= 2 the capped power exceeds the family too; for size <= 1 it is at
    most 1)."""
    cap = _MAX_PATTERN_FAMILY + 1
    return min(size, cap) ** min(length, cap.bit_length()) > _MAX_PATTERN_FAMILY


def _budget_field(budget: BudgetSpec, path: str) -> None:
    shapes = tuple(_BUDGET_SHAPES)
    if budget.shape not in shapes:
        _fail(f"{path}.shape", f"expected one of {shapes}, got {budget.shape!r}")
    if budget.constant < 0:
        _fail(f"{path}.constant", "must be nonnegative")


# Checks (value, path) of the analysis config keys, by key.
_FIELDS = {
    "sequence": _sequence_field,
    "length": partial(_expect_int, minimum=1),
    "window": partial(_expect_int, minimum=1),
    "k": partial(_expect_int, minimum=1),
    "samples": partial(_expect_int, minimum=1),
    "seed": parse_seed,
    "budget": _budget_field,
}
_OPTIONAL_FIELDS = ("seed", "budget")


def _known(kind, table: dict, path: str, what: str):
    """table's record of kind; any other kind is refused."""
    if not isinstance(kind, str) or kind not in table:
        _fail(path, f"unknown {what} kind {kind!r}")
    return table[kind]


def _check_derivation(dspec: DerivationSpec, path: str) -> None:
    """Refuse an unknown kind, or a parameter that is not an integer >= 2."""
    record = _known(dspec.kind, sequences.DERIVATIONS, f"{path}.kind", "derivation")
    if record.param is not None:
        _expect_int(dspec.param, f"{path}.{record.param}", minimum=2)


def _check_analysis(analysis: AnalysisSpec, params: dict, q: int, path: str) -> None:
    """Refuse an analysis of unknown kind or with a bad value of a key; for
    a kind that counts windows, then a lemma budget it takes none of, an
    unconfigured `sequence`, the (derivation kind, length) its `windows`
    names past the family cap or the main-term cap (P * length * log10(q)
    digits, P the parameter or 1, compared with no float of P), and a
    budget whose float report value overflows (lemma: c * 2^s * q bounds
    c * 2^s * Cmax, as a window sum is at most q)."""
    record = _known(analysis.kind, ANALYSES, f"{path}.kind", "analysis")
    for key in record.keys:
        if getattr(analysis, key) is not None or key not in _OPTIONAL_FIELDS:
            _FIELDS[key](getattr(analysis, key), f"{path}.{key}")
    if record.windows is None:
        return
    if analysis.lemma_budget and not record.lemma:
        _fail(f"{path}.budget.shape", "lemma budgets fit sign_patterns only")
    kind, length = record.windows(analysis)
    if "sequence" in record.keys and kind not in params:
        _fail(f"{path}.sequence", f"no derivation of kind {kind!r} configured")
    derivation = sequences.DERIVATIONS[kind]
    param = params.get(kind) if derivation.param else None
    alphabet = derivation.alphabet(param)
    # stop - start, not len(): len() overflows past 2**63 symbols.
    if _family_exceeds(alphabet.stop - alphabet.start, length):
        _fail(path, f"alphabet^length exceeds {_MAX_PATTERN_FAMILY}")
    if q > 1 and (param or 1) * length > _MAX_MAIN_TERM_DIGITS / math.log10(q):
        name = derivation.param or "1"
        _fail(path, f"{name}*length*log10(q) exceeds {_MAX_MAIN_TERM_DIGITS} digits")
    if analysis.budget is not None:
        lemma = 2**analysis.window * q if analysis.lemma_budget else 1
        try:
            float(analysis.budget.constant * lemma)
        except OverflowError:
            _fail(f"{path}.budget.constant", "too large for the report's float value")


def _check(config: "ExperimentConfig") -> None:
    """Refuse a config's bad values and references as ConfigError, by path:
    its derivations (no kind twice), then its analyses, then its seed."""
    params = {}
    for i, dspec in enumerate(config.derivations):
        _check_derivation(dspec, f"derivations[{i}]")
        params[dspec.kind] = dspec.param
    kinds = [d.kind for d in config.derivations]
    if len(params) != len(kinds):
        _fail("derivations", f"duplicate derivation kinds in {kinds}")
    q = config.construction.modulus
    for i, analysis in enumerate(config.analyses):
        _check_analysis(analysis, params, q, f"analyses[{i}]")
    parse_seed(config.seed)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a set, its derived sequences, and the analyses."""

    construction: ConstructionSpec
    derivations: tuple[DerivationSpec, ...] = ()
    analyses: tuple[AnalysisSpec, ...] = ()
    seed: int = 0

    @classmethod
    def from_dict(cls, obj) -> "ExperimentConfig":
        """The config a JSON object describes.  Its shape is parsed here;
        then the check run also makes (_check) refuses its bad values and
        references, so a config is refused as it is read."""
        if not isinstance(obj, dict):
            raise ConfigError("config: expected an object")
        extras = set(obj) - {"construction", "derivations", "analyses", "seed"}
        if extras:
            _fail("config", f"unexpected keys {sorted(extras)}")
        if "construction" not in obj:
            _fail("construction", "required")
        try:
            spec = ConstructionSpec.from_json(obj["construction"])
        except Error as exc:
            raise ConfigError(f"construction: {exc}") from exc
        for key in ("derivations", "analyses"):
            if not isinstance(obj.get(key, []), (list, tuple)):
                _fail(key, f"expected a list, got {type(obj[key]).__name__}")
        derivations = tuple(DerivationSpec.from_dict(raw, f"derivations[{i}]")
                            for i, raw in enumerate(obj.get("derivations", ())))
        analyses = tuple(AnalysisSpec.from_dict(raw, f"analyses[{i}]")
                         for i, raw in enumerate(obj.get("analyses", ())))
        config = cls(spec, derivations, analyses, obj.get("seed", 0))
        _check(config)
        return config

    def to_dict(self) -> dict:
        return {
            "construction": self.construction.to_json(),
            "derivations": [d.to_dict() for d in self.derivations],
            "analyses": [a.to_dict() for a in self.analyses],
            "seed": self.seed,
        }


def config_hash(config: ExperimentConfig) -> str:
    canonical = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def estimate_cost(config: ExperimentConfig) -> int:
    """Elementary-operation estimate used for budget admission control:
    building the set, deriving its sequences and running the analyses.
    An analysis of a derived sequence is costed at that sequence's length
    bound, a cardinality analysis at its prediction's cost, any other at
    q."""
    spec = config.construction
    q = spec.modulus

    def length(analysis) -> int:
        if analysis.kind == "cardinality":
            return spec.prediction_cost
        if analysis.sequence is None:
            return q
        return sequences.DERIVATIONS[analysis.sequence].length(q, spec.cost)

    return (
        spec.cost
        + sum(sequences.DERIVATIONS[d.kind].cost(q) for d in config.derivations)
        + sum(ANALYSES[a.kind].cost(a, length(a)) for a in config.analyses)
    )


# ----------------------------------------------------------------------
# Analysis execution.


class _Windows:
    """A run's derived sequences and their window counts.

    The sequences are derived when the run starts, but for a characteristic
    sequence that only sign_patterns reads, which the first of them
    derives.  Each sequence is tallied once (measures.window_tally), at the
    longest length that the run's analyses count of it and that is
    tallied, by the first analysis that reads it, so the tally's time is in
    that analysis's seconds.  Every shorter length is the tally's marginal;
    a length that is not tallied (more codes than windows) is counted on
    its own by pattern_counts.
    """

    def __init__(self, rset, config: ExperimentConfig):
        self.rset = rset
        self.seqs = {d.kind: d.derive(rset) for d in config.derivations}
        self.lengths, self.tallies = {}, {}
        for analysis in config.analyses:
            windows = ANALYSES[analysis.kind].windows
            if windows is not None:
                kind, length = windows(analysis)
                self.lengths.setdefault(kind, set()).add(length)

    def sequence(self, kind: str) -> sequences.DerivedSequence:
        seq = self.seqs.get(kind)
        if seq is None:  # only the characteristic sequence is not configured
            seq = self.seqs[kind] = sequences.derive_characteristic(self.rset)
        return seq

    def counts(self, kind: str, length: int) -> list:
        """The counts of every length-`length` window of kind's sequence,
        in the order of itertools.product over its alphabet."""
        seq = self.sequence(kind)
        tallied = [n for n in self.lengths[kind] if measures.tallied(seq, n)]
        if length not in tallied:
            counts = measures.pattern_counts(seq, length)
            patterns = itertools.product(seq.alphabet, repeat=length)
            return list(map(counts.get, patterns, itertools.repeat(0)))
        tally = self.tallies.get(kind)
        if tally is None:
            tally = self.tallies[kind] = measures.window_tally(seq, max(tallied))
        return tally.marginal(length).tolist()


def _status_of(asserted: bool, ok: bool) -> str:
    if not asserted:
        return "REPORT_ONLY"
    return "PASS" if ok else "FAIL"


def _combine(statuses) -> str:
    statuses = set(statuses)
    return next((s for s in ("FAIL", "PASS") if s in statuses), "REPORT_ONLY")


def _scored(empirical: int, main: Fraction, predicted: dict, budget, budget_json):
    """An item's fields but its label: its count against its main term."""
    # |empirical - main|, over main's denominator
    den = main.denominator
    deviation = Fraction(abs(empirical * den - main.numerator), den)
    ok = budget.allows(deviation) if budget.asserted else True
    return {
        "empirical": empirical,
        "predicted": predicted,
        "deviation": _fraction_json(deviation),
        "budget": budget_json,
        "status": _status_of(budget.asserted, ok),
    }


def _count_item(label, empirical, predicted: Fraction, budget: DeviationBudget):
    scored = _scored(
        empirical, predicted, _fraction_json(predicted), budget, _budget_json(budget)
    )
    return {"label": label, **scored}


def _analysis_budget(analysis, q: int) -> DeviationBudget:
    if analysis.budget is None:
        return predictions.report_only_budget("sqrt(q)*log(q)", 1, q)
    return analysis.budget.realize(q)


def _run_cardinality(rset, windows, config, analysis, op_budget):
    pred = predictions.predicted_cardinality(config.construction)
    return [_count_item("cardinality", rset.cardinality, pred.main, pred.budget)]


def _run_patterns(
    rset, windows, config, analysis, op_budget, *, budget=None,
    label=("pattern=", str),
):
    """Every alphabet^length window count against its main term, labelled
    by label = (prefix, text of a symbol), the symbols comma-separated;
    balance is this at length 1 with symbol= labels, sign_patterns on the
    characteristic sequence with +-1 labels.  The sequence and the length
    are those the analysis kind's `windows` names."""
    kind, length = ANALYSES[analysis.kind].windows(analysis)
    seq = windows.sequence(kind)
    main_term = sequences.DERIVATIONS[kind].main_term
    T, q = rset.cardinality, rset.q
    budget = budget or _analysis_budget(analysis, q)
    budget_json = _budget_json(budget)
    prefix, text = label
    alphabet = seq.alphabet
    texts = [text(symbol) for symbol in alphabet]
    labels = [prefix + t for t in texts]
    for _ in range(length - 1):  # in the order of itertools.product
        labels = [f"{head},{t}" for head in labels for t in texts]
    tally = windows.counts(kind, length)  # in the same order
    sums = [0]  # of each pattern's symbols, in the same order
    for _ in range(length):
        sums = [head + symbol for head in sums for symbol in alphabet]
    # A main term depends on its pattern only through (length, sum), so
    # one per sum; items of one (sum, count) share their scored fields.
    base, mains, bodies, items = len(alphabet), {}, {}, []
    for i, (name, total, n) in enumerate(zip(labels, sums, tally)):
        body = bodies.get((total, n))
        if body is None:
            if total not in mains:  # pattern i: i's digits in base |alphabet|
                digits = reversed(range(length))
                main = main_term(tuple(alphabet[i // base**d % base] for d in digits),
                                 T, q, seq.param)
                mains[total] = main, _fraction_json(main)
            body = bodies[total, n] = _scored(n, *mains[total], budget, budget_json)
        items.append(_Item(name, body))
    return items


def _run_sign_patterns(rset, windows, config, analysis, op_budget):
    """The characteristic sequence's length-s windows, labelled by +-1
    membership signs, plus the exact conservation row."""
    s, q = analysis.window, rset.q
    budget = None
    if analysis.lemma_budget:
        cmax = measures.correlation_up_to(rset, s, budget=op_budget)
        budget = analysis.budget.realize(q, cmax=(2**s) * cmax)
    items = _run_patterns(
        rset, windows, config, analysis, op_budget, budget=budget,
        label=("pattern=", lambda b: f"{2 * b - 1:+d}"),
    )
    total = sum(item["empirical"] for item in items)
    items.append(
        _count_item(
            "conservation", total, Fraction(q - s + 1), predictions.exact_budget()
        )
    )
    return items


def correlate(
    rset, analysis: AnalysisSpec, seed: int, *, budget: int
) -> measures.CorrelationResult:
    """The correlation a correlation analysis asks for: the exact scan, or
    the sampled one when it gives samples, drawn from its own seed or else
    from `seed`."""
    if analysis.samples is None:
        return measures.correlation_exact(rset, analysis.k, budget=budget)
    seed = seed if analysis.seed is None else analysis.seed
    return measures.correlation_sampled(
        rset, analysis.k, analysis.samples, seed, budget=budget
    )


def _run_correlation(rset, windows, config, analysis, op_budget):
    result = correlate(rset, analysis, config.seed, budget=op_budget)
    trivial = Fraction(min(rset.cardinality, rset.q - rset.cardinality))
    item = result.to_json()  # the result's fields, k in the label instead
    del item["k"]
    item.update(
        label=f"order={analysis.k}",
        value=_fraction_json(result.value),
        trivial_bound=_fraction_json(trivial),
        status="PASS" if result.value <= trivial else "FAIL",
    )
    return [item]


def _sign_patterns_cost(analysis, q: int) -> int:
    s = analysis.window
    cost = q * s + 2**s  # one pass of window codes, then one item per pattern
    if analysis.lemma_budget:
        cost += measures.up_to_cost(q, s)
    return cost


# ----------------------------------------------------------------------
# The analysis table: one record per kind.


@dataclass(frozen=True)
class AnalysisKind:
    """An analysis kind: its config keys besides "kind", parsed in order;
    its cost (analysis, n) for admission control, n the length bound of
    the sequence it reads (q for all but balance and patterns, which read
    a configured derivation, and cardinality, whose n is its prediction's
    cost; see estimate_cost); its runner (rset, windows, config, analysis,
    op_budget) -> items, windows the run's _Windows; lemma budgets or
    not; its check (analysis, q), if any, which refuses what cannot run
    at q before the set is built; and, for a kind that counts windows,
    the (derivation kind, length) of the windows it counts (analysis),
    which the config check's one family and main-term rule reads."""

    keys: tuple[str, ...]
    cost: Callable[[AnalysisSpec, int], int]
    run: Callable[..., list]
    lemma: bool = False
    check: Callable[[AnalysisSpec, int], None] | None = None
    windows: Callable[[AnalysisSpec], tuple[str, int]] | None = None


def _check_correlation(analysis, q: int) -> None:
    measures.validate_correlation(q, analysis.k, analysis.samples)


def _check_sign_patterns(analysis, q: int) -> None:
    s = analysis.window
    if s > q:  # before the lemma's scans, which would refuse order s instead
        raise PatternTooLongError(f"pattern length {s} exceeds q={q}")
    if analysis.lemma_budget:
        measures.validate_correlation(q, s)


ANALYSES = {
    "cardinality": AnalysisKind((), lambda a, n: n, _run_cardinality),
    "balance": AnalysisKind(
        ("sequence", "budget"),
        lambda a, q: q,
        partial(_run_patterns, label=("symbol=", str)),
        windows=lambda a: (a.sequence, 1),
    ),
    "patterns": AnalysisKind(
        ("sequence", "length", "budget"),
        lambda a, q: q * a.length + _MAX_PATTERN_FAMILY,
        _run_patterns,
        windows=lambda a: (a.sequence, a.length),
    ),
    "sign_patterns": AnalysisKind(
        ("window", "budget"),
        _sign_patterns_cost,
        _run_sign_patterns,
        lemma=True,
        check=_check_sign_patterns,
        windows=lambda a: ("characteristic", a.window),
    ),
    "correlation": AnalysisKind(
        ("k",),
        lambda a, q: measures.exact_cost(q, a.k),
        _run_correlation,
        check=_check_correlation,
    ),
    "correlation_sampled": AnalysisKind(
        ("k", "samples", "seed"),
        lambda a, q: a.samples * q,
        _run_correlation,
        check=_check_correlation,
    ),
}


@dataclass
class VerificationReport:
    """A finished run: JSON-ready body plus convenience accessors."""

    body: dict

    @property
    def status(self) -> str:
        return self.body["status"]

    @property
    def failed(self) -> bool:
        return self.status == "FAIL"

    def to_json_text(self) -> str:
        return json_text(self.body, sort_keys=True) + "\n"

    def csv_rows(self) -> list:
        rows = [list(_REPORT_COLUMNS)]
        for entry in self.body["analyses"]:
            name = _analysis_name(entry)
            for item in entry["items"]:
                rows.append(_item_row(name, item))
        return rows


def _analysis_name(entry: dict) -> str:
    spec = entry["analysis"]
    details = ",".join(
        f"{key}={spec[key]}"
        for key in ANALYSES[spec["kind"]].keys
        if key in spec and key not in _OPTIONAL_FIELDS
    )
    return spec["kind"] + (f"[{details}]" if details else "")


def _item_row(name: str, item: dict) -> list:
    """An item's CSV row, in _REPORT_COLUMNS order."""
    if "value" in item:  # correlation item
        scores = [item["value"]["decimal"], "", "", item["trivial_bound"]["decimal"]]
    else:
        scores = [str(item["empirical"]), item["predicted"]["decimal"],
                  item["deviation"]["decimal"], str(item["budget"]["value"])]
    return [name, item["label"], *scores, item["status"]]


def admit(config: ExperimentConfig, budget: int, what: str = "experiment") -> None:
    """Refuse a config before its set is built: each analysis's check
    refuses what cannot run at q (a correlation order outside 1..q or, also
    for a sign-pattern lemma budget, of 2 and up above q = 2^23; a
    sign-pattern window past q), then an estimate_cost above budget raises
    BudgetExceededError, "{what} needs ~N operations, budget is B"."""
    q = config.construction.modulus
    for analysis in config.analyses if q >= 1 else ():  # else construct refuses q
        check = ANALYSES[analysis.kind].check
        if check is not None:
            check(analysis, q)
    measures.admit(what, estimate_cost(config), budget, "operations")


def run(
    config: ExperimentConfig,
    *,
    workers: int = 1,
    op_budget: int = DEFAULT_BUDGET,
) -> VerificationReport:
    """Execute a config and report every analysis against its budget.

    The config is checked first as from_dict checks what it reads, so one
    built in code raises the ConfigError its JSON would; then it is
    admitted at op_budget (see admit), before the set is built.  Every
    analysis runs on the calling thread; `workers` is accepted and changes
    nothing.
    """
    t_start = time.perf_counter()
    _check(config)
    admit(config, op_budget)
    rset = construct(config.construction)
    windows = _Windows(rset, config)
    entries = []
    for analysis in config.analyses:
        t_a = time.perf_counter()
        items = ANALYSES[analysis.kind].run(rset, windows, config, analysis, op_budget)
        entries.append(
            {
                "analysis": analysis.to_dict(),
                "items": items,
                "status": _combine(i["status"] for i in items),
                "seconds": time.perf_counter() - t_a,
            }
        )
    body = {
        "tool": {"name": _TOOL_NAME, "version": __version__},
        "config": config.to_dict(),
        "config_hash": config_hash(config),
        "set": {"q": rset.q, "cardinality": rset.cardinality},
        "analyses": entries,
        "status": _combine(e["status"] for e in entries) if entries else "PASS",
        "timing": {"seconds": time.perf_counter() - t_start},
    }
    return VerificationReport(body)


# ----------------------------------------------------------------------
# Parameter sweeps.


def _list_index(target: list, part: str, path: str) -> int:
    try:
        target[int(part)]
    except (ValueError, IndexError):
        raise ConfigError(f"grid path {path!r}: no list index {part!r}") from None
    return int(part)


def _set_path(obj, path: str, value):
    parts = path.split(".")
    target = obj
    for part in parts[:-1]:
        if isinstance(target, list):
            target = target[_list_index(target, part, path)]
        elif isinstance(target, dict) and part in target:
            target = target[part]
        else:
            raise ConfigError(f"grid path {path!r}: missing segment {part!r}")
    last = parts[-1]
    if isinstance(target, list):
        target[_list_index(target, last, path)] = value
    elif isinstance(target, dict):
        target[last] = value
    else:
        raise ConfigError(f"grid path {path!r}: cannot set {last!r}")


def _grid_axes(grid) -> list:
    if not isinstance(grid, list) or not grid:
        raise EmptyGridError("grid must be a non-empty list of axes")
    axes = []
    for i, axis in enumerate(grid):
        if (
            not isinstance(axis, dict)
            or set(axis) != {"path", "values"}
            or not isinstance(axis["path"], str)
            or not isinstance(axis["values"], list)
        ):
            raise ConfigError(
                f'grid[{i}]: expected {{"path": .., "values": [..]}}'
            )
        if not axis["values"]:
            raise EmptyGridError(f"grid[{i}]: values must be non-empty")
        axes.append((axis["path"], axis["values"]))
    return axes


def _point_dict(base: dict, axes, values) -> dict:
    point = copy.deepcopy(base)
    for (path, _), value in zip(axes, values):
        _set_path(point, path, value)
    return point


def _run_point(config: ExperimentConfig, op_budget: int) -> dict:
    """One grid point's report body, or an error marker."""
    try:
        return run(config, op_budget=op_budget).body
    except Error as exc:  # keep the sweep going; note the failure
        return {"error": f"{type(exc).__name__}: {exc}"}


def _summary_item(entry: dict):
    """Representative item of an analysis: the largest deviation."""
    items = entry["items"]
    best = max(
        (i for i in items if "deviation" in i),
        key=lambda i: Fraction(i["deviation"]["num"], i["deviation"]["den"]),
        default=items[0],
    )
    return _item_row(_analysis_name(entry), best)


def sweep(
    base: dict,
    grid,
    *,
    op_budget: int = DEFAULT_BUDGET,
    outdir=None,
):
    """Run a base config across a parameter grid (cartesian product).

    Every point is validated and cost-estimated before anything runs;
    an oversized total is refused outright.  Points then run one after
    another in the calling process; one point's failure is recorded in
    the summary without stopping the rest.  Returns (bodies, rows) and,
    when outdir is given, writes report_NNNN.json files plus summary.csv
    with one row per (point, analysis), ordered by grid coordinates.
    """
    axes = _grid_axes(grid)
    coords = list(itertools.product(*(vals for _, vals in axes)))
    points = [_point_dict(base, axes, values) for values in coords]
    configs = []
    for i, point in enumerate(points):
        try:
            configs.append(ExperimentConfig.from_dict(point))
        except Error as exc:
            raise ConfigError(f"grid point {i}: {exc}") from exc
    what = f"sweep of {len(configs)} points"
    measures.admit(what, sum(map(estimate_cost, configs)), op_budget, "operations")
    bodies = [_run_point(c, op_budget) for c in configs]

    header = ["point", *(path for path, _ in axes), *_REPORT_COLUMNS, "seconds"]
    rows = [header]
    for i, (values, body) in enumerate(zip(coords, bodies)):
        prefix = [str(i)] + [json.dumps(v) if not isinstance(v, (int, str)) else str(v)
                             for v in values]
        if "error" in body:
            rows.append(prefix + ["-", body["error"], "", "", "", "", "ERROR", ""])
            continue
        for entry in body["analyses"]:
            rows.append(prefix + _summary_item(entry) + [f"{entry['seconds']:.6f}"])
    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        for i, body in enumerate(bodies):
            if "error" not in body:
                text = VerificationReport(body).to_json_text()
                (outdir / f"report_{i:04d}.json").write_text(text)
        (outdir / "summary.csv").write_text(csv_text(rows), newline="")
    return bodies, rows
