"""Spans around zqlab's public entry points, installed from outside.

Each wrapper replaces a function where its caller looks it up: the
module attribute (`harness.construct`, `measures.pattern_counts`, ...) or
the class attribute (`DeviationBudget.allows`).  A span is
[name, start, end, parent index, counters]; spans stay in memory and the
child writes them when the command returns.  A call into a layer from
inside the same layer (one main term calling another) records no span of
its own, so layer totals never count time twice.  Per-element helpers
such as `numtheory.fermat_quotient` are not wrapped.
"""

from __future__ import annotations

import math
import time

_MAIN_TERMS = (
    "predicted_cardinality",
    "gap_mod_symbol_main_term",
    "gap_threshold_symbol_main_term",
    "gap_mod_pattern_main_term",
    "gap_threshold_pattern_main_term",
    "characteristic_pattern_main_term",
    "sign_pattern_main_term",
)


def _construct_counts(args, kwargs, result):
    return {"kind": args[0].kind, "elements": result.cardinality}


def _derive_counts(args, kwargs, result):
    return {"kind": result.kind, "symbols": len(result.symbols)}


def _symbol_windows(args, kwargs, result):
    return {"windows": len(args[0].symbols)}


def _pattern_windows(args, kwargs, result):
    return {"windows": len(args[0].symbols) - args[1] + 1}


def _sign_windows(args, kwargs, result):
    return {"windows": args[0].q - len(tuple(args[1])) + 1}


def _corr_products(args, kwargs, result):
    q, k = args[0].q, args[1]
    return {"products": math.comb(q, k) * q}


def _sampled_tuples(args, kwargs, result):
    return {"tuples": args[2]}


def _run_items(args, kwargs, result):
    return {"items": sum(len(e["items"]) for e in result.body["analyses"])}


def _sweep_points(args, kwargs, result):
    return {"points": len(result[0])}


def _text_bytes(args, kwargs, result):
    return {"bytes": len(result.encode())}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def call(self, name: str, counters, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named `name`.

        `counters` is a dict, or a function of (args, kwargs, result)
        that returns one once the call has returned.
        """
        parent = self._stack[-1] if self._stack else -1
        if parent >= 0 and self.spans[parent][0] == name:
            return fn(*args, **kwargs)
        span = [name, time.monotonic(), None, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span[2] = time.monotonic()
            span[4] = {"error": type(exc).__name__}
            raise
        finally:
            self._stack.pop()
        span[2] = time.monotonic()
        span[4] = counters(args, kwargs, result) if callable(counters) else counters
        return result

    def wrap(self, name: str, fn, counters=None):
        def wrapper(*args, **kwargs):
            return self.call(name, counters, fn, *args, **kwargs)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _patch(self, owner, attr: str, name: str, counters=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), counters))

    def install(self) -> None:
        from zqlab import cli, harness, measures, numtheory, predictions, sequences

        construct = self.wrap("subsets.construct", harness.construct, _construct_counts)
        harness.construct = construct
        cli.construct = construct
        self._patch(numtheory, "build_index_table", "numtheory.index_table")
        for attr in ("derive_gap_mod", "derive_gap_threshold", "derive_characteristic"):
            self._patch(sequences, attr, "sequences.derive", _derive_counts)
        self._patch(measures, "symbol_counts", "measures.count", _symbol_windows)
        self._patch(measures, "pattern_counts", "measures.count", _pattern_windows)
        self._patch(measures, "sign_pattern_count", "measures.count", _sign_windows)
        self._patch(measures, "correlation_exact", "measures.corr_exact", _corr_products)
        self._patch(measures, "correlation_sampled", "measures.corr_sampled",
                    _sampled_tuples)
        self._patch(measures, "correlation_up_to", "measures.corr_up_to")
        for attr in _MAIN_TERMS:
            self._patch(predictions, attr, "predictions.main_terms")
        self._patch(predictions.DeviationBudget, "allows", "predictions.allows")
        self._patch(harness, "run", "harness.run", _run_items)
        self._patch(harness, "sweep", "harness.sweep", _sweep_points)
        self._patch(harness.VerificationReport, "to_json_text", "harness.serialize",
                    _text_bytes)
