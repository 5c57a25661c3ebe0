import atexit
import contextlib
import copy
import csv
import dataclasses
import decimal
import gc
import importlib.util
import itertools
import json
import math
import multiprocessing.process
import os
import random
import re
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zqlab import cli, errors, harness, measures, predictions, sequences
from zqlab.harness import (
    AnalysisSpec,
    BudgetSpec,
    DerivationSpec,
    ExperimentConfig,
    VerificationReport,
    config_hash,
    estimate_cost,
    run,
    sweep,
)
from zqlab.measures import SignVector, sign_pattern_count
from zqlab.predictions import DeviationBudget
from zqlab.subsets import ResidueSet, construct, quadratic_residue_set

BASE = {
    "construction": {"kind": "quadratic_residues", "params": {"p": 43}},
    "derivations": [
        {"kind": "gap_mod", "M": 2},
        {"kind": "gap_threshold", "m": 2},
        {"kind": "characteristic"},
    ],
    "analyses": [
        {"kind": "cardinality"},
        {
            "kind": "balance",
            "sequence": "gap_threshold",
            "budget": {"constant": 4, "shape": "sqrt_log"},
        },
        {
            "kind": "patterns",
            "sequence": "characteristic",
            "length": 2,
            "budget": {"constant": 16, "shape": "sqrt_log"},
        },
        {"kind": "sign_patterns", "window": 2, "budget": {"constant": 2, "shape": "lemma"}},
        {"kind": "correlation", "k": 2},
    ],
    "seed": 5,
}


def replaced(path, value):
    """BASE with the entry at `path` (a tuple of keys) set to value."""
    if not path:
        return value
    config = copy.deepcopy(BASE)
    target = config
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return config


def window_past_q(shape):
    """A sign_patterns analysis of window 6 on {0, 2} in Z_5, under `shape`."""
    budget = {"constant": 2, "shape": shape}
    return {
        "construction": {"kind": "explicit", "params": {"q": 5, "elements": [0, 2]}},
        "analyses": [{"kind": "sign_patterns", "window": 6, "budget": budget}],
    }


def scrub(obj):
    """Strip the timing keys, the only nondeterministic report fields."""
    if isinstance(obj, dict):
        return {k: scrub(v) for k, v in obj.items() if k not in ("seconds", "timing")}
    if isinstance(obj, list):
        return [scrub(v) for v in obj]
    return obj


class TestConfigParsing:
    def test_round_trip(self):
        config = ExperimentConfig.from_dict(BASE)
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_hash_is_stable_and_key_order_free(self):
        a = ExperimentConfig.from_dict(BASE)
        reordered = json.loads(json.dumps(BASE))
        reordered["analyses"][0] = {"kind": "cardinality"}
        b = ExperimentConfig.from_dict(reordered)
        assert config_hash(a) == config_hash(b)

    def test_error_paths_name_fields(self):
        bad = copy.deepcopy(BASE)
        bad["analyses"][1]["budget"]["shape"] = "cubic"
        with pytest.raises(errors.ConfigError, match=r"analyses\[1\]\.budget\.shape"):
            ExperimentConfig.from_dict(bad)

        bad = copy.deepcopy(BASE)
        bad["derivations"][0]["M"] = 1
        with pytest.raises(errors.ConfigError, match=r"derivations\[0\]\.M"):
            ExperimentConfig.from_dict(bad)

        bad = copy.deepcopy(BASE)
        del bad["construction"]
        with pytest.raises(errors.ConfigError, match="construction"):
            ExperimentConfig.from_dict(bad)

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("derivations", 0), {"kind": "gap_mod", "M": "2"},
             "derivations[0].M: expected an integer, got '2'"),
            (("derivations", 0), 5, "derivations[0]: expected an object"),
            (("derivations", 0), {"kind": "gaps"},
             "derivations[0].kind: unknown derivation kind 'gaps'"),
            (("derivations", 0), {"kind": "gap_mod", "M": 2, "m": 3},
             "derivations[0]: unexpected keys ['m']"),
            (("derivations", 0), {"kind": "gap_mod"}, "derivations[0].M: required"),
            (("analyses", 1, "budget"), {"constant": 4},
             'analyses[1].budget: expected {"constant": .., "shape": ..}'),
            (("analyses", 0), "cardinality", "analyses[0]: expected an object"),
            (("analyses", 0), {"kind": "entropy"},
             "analyses[0].kind: unknown analysis kind 'entropy'"),
            (("analyses", 1), {"kind": "balance"}, "analyses[1].sequence: required"),
            (("analyses", 1), {"kind": "balance", "sequence": 3},
             "analyses[1].sequence: expected a derivation kind name"),
            ((), [BASE], "config: expected an object"),
            (("extra",), 1, "config: unexpected keys ['extra']"),
            (("construction",), {"kind": "mystery", "params": {}},
             "construction: unknown construction kind 'mystery'"),
        ],
    )
    def test_invalid_config_names_its_path(self, path, value, message):
        with pytest.raises(errors.ConfigError) as info:
            ExperimentConfig.from_dict(replaced(path, value))
        assert str(info.value) == message

    def test_unknown_sequence_rejected(self):
        bad = copy.deepcopy(BASE)
        bad["analyses"][1]["sequence"] = "gaps"
        with pytest.raises(errors.ConfigError, match=r"analyses\[1\]\.sequence"):
            ExperimentConfig.from_dict(bad)

    def test_duplicate_derivations_rejected(self):
        bad = copy.deepcopy(BASE)
        bad["derivations"].append({"kind": "gap_mod", "M": 3})
        with pytest.raises(errors.ConfigError, match="duplicate"):
            ExperimentConfig.from_dict(bad)

    def test_feasibility_guards(self):
        bad = copy.deepcopy(BASE)
        bad["analyses"][3]["window"] = 13  # 2^13 sign patterns
        with pytest.raises(errors.ConfigError, match=r"analyses\[3\]: alphabet"):
            ExperimentConfig.from_dict(bad)

        bad = copy.deepcopy(BASE)
        bad["derivations"][0]["M"] = 20
        bad["analyses"].append(
            {"kind": "patterns", "sequence": "gap_mod", "length": 3}
        )
        with pytest.raises(errors.ConfigError, match="length"):
            ExperimentConfig.from_dict(bad)

    @pytest.mark.parametrize("M", [10**12, 10**30])
    def test_feasibility_guard_huge_alphabet(self, M):
        # refused from the alphabet's size alone, without enumerating it
        bad = copy.deepcopy(BASE)
        bad["derivations"][0]["M"] = M
        bad["analyses"].append(
            {"kind": "patterns", "sequence": "gap_mod", "length": 1}
        )
        with pytest.raises(errors.ConfigError, match="alphabet"):
            ExperimentConfig.from_dict(bad)

    def test_balance_huge_alphabet_refused(self):
        # balance is length-1 patterns: one item per symbol, so the same cap
        bad = copy.deepcopy(BASE)
        bad["derivations"][0]["M"] = 10**12
        bad["analyses"].append({"kind": "balance", "sequence": "gap_mod"})
        with pytest.raises(errors.ConfigError, match=r"analyses\[5\]: alphabet"):
            ExperimentConfig.from_dict(bad)

    @pytest.mark.parametrize("key", ["derivations", "analyses"])
    @pytest.mark.parametrize("value", [5, {"kind": "cardinality"}, "characteristic"])
    def test_non_list_sections_rejected(self, key, value):
        bad = dict(copy.deepcopy(BASE), **{key: value})
        with pytest.raises(errors.ConfigError, match=f"{key}: expected a list"):
            ExperimentConfig.from_dict(bad)

    def test_lemma_budget_only_for_sign_patterns(self):
        bad = copy.deepcopy(BASE)
        bad["analyses"][1]["budget"]["shape"] = "lemma"
        with pytest.raises(errors.ConfigError, match="lemma"):
            ExperimentConfig.from_dict(bad)

    def test_unexpected_keys_rejected(self):
        bad = copy.deepcopy(BASE)
        bad["analyses"][0]["k"] = 2
        with pytest.raises(errors.ConfigError, match=r"analyses\[0\]"):
            ExperimentConfig.from_dict(bad)

    @pytest.mark.parametrize(
        "constant",
        [
            {"num": True, "den": 2},  # a bool is not an integer
            {"num": 1, "den": 0},
            {"num": 1, "den": 2, "scale": 3},  # unknown key
            "1/2",
            {"num": -1, "den": 2},
        ],
    )
    def test_bad_budget_constant_rejected(self, constant):
        bad = copy.deepcopy(BASE)
        bad["analyses"][1]["budget"]["constant"] = constant
        with pytest.raises(errors.ConfigError, match=r"analyses\[1\]\.budget\.constant"):
            ExperimentConfig.from_dict(bad)

    @pytest.mark.parametrize("shape", ["cubic", ["sqrt_log"], None])
    def test_unknown_budget_shape_rejected(self, shape):
        bad = copy.deepcopy(BASE)
        bad["analyses"][1]["budget"]["shape"] = shape
        shapes = "('absolute', 'sqrt_log', 'sqrt_log2', 'lemma')"
        with pytest.raises(errors.ConfigError) as info:
            ExperimentConfig.from_dict(bad)
        assert str(info.value) == (
            f"analyses[1].budget.shape: expected one of {shapes}, got {shape!r}"
        )

    def test_realize_each_shape(self):
        c = Fraction(3, 2)

        def realize(shape, **kwargs):
            return BudgetSpec(c, shape).realize(101, **kwargs)

        assert realize("absolute") == DeviationBudget("3/2", True, c)
        assert realize("sqrt_log") == DeviationBudget(
            "3/2*sqrt(q)*log(q)", True, c, sqrt_arg=101, log_power=1, log_arg=101
        )
        assert realize("sqrt_log2") == DeviationBudget(
            "3/2*sqrt(q)*log(q)^2", True, c, sqrt_arg=101, log_power=2, log_arg=101
        )
        assert realize("lemma", cmax=Fraction(8, 5)) == DeviationBudget(
            "3/2*2^s*Cmax", True, Fraction(12, 5)
        )
        with pytest.raises(TypeError):  # a lemma budget needs its 2^s * Cmax
            realize("lemma")

    def test_rational_budget_constant(self):
        spec = BudgetSpec.from_dict(
            {"constant": {"num": 2, "den": 6}, "shape": "absolute"}, "budget"
        )
        assert spec.constant == Fraction(1, 3)
        assert BudgetSpec.from_dict(spec.to_dict(), "budget") == spec


class TestRun:
    def test_full_report_shape_and_status(self):
        config = ExperimentConfig.from_dict(BASE)
        report = run(config)
        body = report.body
        assert body["status"] == "PASS"
        assert body["set"] == {"q": 43, "cardinality": 21}
        assert body["config_hash"] == config_hash(config)
        assert body["tool"]["name"] == "zqlab"
        assert len(body["analyses"]) == len(BASE["analyses"])
        assert not report.failed

    def test_determinism_across_runs_and_workers(self):
        config = ExperimentConfig.from_dict(BASE)
        a = run(config, workers=1).body
        b = run(config, workers=4).body
        assert scrub(a) == scrub(b)
        assert json.dumps(scrub(a), sort_keys=True) == json.dumps(
            scrub(b), sort_keys=True
        )

    def test_reports_ignore_the_callers_decimal_context(self):
        # QR 43's pattern main terms are inexact in 15 digits, and its
        # sqrt_log budgets bracket ln 43: a caller's rounding, traps,
        # precision or exponent letter would change the report or stop it
        config = ExperimentConfig.from_dict(BASE)
        expected = harness.json_text(scrub(run(config).body), sort_keys=True)
        large = harness._fraction_json(Fraction(10**30, 3))
        assert large["decimal"] == "3.33333333333333E+29"
        hostile = decimal.Context(
            prec=3, rounding=decimal.ROUND_DOWN, Emin=-5, Emax=5, capitals=0,
            traps=[decimal.Inexact, decimal.Rounded, decimal.Overflow,
                   decimal.Underflow, decimal.Clamped, decimal.FloatOperation],
        )
        predictions._ln_bracket.cache_clear()  # recomputed under the context
        with decimal.localcontext(hostile):
            text = harness.json_text(scrub(run(config).body), sort_keys=True)
            assert harness._fraction_json(Fraction(10**30, 3)) == large
        assert text == expected

    def test_correlation_analysis_value(self):
        config = ExperimentConfig.from_dict(
            {
                "construction": {"kind": "explicit", "params": {"q": 4, "elements": [0]}},
                "analyses": [{"kind": "correlation", "k": 1}],
            }
        )
        item = run(config).body["analyses"][0]["items"][0]
        assert item["value"] == {"num": 3, "den": 4, "decimal": "0.75"}
        assert item["status"] == "PASS"

    def test_fermat_cardinality_check(self):
        config = ExperimentConfig.from_dict(
            {
                "construction": {
                    "kind": "fermat_quotient_power_residues",
                    "params": {"p": 7, "d": 1},
                },
                "analyses": [{"kind": "cardinality"}],
            }
        )
        item = run(config).body["analyses"][0]["items"][0]
        assert item["empirical"] == 36
        assert item["predicted"]["num"] == 36
        assert item["status"] == "PASS"

    @pytest.mark.parametrize("derived", [True, False])
    def test_sign_patterns_derive_the_characteristic_once(self, monkeypatch, derived):
        calls, derive = [], sequences.derive_characteristic

        def counting(rset):
            calls.append(rset.q)
            return derive(rset)

        # the DERIVATIONS lambdas look the builder up by name
        monkeypatch.setattr(sequences, "derive_characteristic", counting)
        config = {
            "construction": {"kind": "quadratic_residues", "params": {"p": 43}},
            "derivations": [{"kind": "characteristic"}] if derived else [],
            "analyses": [{"kind": "sign_patterns", "window": 3}],
        }
        items = run(ExperimentConfig.from_dict(config)).body["analyses"][0]["items"]
        assert calls == [43]
        assert items[-1]["label"] == "conservation" and items[-1]["empirical"] == 41

    def test_qr_balance_passes(self):
        config = ExperimentConfig.from_dict(
            {
                "construction": {"kind": "quadratic_residues", "params": {"p": 10007}},
                "derivations": [{"kind": "gap_threshold", "m": 2}],
                "analyses": [
                    {
                        "kind": "balance",
                        "sequence": "gap_threshold",
                        "budget": {"constant": 4, "shape": "sqrt_log"},
                    }
                ],
            }
        )
        assert run(config).status == "PASS"

    def test_zero_budget_fails_and_sets_exit_semantics(self):
        config = ExperimentConfig.from_dict(
            {
                "construction": {"kind": "quadratic_residues", "params": {"p": 43}},
                "derivations": [{"kind": "gap_mod", "M": 2}],
                "analyses": [
                    {
                        "kind": "balance",
                        "sequence": "gap_mod",
                        "budget": {"constant": 0, "shape": "absolute"},
                    }
                ],
            }
        )
        report = run(config)
        assert report.status == "FAIL"
        assert report.failed
        statuses = [i["status"] for i in report.body["analyses"][0]["items"]]
        assert "FAIL" in statuses

    def test_report_only_without_budget(self):
        config = ExperimentConfig.from_dict(
            {
                "construction": {"kind": "quadratic_residues", "params": {"p": 43}},
                "derivations": [{"kind": "characteristic"}],
                "analyses": [
                    {"kind": "patterns", "sequence": "characteristic", "length": 1}
                ],
            }
        )
        entry = run(config).body["analyses"][0]
        assert entry["status"] == "REPORT_ONLY"
        assert all(i["status"] == "REPORT_ONLY" for i in entry["items"])
        assert all(not i["budget"]["asserted"] for i in entry["items"])

    def test_report_holds_plain_python_values(self):
        config = copy.deepcopy(BASE)
        config["analyses"] += [
            {"kind": "balance", "sequence": "gap_mod"},
            {"kind": "correlation_sampled", "k": 2, "samples": 5},
        ]
        body = run(ExperimentConfig.from_dict(config)).body

        def leaves(obj):
            if isinstance(obj, dict):
                assert all(type(k) is str for k in obj)
                obj = list(obj.values())
            if isinstance(obj, list):
                for value in obj:
                    yield from leaves(value)
            else:
                yield obj

        # numpy scalars are not JSON serializable: json rejects np.int64
        allowed = (str, int, float, bool, type(None))
        assert all(type(leaf) in allowed for leaf in leaves(body))
        json.dumps(body)

    def test_sign_patterns_conservation_item(self):
        config = ExperimentConfig.from_dict(
            {
                "construction": {"kind": "quadratic_residues", "params": {"p": 23}},
                "analyses": [{"kind": "sign_patterns", "window": 3}],
            }
        )
        entry = run(config).body["analyses"][0]
        conservation = entry["items"][-1]
        assert conservation["label"] == "conservation"
        assert conservation["empirical"] == 23 - 3 + 1
        assert conservation["status"] == "PASS"
        # 8 patterns + the conservation row
        assert len(entry["items"]) == 9

    @given(
        st.integers(min_value=4, max_value=24).flatmap(
            lambda q: st.sets(st.integers(0, q - 1), min_size=1, max_size=q - 1).map(
                lambda els: ResidueSet(q, tuple(sorted(els)))
            )
        ),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_sign_patterns_items_are_sign_pattern_counts(self, r, s):
        config = ExperimentConfig.from_dict(
            {
                "construction": {
                    "kind": "explicit",
                    "params": {"q": r.q, "elements": list(r.elements)},
                },
                "analyses": [{"kind": "sign_patterns", "window": s}],
            }
        )
        if s > r.q:
            with pytest.raises(
                errors.PatternTooLongError, match=f"pattern length {s} exceeds q={r.q}"
            ):
                run(config)
            return
        items = run(config).body["analyses"][0]["items"]
        sv = SignVector.from_set(r)
        patterns = list(itertools.product((-1, 1), repeat=s))
        assert [i["label"] for i in items[:-1]] == [
            "pattern=" + ",".join(f"{e:+d}" for e in pat) for pat in patterns
        ]
        assert [i["empirical"] for i in items[:-1]] == [
            sign_pattern_count(sv, pat) for pat in patterns
        ]
        assert items[-1]["label"] == "conservation"
        assert items[-1]["empirical"] == r.q - s + 1

    @pytest.mark.parametrize("shape", ["sqrt_log", "lemma"])
    def test_sign_patterns_window_past_q_under_either_budget(self, shape):
        # the window check comes before the lemma's correlation scans
        config = ExperimentConfig.from_dict(window_past_q(shape))
        with pytest.raises(errors.PatternTooLongError, match="pattern length 6 exceeds q=5"):
            run(config)

    LENGTH_12 = {
        "construction": {"kind": "quadratic_residues", "params": {"p": 1009}},
        "derivations": [{"kind": "characteristic"}],
        "analyses": [
            {"kind": "patterns", "sequence": "characteristic", "length": 12,
             "budget": {"constant": 4, "shape": "sqrt_log"}},
        ],
    }

    def test_one_main_term_per_pattern_weight(self, monkeypatch):
        calls = []
        term = predictions.characteristic_pattern_main_term

        def counted(pattern, T, q):
            calls.append(pattern)
            return term(pattern, T, q)

        monkeypatch.setattr(predictions, "characteristic_pattern_main_term", counted)
        config = ExperimentConfig.from_dict(self.LENGTH_12)
        items = run(config).body["analyses"][0]["items"]
        assert len(calls) == 13  # weights 0..12 of 4096 patterns
        # every item is what scoring it on its own gives
        rset = construct(config.construction)
        counts = measures.pattern_counts(sequences.derive_characteristic(rset), 12)
        budget = config.analyses[0].budget.realize(rset.q)
        patterns = itertools.product((0, 1), repeat=12)
        for item, pattern in zip(items, patterns, strict=True):
            main = term(pattern, rset.cardinality, rset.q)
            label = "pattern=" + ",".join(map(str, pattern))
            n = counts.get(pattern, 0)
            assert item == harness._count_item(label, n, main, budget)

    # balance, patterns at two lengths and sign_patterns on one
    # characteristic sequence; configured, or derived for sign_patterns
    ONE_SEQUENCE = [
        {
            "construction": {"kind": "quadratic_residues", "params": {"p": 10007}},
            "derivations": [{"kind": "characteristic"}],
            "analyses": [
                {"kind": "balance", "sequence": "characteristic"},
                {"kind": "patterns", "sequence": "characteristic", "length": 3},
                {"kind": "sign_patterns", "window": 8,
                 "budget": {"constant": 32, "shape": "sqrt_log"}},
                {"kind": "patterns", "sequence": "characteristic", "length": 12,
                 "budget": {"constant": 32, "shape": "sqrt_log"}},
            ],
        },
        {
            "construction": {"kind": "quadratic_residues", "params": {"p": 1009}},
            "analyses": [
                {"kind": "sign_patterns", "window": 2},
                {"kind": "cardinality"},
                {"kind": "sign_patterns", "window": 9},
            ],
        },
    ]

    @pytest.mark.parametrize("raw", ONE_SEQUENCE, ids=["configured", "derived"])
    def test_one_tally_per_sequence(self, raw, monkeypatch):
        config = ExperimentConfig.from_dict(raw)
        tallies, derived = [], []
        tally, derive = measures.window_tally, sequences.derive_characteristic
        monkeypatch.setattr(
            measures, "window_tally",
            lambda seq, length: tallies.append(length) or tally(seq, length),
        )
        monkeypatch.setattr(
            sequences, "derive_characteristic",
            lambda rset: derived.append(rset.q) or derive(rset),
        )
        body = run(config).body
        longest = max(a.length or a.window or 1 for a in config.analyses)
        assert tallies == [longest] and len(derived) == 1
        # each analysis counting on its own, by pattern_counts, gives the items
        del tallies[:]
        monkeypatch.setattr(measures, "tallied", lambda seq, length: False)
        assert scrub(run(config).body) == scrub(body) and tallies == []

    def test_a_length_past_the_tally_is_counted_on_its_own(self, monkeypatch):
        # gap_threshold m=2 of QR 43: 20 symbols, 2^6 codes of 15 windows
        config = ExperimentConfig.from_dict({
            "construction": {"kind": "quadratic_residues", "params": {"p": 43}},
            "derivations": [{"kind": "gap_threshold", "m": 2}],
            "analyses": [
                {"kind": "patterns", "sequence": "gap_threshold", "length": 6},
                {"kind": "balance", "sequence": "gap_threshold"},
                {"kind": "patterns", "sequence": "gap_threshold", "length": 3},
            ],
        })
        tallies, tally = [], measures.window_tally
        monkeypatch.setattr(
            measures, "window_tally",
            lambda seq, length: tallies.append(length) or tally(seq, length),
        )
        body = run(config).body
        # length 6 is sorted by pattern_counts; 1 is the length-3 tally's marginal
        assert tallies == [3]
        seq = sequences.derive_gap_threshold(construct(config.construction), 2)
        for entry, length in zip(body["analyses"], (6, 1, 3)):
            counts = measures.pattern_counts(seq, length)
            patterns = itertools.product((0, 1), repeat=length)
            assert [i["empirical"] for i in entry["items"]] == [
                counts.get(pattern, 0) for pattern in patterns
            ]

    def test_items_of_one_class_and_count_share_their_fields(self):
        config = ExperimentConfig.from_dict(self.LENGTH_12)
        items = run(config).body["analyses"][0]["items"]
        by_class = {}
        for item in items:
            weight = item["label"].count("1")
            by_class.setdefault((weight, item["empirical"]), []).append(item)
        a, b = next(group for group in by_class.values() if len(group) > 1)[:2]
        assert a["label"] != b["label"]
        assert a["deviation"] is b["deviation"]
        assert a["predicted"] is b["predicted"]
        assert all(item["budget"] is a["budget"] for item in items)
        assert len({id(item["deviation"]) for item in items}) == len(by_class)

    def test_correlation_item_is_the_result_fields(self):
        config = ExperimentConfig.from_dict(BASE)
        entry = run(config).body["analyses"][-1]
        (item,) = entry["items"]
        result = measures.correlation_exact(construct(config.construction), 2)
        fields = result.to_json()
        assert set(item) == set(fields) - {"k"} | {"label", "trivial_bound", "status"}
        assert item["label"] == "order=2"
        assert item["value"] == {**fields["value"], "decimal": item["value"]["decimal"]}
        assert all(item[key] == fields[key] for key in fields if key not in ("k", "value"))

    def test_lemma_budget_uses_exact_correlation(self):
        config = ExperimentConfig.from_dict(
            {
                "construction": {"kind": "quadratic_residues", "params": {"p": 23}},
                "analyses": [
                    {
                        "kind": "sign_patterns",
                        "window": 2,
                        "budget": {"constant": 2, "shape": "lemma"},
                    }
                ],
            }
        )
        entry = run(config).body["analyses"][0]
        assert entry["status"] == "PASS"
        budgets = {i["budget"]["formula"] for i in entry["items"][:-1]}
        assert budgets == {"2*2^s*Cmax"}

    def test_sampled_correlation_uses_config_seed(self):
        cfg = {
            "construction": {"kind": "quadratic_residues", "params": {"p": 101}},
            "analyses": [{"kind": "correlation_sampled", "k": 2, "samples": 40}],
            "seed": 11,
        }
        a = run(ExperimentConfig.from_dict(cfg)).body
        b = run(ExperimentConfig.from_dict(cfg)).body
        assert scrub(a) == scrub(b)
        cfg2 = dict(cfg, seed=12)
        c = run(ExperimentConfig.from_dict(cfg2)).body
        assert c["config_hash"] != a["config_hash"]

    def test_csv_rows(self):
        config = ExperimentConfig.from_dict(BASE)
        rows = run(config).csv_rows()
        assert rows[0][0] == "analysis"
        assert len(rows) > 10
        assert all(len(r) == len(rows[0]) for r in rows)


json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**199, max_value=10**200).map(lambda n: n * (-1) ** n)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 1e300])
    | st.text()
    | st.sampled_from(["", "é", "naïve ✓", "\n\t\"\\", "\u2028", "\U0001f600"])
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=4), children, max_size=5),
    max_leaves=40,
)


class TestJsonText:
    """harness.json_text is json.dumps(indent=2), byte for byte."""

    @given(json_values, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_equals_json_dumps(self, value, sort_keys):
        expected = json.dumps(value, indent=2, sort_keys=sort_keys)
        assert harness.json_text(value, sort_keys=sort_keys) == expected

    @given(st.dictionaries(st.text(max_size=3), json_values, max_size=4), json_values,
           st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_shared_dict_at_two_depths(self, shared, other, sort_keys):
        value = {"b": shared, "a": [other, {"z": shared}, shared], "c": []}
        expected = json.dumps(value, indent=2, sort_keys=sort_keys)
        assert harness.json_text(value, sort_keys=sort_keys) == expected

    @pytest.mark.parametrize(
        "value",
        [{}, [], {"a": {}, "b": [[], {}]}, ("t", ("u",)), [None, 1.5, "x", True]],
    )
    def test_edge_containers(self, value):
        for sort_keys in (False, True):
            expected = json.dumps(value, indent=2, sort_keys=sort_keys)
            assert harness.json_text(value, sort_keys=sort_keys) == expected

    def test_report_text(self):
        body = run(ExperimentConfig.from_dict(BASE)).body
        assert VerificationReport(body).to_json_text() == (
            json.dumps(body, indent=2, sort_keys=True) + "\n"
        )


class TestJsonTextSharedEntries:
    """json_text keeps the text of each entry by its key's text, its
    value's identity and its depth; what it writes is still json.dumps's."""

    @staticmethod
    def check(value):
        for sort_keys in (False, True):
            expected = json.dumps(value, indent=2, sort_keys=sort_keys)
            assert harness.json_text(value, sort_keys=sort_keys) == expected

    @pytest.mark.parametrize("shared", [{"x": [1, 2]}, [3, {"y": None}], 7, "s", 2.5])
    def test_equal_keys_of_other_types(self, shared):
        # 1 == True == 1.0: a cache keyed on the key itself would write one
        # of these dicts with another's key
        for order in itertools.permutations([1, True, 1.0]):
            self.check([{key: shared} for key in order])
            self.check({str(i): {key: shared} for i, key in enumerate(order)})
            self.check([[{key: shared}] for key in order] + [{key: shared} for key in order])

    @given(
        json_values,
        st.lists(
            st.tuples(st.sampled_from(["a", "b", 1, True, 1.0, 0, False, None]),
                      st.integers(0, 3)),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_one_value_under_many_keys_and_depths(self, shared, places):
        root = []
        for key, depth in places:
            node = {key: shared}
            for level in range(depth):
                node = [node] if level % 2 else {"n": node, "m": shared}
            root.append(node)
        self.check(root)

    def test_true_and_one_as_shared_values(self):
        one, true = 1, True
        value = {
            "a": true, "b": one, "c": [true, one, 1.0, 0, False],
            "d": {"x": true}, "e": {"x": one}, "f": [{"x": one}, {"x": true}],
            "g": {"x": [one, true]}, "h": {"x": [true, one]},
        }
        self.check(value)
        self.check([value, {"v": value}, [value]])

    def test_nan_inf_and_non_ascii(self):
        nan, inf = float("nan"), float("inf")
        value = {
            "é": nan, "naïve ✓": [inf, -inf, nan], "\U0001f600": "ü\u2028",
            "z": {"é": [nan, {"ü": inf}], "x": "\U0001f600"},
            "w": [{"é": nan}, {"é": inf}, {"é": "é"}],
        }
        self.check(value)
        self.check({nan: [1], inf: {"é": nan}, -inf: "✓"})


# Labels that a splice could get wrong: quotes, backslashes, format and
# separator text, non-ASCII, and text that looks like the item's own keys.
item_labels = (
    st.text()
    | st.sampled_from(['"', "\\", "%", "%s", "{}", "é", "naïve ✓", "\U0001f600",
                       "\u2028", '"label": ', ",\n  ", "}", "", "pattern=+1,-1"])
    | json_scalars
)
item_bodies = st.dictionaries(
    st.text(max_size=4).filter(lambda key: key != "label"), json_values, max_size=5
)


def mutated(item, how):
    """`item` changed in place by one of dict's mutators."""
    key = next(iter(item))
    {
        "setitem": lambda: item.__setitem__("extra", [1]),
        "delitem": lambda: item.__delitem__(key),
        "ior": lambda: item.__ior__({"z": None}),
        "clear": item.clear,
        "pop": lambda: item.pop(key),
        "popitem": item.popitem,
        "setdefault": lambda: item.setdefault("new", {"a": 1}),
        "update": lambda: item.update(label="changed"),
    }[how]()
    return item


class TestJsonTextItems:
    """Report items (harness._Item) that share their scored fields are
    written as the text around their label with the label spliced in; the
    text is still json.dumps's."""

    check = staticmethod(TestJsonTextSharedEntries.check)

    @given(
        st.lists(item_bodies, min_size=1, max_size=4),
        st.lists(st.tuples(item_labels, st.integers(0, 3)), min_size=1, max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_shared_bodies_equal_json_dumps(self, bodies, labelled):
        items = [harness._Item(label, bodies[i % len(bodies)]) for label, i in labelled]
        report = {
            "analyses": [{"items": items, "status": "PASS"}, {"items": items[:1]}],
            "deeper": [[{"items": items}]],  # the same bodies at other depths
            "status": "PASS",
        }
        self.check(report)
        self.check(items)

    @given(
        item_bodies,
        st.lists(item_labels, min_size=2, max_size=6),
        st.sampled_from(
            ["setitem", "delitem", "ior", "clear", "pop", "popitem", "setdefault",
             "update"]
        ),
        st.integers(0, 5),
    )
    @settings(max_examples=100, deadline=None)
    def test_a_changed_item_is_written_as_it_is(self, body, labels, how, which):
        items = [harness._Item(label, body) for label in labels]
        mutated(items[which % len(items)], how)
        self.check({"items": items})

    def test_copies_are_written_as_they_are(self):
        body = {"empirical": 3, "deviation": {"num": 1, "den": 2}, "status": "PASS"}
        items = [harness._Item(f"pattern={i}", body) for i in range(3)]
        for copied in (copy.deepcopy(items), [copy.copy(item) for item in items]):
            copied[1]["empirical"] = 4
            self.check({"items": copied})
            assert items[1]["empirical"] == 3
        assert [dict(item) for item in items] == [
            {"label": f"pattern={i}", **body} for i in range(3)
        ]

    def test_report_items_share_their_fields(self):
        body = run(ExperimentConfig.from_dict(TestRun.LENGTH_12)).body
        items = body["analyses"][0]["items"]
        assert all(type(item) is harness._Item for item in items)
        assert len({id(item.fields) for item in items}) < len(items)
        assert VerificationReport(body).to_json_text() == (
            json.dumps(body, indent=2, sort_keys=True) + "\n"
        )


# Keys json.dumps accepts besides str: it writes their scalar text, quoted.
json_keys = (
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
)


@contextlib.contextmanager
def digit_limit(limit: int):
    """The interpreter's int-to-str digit limit set to `limit` (0: none)."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


class TestJsonTextDigitLimit:
    """json_text writes ints past the int-to-str digit limit, which json
    refuses, as json.dumps writes them without the limit."""

    VALUES = [
        10**3000,
        {"num": -(10**700) - 7, "den": 3, "decimal": "x"},
        [1, 10**640, 10**641 - 1, -(10**1536), 2**5000 + 1],
        {"a": [10**2000], "b": {"c": 10**513 * 7 + 1}},
    ]

    @pytest.mark.parametrize("value", VALUES, ids=["int", "dict", "list", "nested"])
    def test_equals_json_dumps_without_the_limit(self, value):
        for sort_keys in (False, True):
            with digit_limit(640):  # the least the interpreter allows
                text = harness.json_text(value, sort_keys=sort_keys)
            with digit_limit(0):
                assert text == json.dumps(value, indent=2, sort_keys=sort_keys)

    @given(st.integers(1, 6000), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_int_text_is_str(self, digits, negative):
        n = random.Random(digits).randrange(10 ** (digits - 1), 10**digits)
        n = -n if negative else n
        with digit_limit(640):
            text = harness._int_text(n)
        with digit_limit(0):
            assert text == str(n)


class TestJsonTextKeys:
    """json_text writes non-str keys and refuses keys as json.dumps does."""

    @given(
        st.recursive(
            json_scalars,
            lambda children: st.lists(children, max_size=4)
            | st.dictionaries(json_keys, children, max_size=4),
            max_leaves=30,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_int_float_bool_none_keys(self, value):
        # in insertion order: keys of mixed types do not sort
        assert harness.json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "value",
        [
            {1: {2: [3]}, -4: [{}], 10**30: {"x": None}},
            {0.5: [1, {"a": 2}], -0.0: {}, float("nan"): [[]], float("inf"): {3: 4}},
            {True: {False: [None]}, False: [{None: True}]},
            {None: [{None: {None: 1}}]},
            [{7: {8: [9, {10: 11}]}}],
        ],
    )
    def test_nested_non_str_keys(self, value):
        for sort_keys in (False, True):
            expected = json.dumps(value, indent=2, sort_keys=sort_keys)
            assert harness.json_text(value, sort_keys=sort_keys) == expected

    @pytest.mark.parametrize(
        "value", [{(1, 2): 3}, {(1,): [4]}, {"a": {(): {}}}, [{"b": 1, (5,): [6]}]]
    )
    def test_tuple_key_raises_type_error(self, value):
        with pytest.raises(TypeError) as expected:
            json.dumps(value, indent=2)
        with pytest.raises(TypeError) as got:
            harness.json_text(value)
        assert str(got.value) == str(expected.value)


class TestCsvText:
    def test_rows_end_in_crlf(self):
        rows = [["a", "b"], [1, "x,y"], ['q"', None]]
        assert harness.csv_text(rows) == 'a,b\r\n1,"x,y"\r\n"q""",\r\n'

    def test_summary_csv_is_the_rows(self, tmp_path):
        _, rows = sweep(TestSweep.SWEEP_BASE, TestSweep.GRID, outdir=tmp_path)
        data = (tmp_path / "summary.csv").read_bytes()
        assert data == harness.csv_text(rows).encode()
        assert data.count(b"\r\n") == len(rows) == data.count(b"\n")


class TestEstimateCost:
    def test_correlation_dominates(self):
        config = ExperimentConfig.from_dict(
            {
                "construction": {"kind": "quadratic_residues", "params": {"p": 43}},
                "analyses": [{"kind": "correlation", "k": 2}],
            }
        )
        import math

        # the exact scan's bound: C(q-1, k-1) lag tuples with d_1 = 0, q cells each
        assert estimate_cost(config) >= math.comb(42, 1) * 43

    def test_sign_patterns_cost_is_one_pass(self):
        config = ExperimentConfig.from_dict(
            {
                "construction": {"kind": "quadratic_residues", "params": {"p": 1000003}},
                "analyses": [{"kind": "sign_patterns", "window": 8}],
            }
        )
        assert estimate_cost(config) == 1000003 + 1000003 * 8 + 2**8

    @pytest.mark.parametrize(
        "construction, derivation, cost",
        [
            # an explicit set costs its elements, any other kind its q
            ({"kind": "explicit", "params": {"q": 10**11, "elements": [1, 5]}},
             {"kind": "gap_mod", "M": 2}, 2),
            ({"kind": "explicit", "params": {"q": 10**11, "elements": [1, 5]}},
             {"kind": "characteristic"}, 2 + 10**11),
            ({"kind": "quadratic_residues", "params": {"p": 43}},
             {"kind": "gap_threshold", "m": 2}, 43),
            ({"kind": "quadratic_residues", "params": {"p": 43}},
             {"kind": "characteristic"}, 43 + 43),
            ({"kind": "fermat_quotient_primitive_roots", "params": {"p": 7}},
             {"kind": "characteristic"}, 49 + 49),
            # polynomial kinds cost p per coefficient, at least p
            ({"kind": "poly_value_range",
              "params": {"p": 43, "f": [0, 0, 1], "r": 0, "s": 5}},
             {"kind": "characteristic"}, 43 * 3 + 43),
            ({"kind": "character_argument",
              "params": {"p": 43, "order": 2, "additive": 1, "f": [1, 1],
                         "g": [0, 0, 1], "alpha": 0, "beta": {"num": 1, "den": 2}}},
             {"kind": "gap_mod", "M": 2}, 43 * 5),
            ({"kind": "index_range", "params": {"p": 43, "f": [], "r": 0, "s": 5}},
             {"kind": "gap_mod", "M": 2}, 43),
        ],
    )
    def test_construction_and_derivation_costs(self, construction, derivation, cost):
        config = ExperimentConfig.from_dict(
            {"construction": construction, "derivations": [derivation]}
        )
        assert estimate_cost(config) == cost

    SPARSE = {"kind": "explicit", "params": {"q": 10**11, "elements": [1, 5]}}

    @pytest.mark.parametrize(
        "derivation, analysis, cost",
        [
            # a gap sequence is charged at most the set's cost, 2, per window
            ({"kind": "gap_mod", "M": 2},
             {"kind": "balance", "sequence": "gap_mod"}, 2 + 2),
            ({"kind": "gap_threshold", "m": 2},
             {"kind": "patterns", "sequence": "gap_threshold", "length": 3},
             2 + 2 * 3 + 4096),
            # the characteristic sequence is q long
            ({"kind": "characteristic"},
             {"kind": "patterns", "sequence": "characteristic", "length": 2},
             2 + 10**11 + 10**11 * 2 + 4096),
        ],
    )
    def test_analyses_charged_for_the_sequence_they_read(
        self, derivation, analysis, cost
    ):
        config = ExperimentConfig.from_dict(
            {"construction": self.SPARSE, "derivations": [derivation],
             "analyses": [analysis]}
        )
        assert estimate_cost(config) == cost

    def test_a_gap_sequence_is_charged_at_most_q(self):
        # the set costs 43 per coefficient; its gap sequence has under 43 symbols
        config = ExperimentConfig.from_dict(
            {"construction": {"kind": "poly_value_range",
                              "params": {"p": 43, "f": [1] * 10, "r": 0, "s": 5}},
             "derivations": [{"kind": "gap_mod", "M": 2}],
             "analyses": [{"kind": "balance", "sequence": "gap_mod"}]}
        )
        assert estimate_cost(config) == 43 * 10 + 43

    def test_gap_balance_of_a_sparse_set_in_a_huge_q_runs(self):
        config = ExperimentConfig.from_dict(
            {
                "construction": self.SPARSE,
                "derivations": [{"kind": "gap_mod", "M": 2}],
                "analyses": [{"kind": "balance", "sequence": "gap_mod"}],
            }
        )
        items = run(config).body["analyses"][0]["items"]
        assert [(i["label"], i["empirical"]) for i in items] == [
            ("symbol=1", 0), ("symbol=2", 1)
        ]
        # patterns of its characteristic sequence still read q symbols
        config = ExperimentConfig.from_dict(
            {
                "construction": self.SPARSE,
                "derivations": [{"kind": "characteristic"}],
                "analyses": [
                    {"kind": "patterns", "sequence": "characteristic", "length": 1}
                ],
            }
        )
        with pytest.raises(errors.BudgetExceededError):
            run(config)

    def test_run_admits_before_construct(self, monkeypatch):
        def construct(spec):
            raise AssertionError("construct ran before admission")

        monkeypatch.setattr(harness, "construct", construct)
        config = ExperimentConfig.from_dict(
            {
                "construction": {"kind": "quadratic_residues", "params": {"p": 43}},
                "analyses": [
                    {"kind": "correlation_sampled", "k": 2, "samples": 10**8}
                ],
            }
        )
        with pytest.raises(errors.BudgetExceededError) as info:
            run(config)
        assert info.value.estimated_cost == estimate_cost(config) == 43 + 43 * 10**8
        with pytest.raises(errors.BudgetExceededError):
            run(dataclasses.replace(config, analyses=()), op_budget=42)

    def test_power_residue_cardinality_charges_its_root_count(self, monkeypatch):
        def construct(spec):
            raise AssertionError("construct ran before admission")

        monkeypatch.setattr(harness, "construct", construct)
        # the prediction counts the roots of f in one pass per coefficient,
        # as the build does: 300 passes over Z_p each
        params = {"p": 100003, "d": 2, "f": [1] * 300}
        config = ExperimentConfig.from_dict(
            {"construction": {"kind": "power_residues", "params": params},
             "analyses": [{"kind": "cardinality"}]}
        )
        assert estimate_cost(config) == 2 * 100003 * 300
        with pytest.raises(errors.BudgetExceededError):
            run(config, op_budget=45 * 10**6)  # above the q it was charged

    @pytest.mark.parametrize(
        "construction, analysis, error",
        [
            # order-2 sums past q = 2^23 outgrow int64
            ({"kind": "explicit", "params": {"q": 2**24 + 1, "elements": [0, 1]}},
             {"kind": "correlation_sampled", "k": 2, "samples": 1},
             errors.TooLargeError),
            ({"kind": "quadratic_residues", "params": {"p": 11}},
             {"kind": "correlation", "k": 12},
             errors.OrderTooLargeError),
        ],
    )
    def test_run_refuses_a_correlation_before_construct(
        self, monkeypatch, construction, analysis, error
    ):
        def construct(spec):
            raise AssertionError("construct ran before the check")

        monkeypatch.setattr(harness, "construct", construct)
        config = ExperimentConfig.from_dict(
            {"construction": construction, "analyses": [{"kind": "cardinality"}, analysis]}
        )
        with pytest.raises(error):
            run(config)

    @pytest.mark.parametrize(
        "construction, analysis, error",
        [
            # the lemma budget's order-2 scans past q = 2^23
            ({"kind": "explicit", "params": {"q": 2**24 + 1, "elements": [0, 1]}},
             {"kind": "sign_patterns", "window": 2,
              "budget": {"constant": 1, "shape": "lemma"}},
             errors.TooLargeError),
            ({"kind": "quadratic_residues", "params": {"p": 7}},
             {"kind": "sign_patterns", "window": 9},
             errors.PatternTooLongError),
        ],
    )
    def test_run_refuses_a_sign_pattern_analysis_before_construct(
        self, monkeypatch, construction, analysis, error
    ):
        def construct(spec):
            raise AssertionError("construct ran before the check")

        monkeypatch.setattr(harness, "construct", construct)
        config = ExperimentConfig.from_dict(
            {"construction": construction, "analyses": [analysis]}
        )
        with pytest.raises(error):
            run(config, op_budget=10**15)  # admits both: the check refuses them

    def test_run_refuses_over_budget(self):
        config = ExperimentConfig.from_dict(
            {
                "construction": {"kind": "quadratic_residues", "params": {"p": 1009}},
                "analyses": [{"kind": "correlation", "k": 4}],
            }
        )
        with pytest.raises(errors.BudgetExceededError):
            run(config)


class TestSweep:
    GRID = [{"path": "construction.params.p", "values": [11, 19, 23]}]
    SWEEP_BASE = {
        "construction": {"kind": "quadratic_residues", "params": {"p": 11}},
        "analyses": [{"kind": "cardinality"}, {"kind": "correlation", "k": 1}],
    }

    def test_runs_all_points(self, tmp_path):
        bodies, rows = sweep(self.SWEEP_BASE, self.GRID, outdir=tmp_path)
        assert len(bodies) == 3
        assert all(b["status"] == "PASS" for b in bodies)
        assert (tmp_path / "report_0002.json").exists()
        assert (tmp_path / "summary.csv").exists()
        # header + 2 analyses x 3 points
        assert len(rows) == 1 + 6
        assert rows[0][:2] == ["point", "construction.params.p"]
        assert [r[1] for r in rows[1:]] == ["11", "11", "19", "19", "23", "23"]

    def test_order_stable_with_workers(self, tmp_path):
        # --workers is accepted and changes nothing: same reports, same rows
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"base": self.SWEEP_BASE, "grid": self.GRID}))
        outputs = []
        for workers in ("1", "3"):
            out = tmp_path / f"w{workers}"
            argv = ["sweep", "--config", str(cfg), "--workers", workers, "--out", str(out)]
            assert cli.main(argv) == 0
            reports = [scrub(json.loads(path.read_text()))
                       for path in sorted(out.glob("report_*.json"))]
            with open(out / "summary.csv", newline="") as fh:
                summary = [row[:-1] for row in csv.reader(fh)]  # but seconds
            outputs.append((reports, summary))
        assert outputs[0] == outputs[1]
        assert len(outputs[0][0]) == 3 and len(outputs[0][1]) == 1 + 6

    def test_sweeps_start_no_process(self, tmp_path, monkeypatch):
        def start(process):
            raise AssertionError("a process was started")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
        bodies, rows = sweep(self.SWEEP_BASE, self.GRID)
        assert [b["status"] for b in bodies] == ["PASS"] * 3
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"base": self.SWEEP_BASE, "grid": self.GRID}))
        assert cli.main(["sweep", "--config", str(cfg), "--workers", "4"]) == 0

    def test_point_error_preserved(self):
        grid = [{"path": "construction.params.p", "values": [11, 10, 13]}]
        bodies, rows = sweep(self.SWEEP_BASE, grid)
        assert "error" in bodies[1]
        assert bodies[0]["status"] == "PASS" and bodies[2]["status"] == "PASS"
        error_rows = [r for r in rows if r[-2] == "ERROR"]
        assert len(error_rows) == 1
        assert "NotPrime" in error_rows[0][3]

    def test_points_parsed_once_and_written_as_reports(self, tmp_path, monkeypatch):
        parse, parsed = ExperimentConfig.from_dict, []

        def counted(obj):
            parsed.append(obj)
            return parse(obj)

        monkeypatch.setattr(ExperimentConfig, "from_dict", counted)
        bodies, _ = sweep(self.SWEEP_BASE, self.GRID, outdir=tmp_path)
        assert len(parsed) == 3
        for i, body in enumerate(bodies):
            text = (tmp_path / f"report_{i:04d}.json").read_text()
            assert text == VerificationReport(body).to_json_text()

    def test_point_with_q_zero_is_an_error_row(self):
        base = {
            "construction": {"kind": "explicit", "params": {"q": 5, "elements": [1, 2]}},
            "analyses": [{"kind": "correlation", "k": 2}],
        }
        grid = [{"path": "construction.params.q", "values": [5, 0]}]
        bodies, rows = sweep(base, grid)
        assert bodies[0]["status"] == "PASS"
        assert bodies[1] == {"error": "InvalidParameterError: q must be >= 1, got 0"}
        assert rows[2][-2] == "ERROR"

    def test_bug_in_point_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("bug")

        monkeypatch.setattr(harness, "run", broken)
        with pytest.raises(RuntimeError):
            sweep(self.SWEEP_BASE, self.GRID)

    def test_empty_grid(self):
        with pytest.raises(errors.EmptyGridError):
            sweep(self.SWEEP_BASE, [])
        with pytest.raises(errors.EmptyGridError):
            sweep(self.SWEEP_BASE, [{"path": "seed", "values": []}])

    @pytest.mark.parametrize(
        "grid, message",
        [
            ([{"path": "construction.params.p"}],
             'grid[0]: expected {"path": .., "values": [..]}'),
            ([{"path": "construction.kind.x", "values": [1]}],
             "grid path 'construction.kind.x': cannot set 'x'"),
            ([{"path": "construction.params.p", "values": [11, "x"]}],
             "grid point 1: construction: quadratic_residues.params.p: "
             "expected an integer, got 'x'"),
        ],
    )
    def test_invalid_grid_names_its_path(self, grid, message):
        with pytest.raises(errors.ConfigError) as info:
            sweep(self.SWEEP_BASE, grid)
        assert str(info.value) == message

    def test_bad_grid_path(self):
        with pytest.raises(errors.ConfigError):
            sweep(self.SWEEP_BASE, [{"path": "construction.nope.p", "values": [1]}])

    @pytest.mark.parametrize("path", ["derivations.x", "derivations.5"])
    def test_bad_list_index_in_grid_path(self, path):
        base = dict(self.SWEEP_BASE, derivations=[{"kind": "gap_threshold", "m": 2}])
        with pytest.raises(errors.ConfigError, match=f"grid path '{path}': no list index"):
            sweep(base, [{"path": path, "values": [3]}])

    def test_total_cost_refused_up_front(self):
        base = {
            "construction": {"kind": "quadratic_residues", "params": {"p": 499}},
            "analyses": [{"kind": "correlation", "k": 3}],
        }
        grid = [{"path": "construction.params.p", "values": [499, 503, 509]}]
        with pytest.raises(errors.BudgetExceededError):
            sweep(base, grid, op_budget=10**6)

    def test_point_refused_before_its_set_is_built(self, monkeypatch):
        built, real = [], harness.construct

        def construct(spec):
            built.append(spec.to_json()["params"]["p"])
            return real(spec)

        monkeypatch.setattr(harness, "construct", construct)
        grid = [
            {"path": "construction.params.p", "values": [11, 13]},
            {"path": "analyses.1.k", "values": [1, 12]},
        ]
        bodies, rows = sweep(self.SWEEP_BASE, grid)
        # order 12 exceeds q = 11 only: that point is refused unbuilt
        assert built == [11, 13, 13]
        assert bodies[1] == {"error": "OrderTooLargeError: correlation order 12 exceeds q=11"}
        assert [row[3:5] for row in rows[1:] if "ERROR" in row] == [
            ["-", bodies[1]["error"]]
        ]

    def test_two_axes_cartesian(self):
        base = {
            "construction": {"kind": "quadratic_residues", "params": {"p": 11}},
            "derivations": [{"kind": "gap_mod", "M": 2}],
            "analyses": [{"kind": "balance", "sequence": "gap_mod"}],
        }
        grid = [
            {"path": "construction.params.p", "values": [11, 13]},
            {"path": "derivations.0.M", "values": [2, 3]},
        ]
        bodies, rows = sweep(base, grid)
        assert len(bodies) == 4
        ms = [b["config"]["derivations"][0]["M"] for b in bodies]
        assert ms == [2, 3, 2, 3]


class TestCli:
    def write(self, tmp_path, name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    def test_scans_start_no_thread(self, tmp_path, monkeypatch):
        def start(thread):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", start)
        # QR 257 at order 3: three blocks, each bounded by the coarse pass
        measures.correlation_exact(quadratic_residue_set(257), 3)
        run(ExperimentConfig.from_dict(BASE), workers=8)  # a lemma budget's scans
        qr257 = {"kind": "quadratic_residues", "params": {"p": 257}}
        cfg = self.write(tmp_path, "c.json", qr257)
        assert cli.main(["corr", "--config", cfg, "-k", "2", "--workers", "4"]) == 0

    def test_construct(self, tmp_path, capsys):
        cfg = self.write(
            tmp_path, "c.json", {"kind": "quadratic_residues", "params": {"p": 11}}
        )
        assert cli.main(["construct", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["elements"] == [1, 3, 4, 5, 9]

    def test_derive_csv_is_plain_symbols(self, tmp_path, capsys):
        cfg = self.write(
            tmp_path,
            "d.json",
            {
                "construction": {"kind": "quadratic_residues", "params": {"p": 11}},
                "derivation": {"kind": "gap_mod", "M": 2},
            },
        )
        assert cli.main(["derive", "--config", cfg, "--format", "csv"]) == 0
        assert capsys.readouterr().out == "2 1 1 2\n"

    def test_stats_accepts_sequence_json(self, tmp_path, capsys):
        seq = {
            "sequence": {
                "kind": "characteristic",
                "params": {},
                "symbols": [0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0],
            }
        }
        cfg = self.write(tmp_path, "s.json", seq)
        assert cli.main(["stats", "--config", cfg, "--length", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        counts = {tuple(i["pattern"]): i["count"] for i in out["counts"]}
        assert counts[(1, 1)] == 2

    def test_corr(self, tmp_path, capsys):
        cfg = self.write(
            tmp_path, "c.json", {"kind": "explicit", "params": {"q": 4, "elements": [0]}}
        )
        assert cli.main(["corr", "--config", cfg, "-k", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == {"num": 3, "den": 4}

    def test_corr_sampled(self, tmp_path, capsys):
        cfg = self.write(
            tmp_path, "c.json", {"kind": "quadratic_residues", "params": {"p": 43}}
        )
        rc = cli.main(
            ["corr", "--config", cfg, "-k", "2", "--samples", "10", "--seed", "3"]
        )
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["mode"] == "sampled"

    @pytest.mark.parametrize("sampled", [True, False])
    def test_corr_negative_seed_exits_2_before_construct(
        self, tmp_path, capsys, monkeypatch, sampled
    ):
        def construct(spec):
            raise AssertionError("construct ran before the seed check")

        monkeypatch.setattr(cli, "construct", construct)
        cfg = self.write(
            tmp_path, "c.json", {"kind": "quadratic_residues", "params": {"p": 43}}
        )
        args = ["corr", "--config", cfg, "-k", "2", "--seed", "-1"]
        assert cli.main(args + (["--samples", "10"] if sampled else [])) == 2
        assert capsys.readouterr().err == "error: seed: expected >= 0, got -1\n"

    @pytest.mark.parametrize(
        "analysis",
        [{"kind": "correlation_sampled", "k": 2, "samples": 10}, {"kind": "cardinality"}],
    )
    def test_verify_negative_seed_exits_2(self, tmp_path, capsys, analysis):
        cfg = self.write(
            tmp_path,
            "v.json",
            {
                "construction": {"kind": "quadratic_residues", "params": {"p": 43}},
                "analyses": [analysis],
            },
        )
        out = str(tmp_path / "report.json")
        assert cli.main(["verify", "--config", cfg, "--seed", "-5", "--out", out]) == 2
        assert capsys.readouterr().err == "error: seed: expected >= 0, got -5\n"
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "construction, analysis, message",
        [
            ({"kind": "explicit", "params": {"q": 2**24 + 1, "elements": [0, 1]}},
             {"kind": "correlation_sampled", "k": 2, "samples": 1},
             "error: correlation order 2 needs q <= 8388608, got q=16777217"),
            ({"kind": "quadratic_residues", "params": {"p": 11}},
             {"kind": "correlation", "k": 12},
             "error: correlation order 12 exceeds q=11"),
            ({"kind": "explicit", "params": {"q": 2**24 + 1, "elements": [0, 1]}},
             {"kind": "sign_patterns", "window": 2,
              "budget": {"constant": 1, "shape": "lemma"}},
             "error: correlation order 2 needs q <= 8388608, got q=16777217"),
        ],
    )
    def test_verify_bad_correlation_exits_2_before_construct(
        self, tmp_path, capsys, monkeypatch, construction, analysis, message
    ):
        def construct(spec):
            raise AssertionError("construct ran before the check")

        monkeypatch.setattr(harness, "construct", construct)
        cfg = self.write(
            tmp_path, "v.json", {"construction": construction, "analyses": [analysis]}
        )
        out = str(tmp_path / "report.json")
        assert cli.main(["verify", "--config", cfg, "--out", out]) == 2
        assert capsys.readouterr().err.startswith(message)
        assert not (tmp_path / "report.json").exists()

    def test_verify_over_budget_exits_2_before_construct(
        self, tmp_path, capsys, monkeypatch
    ):
        def construct(spec):
            raise AssertionError("construct ran before admission")

        monkeypatch.setattr(harness, "construct", construct)
        cfg = self.write(
            tmp_path,
            "v.json",
            {
                "construction": {"kind": "quadratic_residues", "params": {"p": 43}},
                "analyses": [
                    {"kind": "correlation_sampled", "k": 2, "samples": 10**8}
                ],
            },
        )
        assert cli.main(["verify", "--config", cfg]) == 2
        assert "budget is 1000000000" in capsys.readouterr().err
        assert cli.main(["verify", "--config", cfg, "--budget", "10"]) == 2

    def test_construct_charges_each_horner_pass(self, tmp_path, capsys, monkeypatch):
        def construct(spec):
            raise AssertionError("construct ran before admission")

        monkeypatch.setattr(cli, "construct", construct)
        monkeypatch.setattr(harness, "construct", construct)
        # 3001 coefficients: 3001 passes over Z_p, 3.0e9 operations
        params = {"p": 1000003, "f": [1] * 3001, "r": 0, "s": 1000}
        cfg = self.write(
            tmp_path, "c.json", {"kind": "poly_value_range", "params": params}
        )
        assert cli.main(["construct", "--config", cfg]) == 2
        assert "budget is 1000000000" in capsys.readouterr().err

    def test_corr_samples_over_budget_exits_2_before_construct(
        self, tmp_path, capsys, monkeypatch
    ):
        def construct(spec):
            raise AssertionError("construct ran before admission")

        monkeypatch.setattr(cli, "construct", construct)
        cfg = self.write(
            tmp_path, "c.json", {"kind": "quadratic_residues", "params": {"p": 43}}
        )
        args = ["corr", "--config", cfg, "-k", "2", "--samples", "1000"]
        assert cli.main(args + ["--budget", "42999"]) == 2
        assert "~43043 operations" in capsys.readouterr().err
        assert cli.main(args[:-1] + [str(10**8)]) == 2

    def test_corr_exact_over_budget_exits_2_before_construct(
        self, tmp_path, capsys, monkeypatch
    ):
        def construct(spec):
            raise AssertionError("construct ran before admission")

        monkeypatch.setattr(cli, "construct", construct)
        cfg = self.write(
            tmp_path, "c.json", {"kind": "quadratic_residues", "params": {"p": 10007}}
        )
        assert cli.main(["corr", "--config", cfg, "-k", "3"]) == 2
        cells = math.comb(10006, 2) * 10007
        assert (
            f"corr needs ~{10007 + cells} operations"
            in capsys.readouterr().err
        )

    def test_construct_json_never_reads_elements(self, tmp_path, capsys, monkeypatch):
        def elements(rset):
            raise AssertionError("construct --format json read the elements tuple")

        monkeypatch.setattr(ResidueSet, "elements", property(elements))
        cfg = self.write(tmp_path, "c.json", self.QR11)
        assert cli.main(["construct", "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["elements"] == [1, 3, 4, 5, 9]
        assert cli.main(["construct", "--config", cfg, "--format", "csv"]) == 0
        assert capsys.readouterr().out == "element\r\n1\r\n3\r\n4\r\n5\r\n9\r\n"

    # ~3.64 TiB of tables for this QR set; ~93.1 GiB for this characteristic
    HUGE_QR = {"kind": "quadratic_residues", "params": {"p": 1000000000039}}
    SPARSE = {"kind": "explicit", "params": {"q": 10**11, "elements": [1, 5]}}
    # order-2 sums past int64 whatever the set: ~2 GB for one sampled row
    PAIR24 = {"kind": "explicit", "params": {"q": 2**24 + 1, "elements": [0, 1]}}

    @pytest.mark.parametrize(
        "command, config, cost",
        [
            ("construct", HUGE_QR, 1000000000039),
            ("derive", {"construction": SPARSE, "derivation": {"kind": "characteristic"}},
             2 + 10**11),
            # the window count of a gap sequence costs the set's cost * length
            ("stats", {"construction": HUGE_QR, "derivation": {"kind": "gap_mod", "M": 2}},
             1000000000039 + 1000000000039 + 4096),
        ],
    )
    def test_over_budget_exits_2_before_building(
        self, tmp_path, capsys, monkeypatch, command, config, cost
    ):
        def construct(spec):
            raise AssertionError("construct ran before admission")

        monkeypatch.setattr(cli, "construct", construct)
        cfg = self.write(tmp_path, "c.json", config)
        assert cli.main([command, "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            f"error: {command} needs ~{cost} operations, budget is 1000000000\n"
        )

    @pytest.mark.parametrize(
        "command, config, expected",
        [
            ("construct", SPARSE,
             '{\n  "q": 100000000000,\n  "cardinality": 2,\n'
             '  "elements": [\n    1,\n    5\n  ]\n}\n'),
            ("derive", {"construction": SPARSE, "derivation": {"kind": "gap_mod", "M": 2}},
             '{\n  "kind": "gap_mod",\n  "params": {\n    "M": 2\n  },\n'
             '  "symbols": [\n    2\n  ]\n}\n'),
            # one symbol, one window: charged for the set's two elements, not q
            ("stats", {"construction": SPARSE, "derivation": {"kind": "gap_mod", "M": 2}},
             '{\n  "length": 1,\n  "counts": [\n    {\n      "pattern": [\n'
             '        2\n      ],\n      "count": 1\n    }\n  ]\n}\n'),
        ],
    )
    def test_sparse_set_in_a_huge_q_is_admitted(
        self, tmp_path, capsys, command, config, expected
    ):
        # two elements cost two operations; nothing q-long is built
        cfg = self.write(tmp_path, "c.json", config)
        assert cli.main([command, "--config", cfg]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("corr", ["-k", "2", "--workers", "0"]),
            ("verify", ["--workers", "-1"]),
            ("sweep", ["--workers", "0"]),
            ("stats", ["--length", "0"]),
        ],
    )
    def test_counts_below_one_exit_2_before_building(
        self, tmp_path, capsys, monkeypatch, command, flags
    ):
        def construct(spec):
            raise AssertionError("construct ran before the check")

        monkeypatch.setattr(cli, "construct", construct)
        monkeypatch.setattr(harness, "construct", construct)
        config = {
            "corr": self.QR11,
            "verify": {"construction": self.QR11, "analyses": [{"kind": "cardinality"}]},
            "sweep": {"base": TestSweep.SWEEP_BASE, "grid": TestSweep.GRID},
            "stats": self.GAPS11,
        }[command]
        cfg = self.write(tmp_path, "c.json", config)
        assert cli.main([command, "--config", cfg, *flags]) == 2
        name, value = flags[-2].lstrip("-"), flags[-1]
        assert capsys.readouterr().err == f"error: {name}: expected >= 1, got {value}\n"

    def test_benchmark_ops_are_admitted(self, tmp_path, capsys, monkeypatch):
        class Admitted(Exception):
            """Raised where an admitted op would start building its set."""

        def construct(spec):
            raise Admitted

        monkeypatch.setattr(cli, "construct", construct)
        monkeypatch.setattr(harness, "construct", construct)
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        loader = importlib.util.spec_from_file_location("bench_workloads", path)
        workloads = importlib.util.module_from_spec(loader)
        monkeypatch.setitem(sys.modules, loader.name, workloads)  # for its dataclass
        loader.loader.exec_module(workloads)
        for name, seed in itertools.product(workloads.WORKLOADS, (0, 1)):
            for op in workloads.op_list(name, seed):
                cfg = self.write(tmp_path, "op.json", op.config)
                with pytest.raises(Admitted):
                    cli.main([op.command, "--config", cfg, *op.args])
        assert capsys.readouterr().err == ""

    def env(self) -> dict:
        """The environment with this checkout's zqlab first on the path."""
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}

    def test_import_leaves_out_concurrent_futures(self):
        script = "import sys, zqlab.cli; print('concurrent.futures' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=self.env(), capture_output=True, text=True, timeout=120,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")

    def test_module_entry_point(self, tmp_path):
        env = self.env()

        def zqlab(*args):
            return subprocess.run(
                [sys.executable, "-m", "zqlab", *args],
                env=env, capture_output=True, text=True, timeout=120,
            )

        done = zqlab("--version")
        assert (done.returncode, done.stdout, done.stderr) == (0, "0.1.0\n", "")
        cfg = self.write(tmp_path, "c.json", self.QR11)
        done = zqlab("construct", "--config", cfg)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == (
            '{\n  "q": 11,\n  "cardinality": 5,\n'
            '  "elements": [\n    1,\n    3,\n    4,\n    5,\n    9\n  ]\n}\n'
        )

    def verify_under_limits(self, tmp_path, cfg) -> list:
        """verify's report on cfg with PYTHONINTMAXSTRDIGITS=640 and at the
        default limit, its seconds scrubbed."""
        reports = []
        for limit in ("640", None):
            env = self.env()
            env.pop("PYTHONINTMAXSTRDIGITS", None)
            if limit is not None:
                env["PYTHONINTMAXSTRDIGITS"] = limit
            out = tmp_path / f"report_{limit}.json"
            done = subprocess.run(
                [sys.executable, "-m", "zqlab", "verify", "--config", cfg,
                 "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert (done.returncode, done.stderr) == (0, ""), done.stderr
            text = out.read_text()
            reports.append(re.sub(r'"seconds": [-+.0-9e]+', '"seconds": 0', text))
        return reports

    def test_a_report_does_not_depend_on_the_digit_limit(self, tmp_path):
        # the m = 1000 main terms of QR 1009 have about 3000 digits
        cfg = self.write(tmp_path, "c.json", {
            "construction": {"kind": "quadratic_residues", "params": {"p": 1009}},
            "derivations": [{"kind": "gap_threshold", "m": 1000}],
            "analyses": [{"kind": "balance", "sequence": "gap_threshold"}],
        })
        reports = self.verify_under_limits(tmp_path, cfg)
        assert reports[0] == reports[1]
        items = json.loads(reports[1])["analyses"][0]["items"]
        assert max(len(str(item["predicted"]["num"])) for item in items) > 2000

    def test_a_config_is_read_the_same_under_any_digit_limit(self, tmp_path):
        # literals of 700 and 701 digits, past the least limit (640)
        budget = {"constant": {"num": 10**700, "den": 10**699}, "shape": "sqrt_log"}
        cfg = self.write(tmp_path, "c.json", {
            "construction": {"kind": "quadratic_residues", "params": {"p": 43}},
            "derivations": [{"kind": "gap_mod", "M": 2}],
            "analyses": [{"kind": "balance", "sequence": "gap_mod", "budget": budget}],
        })
        reports = self.verify_under_limits(tmp_path, cfg)
        assert reports[0] == reports[1]
        constant = json.loads(reports[1])["config"]["analyses"][0]["budget"]["constant"]
        assert Fraction(constant["num"], constant["den"]) == 10

    @pytest.mark.parametrize(
        "text", ["0", "-0", "7", "-12", "9" * 512, "9" * 513, "-" + "1" * 4300],
        ids=["0", "-0", "7", "-12", "512_digits", "513_digits", "-4300_digits"],
    )
    def test_integer_literals_read_under_the_least_limit(self, text):
        expected = int(text)
        with digit_limit(640):
            assert cli._parse_int(text) == expected

    def test_exit_hook_registered_once(self, tmp_path, capsys, monkeypatch):
        # however often main runs in a process, and whether it succeeds
        registered = []
        monkeypatch.setattr(cli, "_freeze_at_exit", False)
        monkeypatch.setattr(atexit, "register", registered.append)
        cfg = self.write(tmp_path, "c.json", self.QR11)
        assert cli.main(["construct", "--config", cfg]) == 0
        assert cli.main(["corr", "--config", cfg, "-k", "2"]) == 0
        assert cli.main(["construct", "--config", str(tmp_path / "none.json")]) == 2
        assert registered == [gc.freeze]

    def test_in_process_main_freezes_nothing(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "c.json", self.QR11)
        assert cli.main(["corr", "--config", cfg, "-k", "2"]) == 0
        assert gc.get_freeze_count() == 0

    def test_a_process_writes_stdout_whole_and_keeps_exit_codes(self, tmp_path):
        # outputs of thousands of lines, written to stdout, then the exit hook
        env = self.env()

        def zqlab(*args):
            return subprocess.run(
                [sys.executable, "-m", "zqlab", *args],
                env=env, capture_output=True, timeout=120,
            )

        qr10007 = {"kind": "quadratic_residues", "params": {"p": 10007}}
        qr = self.write(tmp_path, "qr.json", qr10007)
        for args in (
            ["corr", "--config", qr, "-k", "2"],
            ["construct", "--config", qr, "--format", "csv"],
        ):
            out = tmp_path / "out"
            done = zqlab(*args, "--out", str(out))
            assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
            done = zqlab(*args)
            assert (done.returncode, done.stderr) == (0, b"")
            assert done.stdout == out.read_bytes()
        failing = {
            "construction": self.QR11,
            "derivations": [{"kind": "gap_mod", "M": 2}],
            "analyses": [
                {
                    "kind": "balance",
                    "sequence": "gap_mod",
                    "budget": {"constant": 0, "shape": "absolute"},
                }
            ],
        }
        done = zqlab("verify", "--config", self.write(tmp_path, "v.json", failing))
        assert (done.returncode, done.stderr) == (1, b"")
        assert json.loads(done.stdout)["status"] == "FAIL"
        done = zqlab("construct", "--config", str(tmp_path / "none.json"))
        assert (done.returncode, done.stdout) == (2, b"")
        assert done.stderr.startswith(b"error: ")

    def test_verify_q_zero_exits_2(self, tmp_path, capsys):
        cfg = self.write(
            tmp_path,
            "v.json",
            {
                "construction": {"kind": "explicit", "params": {"q": 0, "elements": []}},
                "analyses": [{"kind": "correlation", "k": 2}],
            },
        )
        assert cli.main(["verify", "--config", cfg]) == 2
        assert capsys.readouterr().err == "error: q must be >= 1, got 0\n"

    def test_verify_sign_patterns_window_past_q_exits_2(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "v.json", window_past_q("lemma"))
        assert cli.main(["verify", "--config", cfg]) == 2
        assert capsys.readouterr().err == "error: pattern length 6 exceeds q=5\n"

    def test_verify_writes_report_and_exit_codes(self, tmp_path, capsys):
        good = self.write(
            tmp_path,
            "good.json",
            {
                "construction": {"kind": "quadratic_residues", "params": {"p": 43}},
                "analyses": [{"kind": "cardinality"}],
            },
        )
        out_path = tmp_path / "report.json"
        assert cli.main(["verify", "--config", good, "--out", str(out_path)]) == 0
        body = json.loads(out_path.read_text())
        assert body["status"] == "PASS"

        bad = self.write(
            tmp_path,
            "bad.json",
            {
                "construction": {"kind": "quadratic_residues", "params": {"p": 43}},
                "derivations": [{"kind": "gap_mod", "M": 2}],
                "analyses": [
                    {
                        "kind": "balance",
                        "sequence": "gap_mod",
                        "budget": {"constant": 0, "shape": "absolute"},
                    }
                ],
            },
        )
        capsys.readouterr()
        assert cli.main(["verify", "--config", bad]) == 1

    def test_config_error_exits_2(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "x.json", {"kind": "quadratic_residues", "params": {"p": 10}})
        assert cli.main(["construct", "--config", cfg]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_list_elements_exits_2(self, tmp_path, capsys):
        cfg = self.write(
            tmp_path, "e.json", {"kind": "explicit", "params": {"q": 5, "elements": 3}}
        )
        assert cli.main(["construct", "--config", cfg]) == 2
        assert cli.main(["corr", "--config", cfg, "-k", "1"]) == 2
        assert "explicit.params.elements" in capsys.readouterr().err

    def test_verify_non_list_derivations_exits_2(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "d.json", dict(BASE, derivations=5))
        assert cli.main(["verify", "--config", cfg]) == 2
        assert "derivations: expected a list" in capsys.readouterr().err

    def test_verify_non_list_analyses_exits_2(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "a.json", dict(BASE, analyses={"kind": "cardinality"}))
        assert cli.main(["verify", "--config", cfg]) == 2
        assert "analyses: expected a list" in capsys.readouterr().err

    def test_verify_balance_huge_alphabet_exits_2(self, tmp_path, capsys):
        # refused from the alphabet's size, before any of it is enumerated
        cfg = self.write(
            tmp_path,
            "b.json",
            {
                "construction": {"kind": "quadratic_residues", "params": {"p": 43}},
                "derivations": [{"kind": "gap_mod", "M": 10**12}],
                "analyses": [{"kind": "balance", "sequence": "gap_mod"}],
            },
        )
        assert cli.main(["verify", "--config", cfg]) == 2
        assert "alphabet^length exceeds" in capsys.readouterr().err

    def test_stats_sequence_without_param_exits_2(self, tmp_path, capsys):
        seq = {"sequence": {"kind": "gap_mod", "params": {}, "symbols": [1, 2]}}
        cfg = self.write(tmp_path, "s.json", seq)
        assert cli.main(["stats", "--config", cfg]) == 2
        assert "gap_mod.params.M" in capsys.readouterr().err

    def test_stats_huge_alphabet(self, tmp_path, capsys):
        seq = {"sequence": {"kind": "gap_mod", "params": {"M": 10**12}, "symbols": [7, 10**12]}}
        cfg = self.write(tmp_path, "s.json", seq)
        assert cli.main(["stats", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["counts"] == [
            {"pattern": [7], "count": 1},
            {"pattern": [10**12], "count": 1},
        ]

    def test_stats_empty_sequence_exits_2(self, tmp_path, capsys):
        # an empty sequence has no window of length 1, the default
        seq = {"sequence": {"kind": "characteristic", "params": {}, "symbols": []}}
        cfg = self.write(tmp_path, "s.json", seq)
        assert cli.main(["stats", "--config", cfg]) == 2
        assert "exceeds sequence length 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["derive", "stats"])
    @pytest.mark.parametrize(
        "config",
        [
            {"derivation": {"kind": "characteristic"}},
            {"construction": {"kind": "quadratic_residues", "params": {"p": 11}}},
            [{"kind": "quadratic_residues", "params": {"p": 11}}],
        ],
    )
    def test_derive_incomplete_config_exits_2(self, tmp_path, capsys, command, config):
        cfg = self.write(tmp_path, "d.json", config)
        assert cli.main([command, "--config", cfg]) == 2
        assert '{"construction": .., "derivation": ..}' in capsys.readouterr().err

    def test_gap_mod_modulus_beyond_int64(self, tmp_path, capsys):
        # gaps lie in 1..q-1, so from M = q on they are their own symbols
        qr43 = {"kind": "quadratic_residues", "params": {"p": 43}}
        cfg = self.write(
            tmp_path,
            "v.json",
            {
                "construction": qr43,
                "derivations": [{"kind": "gap_mod", "M": 10**30}],
                "analyses": [{"kind": "cardinality"}],
            },
        )
        assert cli.main(["verify", "--config", cfg]) == 0
        capsys.readouterr()
        cfg = self.write(
            tmp_path,
            "s.json",
            {"construction": qr43, "derivation": {"kind": "gap_mod", "M": 10**30}},
        )
        assert cli.main(["stats", "--config", cfg]) == 0
        counts = json.loads(capsys.readouterr().out)["counts"]
        assert sum(c["count"] for c in counts) == 20  # 21 residues, 20 gaps
        assert all(1 <= c["pattern"][0] < 43 for c in counts)

    def test_construct_zero_denominator_exits_2(self, tmp_path, capsys):
        cfg = self.write(
            tmp_path,
            "c.json",
            {
                "kind": "character_argument",
                "params": {"p": 11, "order": 2, "additive": 1, "f": [1, 1],
                           "alpha": {"num": 0, "den": 0}, "beta": {"num": 1, "den": 2}},
            },
        )
        assert cli.main(["construct", "--config", cfg]) == 2
        assert "character_argument.params.alpha" in capsys.readouterr().err

    def test_verify_zero_character_polynomial_exits_2(self, tmp_path, capsys):
        # f = 0 would build the empty set against a predicted 11/2 members
        construction = {
            "kind": "character_argument",
            "params": {"p": 11, "order": 2, "additive": 1, "f": [0], "g": [0, 0, 1],
                       "alpha": {"num": 0, "den": 1}, "beta": {"num": 1, "den": 2}},
        }
        cfg = self.write(
            tmp_path,
            "v.json",
            {"construction": construction, "analyses": [{"kind": "cardinality"}]},
        )
        assert cli.main(["verify", "--config", cfg]) == 2
        assert "polynomial (0,) is zero mod 11" in capsys.readouterr().err

    @pytest.mark.parametrize("path", ["derivations.x.m", "derivations.5.m"])
    def test_sweep_bad_list_index_exits_2(self, tmp_path, capsys, path):
        base = dict(TestSweep.SWEEP_BASE, derivations=[{"kind": "gap_threshold", "m": 2}])
        cfg = self.write(
            tmp_path, "sw.json", {"base": base, "grid": [{"path": path, "values": [3]}]}
        )
        assert cli.main(["sweep", "--config", cfg]) == 2
        assert f"grid path '{path}': no list index" in capsys.readouterr().err

    def test_corr_sampled_beyond_int64(self, tmp_path, capsys):
        # 3 * 100003^4 >= 2^62: the draws are scanned on Python ints
        cfg = self.write(
            tmp_path, "c.json", {"kind": "quadratic_residues", "params": {"p": 100003}}
        )
        args = ["corr", "--config", cfg, "-k", "3", "--samples", "16"]
        assert cli.main(args) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["mode"], out["tuples"], len(out["lags"])) == ("sampled", 16, 3)

    @pytest.mark.parametrize(
        "config", [{"base": TestSweep.SWEEP_BASE}, {"grid": TestSweep.GRID}, []]
    )
    def test_sweep_without_base_or_grid_exits_2(self, tmp_path, capsys, config):
        cfg = self.write(tmp_path, "sw.json", config)
        assert cli.main(["sweep", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            'error: sweep config must be {"base": .., "grid": [..]}\n'
        )

    def test_missing_file_exits_2(self, capsys):
        assert cli.main(["construct", "--config", "/nonexistent.json"]) == 2

    def test_sweep_cli(self, tmp_path, capsys):
        cfg = self.write(
            tmp_path,
            "sw.json",
            {"base": TestSweep.SWEEP_BASE, "grid": TestSweep.GRID},
        )
        outdir = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--out", str(outdir)]) == 0
        assert (outdir / "summary.csv").exists()
        assert len(list(outdir.glob("report_*.json"))) == 3

    # The output forms of every subcommand, pinned byte for byte on QR 11.
    QR11 = {"kind": "quadratic_residues", "params": {"p": 11}}
    GAPS11 = {"construction": QR11, "derivation": {"kind": "gap_mod", "M": 2}}

    @pytest.mark.parametrize(
        "config, flags, message",
        [
            (QR11, ["-k", "0"], "correlation order must be >= 1, got 0"),
            (QR11, ["-k", "12"], "correlation order 12 exceeds q=11"),
            (QR11, ["-k", "2", "--samples", "0"], "samples must be >= 1, got 0"),
            (QR11, ["-k", "2", "--samples", "-3"], "samples must be >= 1, got -3"),
            (QR11, ["-k", "0", "--samples", "0"], "correlation order must be >= 1, got 0"),
            # both cost 0 cells: admission alone would let the set be built
            (HUGE_QR, ["-k", "0"], "correlation order must be >= 1, got 0"),
            (HUGE_QR, ["-k", "2", "--samples", "0"], "samples must be >= 1, got 0"),
            (PAIR24, ["-k", "2", "--samples", "1"],
             "correlation order 2 needs q <= 8388608, got q=16777217: "
             "its sums outgrow int64"),
        ],
    )
    def test_corr_bad_order_or_samples_exits_2_before_construct(
        self, tmp_path, capsys, monkeypatch, config, flags, message
    ):
        def construct(spec):
            raise AssertionError("construct ran before the check")

        monkeypatch.setattr(cli, "construct", construct)
        cfg = self.write(tmp_path, "c.json", config)
        assert cli.main(["corr", "--config", cfg, *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "command, config, flags, expected",
        [
            ("construct", QR11, ["--format", "csv"],
             "element\r\n1\r\n3\r\n4\r\n5\r\n9\r\n"),
            ("derive", GAPS11, [],
             '{\n  "kind": "gap_mod",\n  "params": {\n    "M": 2\n  },\n'
             '  "symbols": [\n    2,\n    1,\n    1,\n    2\n  ]\n}\n'),
            ("stats", GAPS11, ["--length", "2", "--format", "csv"],
             "pattern,count\r\n1 1,1\r\n1 2,1\r\n2 1,1\r\n"),
            ("corr", QR11, ["-k", "2", "--format", "csv"],
             "k,value,window,lags,mode,tuples\r\n2,150/121,5,2 5,exact,55\r\n"),
            ("corr", QR11, ["-k", "2", "--samples", "5", "--seed", "3", "--format", "csv"],
             "k,value,window,lags,mode,tuples\r\n2,144/121,7,0 3,sampled,5\r\n"),
            # no --seed: the draws come from seed 0
            ("corr", QR11, ["-k", "2", "--samples", "5", "--format", "csv"],
             "k,value,window,lags,mode,tuples\r\n2,105/121,9,5 6,sampled,5\r\n"),
        ],
    )
    def test_output_bytes(self, tmp_path, capsys, command, config, flags, expected):
        cfg = self.write(tmp_path, "c.json", config)
        assert cli.main([command, "--config", cfg, *flags]) == 0
        assert capsys.readouterr().out == expected

    def test_stats_json_builds_no_csv_rows(self, tmp_path, capsys, monkeypatch):
        cfg = self.write(tmp_path, "c.json", self.GAPS11)
        assert cli.main(["stats", "--config", cfg, "--length", "2"]) == 0
        expected = capsys.readouterr().out

        def rows(counts):
            raise AssertionError("CSV rows built for JSON output")
            yield

        monkeypatch.setattr(cli, "_count_rows", rows)
        assert cli.main(["stats", "--config", cfg, "--length", "2"]) == 0
        assert capsys.readouterr().out == expected

    def test_verify_seed_overrides_config_seed(self, tmp_path, capsys):
        config = {
            "construction": {"kind": "quadratic_residues", "params": {"p": 43}},
            "analyses": [{"kind": "correlation_sampled", "k": 2, "samples": 5}],
            "seed": 1,
        }
        cfg = self.write(tmp_path, "v.json", config)
        assert cli.main(["verify", "--config", cfg, "--seed", "9"]) == 0
        overridden = json.loads(capsys.readouterr().out)
        cfg = self.write(tmp_path, "v9.json", dict(config, seed=9))
        assert cli.main(["verify", "--config", cfg]) == 0
        assert scrub(overridden) == scrub(json.loads(capsys.readouterr().out))
        assert overridden["config"]["seed"] == 9

    def test_sweep_without_out_writes_csv_to_stdout(self, tmp_path, capsys):
        base = {
            "construction": self.QR11,
            "derivations": [{"kind": "gap_threshold", "m": 2}],
            "analyses": [
                {"kind": "cardinality"},
                {"kind": "balance", "sequence": "gap_threshold",
                 "budget": {"constant": 4, "shape": "sqrt_log"}},
            ],
        }
        grid = [{"path": "construction.params.p", "values": [11, 10]}]
        cfg = self.write(tmp_path, "sw.json", {"base": base, "grid": grid})
        assert cli.main(["sweep", "--config", cfg]) == 1  # point 1 is an error row
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
        assert [row[:-1] for row in rows] == [
            "point,construction.params.p,analysis,item,empirical,predicted,"
            "deviation,budget,status".split(","),
            "0,11,cardinality,cardinality,5,5,0,0.0,PASS".split(","),
            "0,11,balance[sequence=gap_threshold],symbol=0,2,2.72727272727273,"
            "0.727272727272727,31.8116756257564,PASS".split(","),
            "1,10,-,NotPrimeError: 10 is not an odd prime,,,,,ERROR".split(","),
        ]
        assert rows[0][-1] == "seconds" and rows[-1][-1] == ""
        assert not list(tmp_path.glob("report_*.json"))

    def test_verify_csv_format(self, tmp_path, capsys):
        cfg = self.write(
            tmp_path,
            "v.json",
            {
                "construction": {"kind": "quadratic_residues", "params": {"p": 43}},
                "analyses": [{"kind": "cardinality"}],
            },
        )
        assert cli.main(["verify", "--config", cfg, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("analysis,item,empirical")
        assert "cardinality" in lines[1]


class Admitted(Exception):
    """Raised where an admitted command would start building its set."""


def refuse_building(mp):
    """Make construction raise Admitted, in the CLI and in the harness."""

    def construct(spec):
        raise Admitted

    mp.setattr(cli, "construct", construct)
    mp.setattr(harness, "construct", construct)


class NoPower(int):
    """An integer that fails any power taken of it or to it."""

    def __pow__(self, other):
        raise AssertionError(f"a power of {int(self)} was taken")

    __rpow__ = __pow__


@st.composite
def small_constructions(draw):
    """A small construction config, valid or not, costing 0 to ~6000."""
    kind = draw(
        st.sampled_from(["explicit", "quadratic_residues", "power_residues",
                         "index_range"])
    )
    if kind == "explicit":
        q = draw(st.integers(0, 60))
        elements = draw(st.lists(st.integers(0, max(q - 1, 0)), max_size=8))
        return {"kind": kind, "params": {"q": q, "elements": sorted(set(elements))}}
    p = draw(st.sampled_from([3, 5, 7, 11, 13, 43, 101, 1009]))
    if kind == "quadratic_residues":
        return {"kind": kind, "params": {"p": p}}
    f = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=6))
    if kind == "power_residues":
        return {"kind": kind, "params": {"p": p, "d": 2, "f": f}}
    r, s = draw(st.integers(-p, p)), draw(st.integers(0, p))
    return {"kind": kind, "params": {"p": p, "f": f, "r": r, "s": s}}


small_derivations = st.sampled_from(
    [{"kind": "gap_mod", "M": 2}, {"kind": "gap_mod", "M": 3},
     {"kind": "gap_threshold", "m": 2}, {"kind": "characteristic"}]
)
small_analyses = st.sampled_from(
    [{"kind": "cardinality"},
     {"kind": "balance", "sequence": "characteristic"},
     {"kind": "patterns", "sequence": "characteristic", "length": 3},
     {"kind": "sign_patterns", "window": 3},
     {"kind": "sign_patterns", "window": 2,
      "budget": {"constant": 1, "shape": "lemma"}},
     {"kind": "correlation", "k": 2},
     {"kind": "correlation", "k": 0},
     {"kind": "correlation_sampled", "k": 3, "samples": 20}]
)
small_budgets = st.integers(0, 20000)


class TestAdmissionGate:
    """run and every CLI command refuse through harness.admit, before the
    set is built."""

    def write(self, tmp_path, name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    QR11 = {"kind": "quadratic_residues", "params": {"p": 11}}
    QR1009 = {"kind": "quadratic_residues", "params": {"p": 1009}}

    def test_corr_charges_its_set(self, tmp_path, capsys, monkeypatch):
        refuse_building(monkeypatch)
        rng = random.Random(1)
        f = [rng.randrange(100003) for _ in range(12000)]
        spec = {"kind": "power_residues", "params": {"p": 100003, "d": 2, "f": f}}
        cfg = self.write(tmp_path, "c.json", spec)
        args = ["corr", "--config", cfg, "-k", "1", "--budget", "200000"]
        assert cli.main(args) == 2
        cost = 100003 * 12000 + measures.exact_cost(100003, 1)
        assert capsys.readouterr().err == (
            f"error: corr needs ~{cost} operations, budget is 200000\n"
        )

    def test_every_command_goes_through_the_gate(self, tmp_path, capsys, monkeypatch):
        calls = []
        gate = harness.admit

        def admit(config, budget, what="experiment"):
            calls.append((what, budget, len(config.derivations), len(config.analyses)))
            gate(config, budget, what)

        monkeypatch.setattr(harness, "admit", admit)
        qr = self.write(tmp_path, "qr.json", self.QR11)
        gaps = self.write(
            tmp_path, "g.json",
            {"construction": self.QR11, "derivation": {"kind": "gap_mod", "M": 2}},
        )
        experiment = self.write(
            tmp_path, "v.json",
            {"construction": self.QR11, "analyses": [{"kind": "cardinality"}]},
        )
        for args in (
            ["construct", "--config", qr],
            ["derive", "--config", gaps],
            ["stats", "--config", gaps, "--length", "2"],
            ["corr", "--config", qr, "-k", "2", "--budget", "121"],  # 11 + 10 * 11
            ["verify", "--config", experiment, "--budget", "22"],  # 11 + 11
        ):
            assert cli.main(args) == 0
        capsys.readouterr()
        assert calls == [
            ("construct", measures.DEFAULT_BUDGET, 0, 0),
            ("derive", measures.DEFAULT_BUDGET, 1, 0),
            ("stats", measures.DEFAULT_BUDGET, 1, 1),
            ("corr", 121, 0, 1),
            ("experiment", 22, 0, 1),
        ]

    @given(
        small_constructions(),
        small_derivations,
        st.lists(small_analyses, max_size=3),
        small_budgets,
    )
    @settings(max_examples=150, deadline=None)
    def test_run_builds_only_within_budget(
        self, construction, derivation, analyses, budget
    ):
        derivations = [derivation]
        if derivation["kind"] != "characteristic":
            derivations.append({"kind": "characteristic"})
        raw = {"construction": construction, "derivations": derivations,
               "analyses": analyses}
        with pytest.MonkeyPatch.context() as mp:
            refuse_building(mp)
            try:
                config = ExperimentConfig.from_dict(raw)
                run(config, op_budget=budget)
            except Admitted:
                assert estimate_cost(config) <= budget
            except errors.Error:
                pass  # refused: construct, which raises Admitted, never ran
            else:
                raise AssertionError("run finished without building its set")

    @given(
        st.sampled_from(["construct", "derive", "stats", "corr"]),
        small_constructions(),
        small_derivations,
        st.integers(1, 4),
        st.integers(0, 4),
        st.one_of(st.none(), st.integers(0, 40)),
        small_budgets,
    )
    @settings(max_examples=200, deadline=None)
    def test_commands_build_only_within_budget(
        self, tmp_path_factory, command, construction, derivation, length, order,
        samples, budget,
    ):
        body, flags = construction, []
        if command in ("derive", "stats"):
            body = {"construction": construction, "derivation": derivation}
        if command == "stats":
            flags = ["--length", str(length)]
        if command == "corr":
            flags = ["-k", str(order), "--budget", str(budget)]
            flags += [] if samples is None else ["--samples", str(samples)]
        path = tmp_path_factory.getbasetemp() / "gate.json"
        path.write_text(json.dumps(body))
        with pytest.MonkeyPatch.context() as mp:
            refuse_building(mp)
            mp.setattr(cli, "DEFAULT_BUDGET", budget)
            try:
                code = cli.main([command, "--config", str(path), *flags])
            except Admitted:
                spec = harness.ConstructionSpec.from_json(construction)
                dspec = DerivationSpec.from_dict(derivation, "derivation")
                config = {
                    "construct": ExperimentConfig(spec),
                    "derive": ExperimentConfig(spec, (dspec,)),
                    "stats": ExperimentConfig(
                        spec, (dspec,), (AnalysisSpec("patterns", dspec.kind, length),)
                    ),
                    "corr": ExperimentConfig(spec, (), (AnalysisSpec(
                        "correlation" if samples is None else "correlation_sampled",
                        k=order, samples=samples,
                    ),)),
                }[command]
                assert estimate_cost(config) <= budget
            else:
                assert code == 2

    @pytest.mark.parametrize("window", [NoPower(10**9), NoPower(2**64)])
    def test_window_guard_takes_no_power(self, window):
        raw = {"construction": self.QR11,
               "analyses": [{"kind": "sign_patterns", "window": window}]}
        with pytest.raises(errors.ConfigError, match=r"alphabet\^length exceeds 4096"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("length", [NoPower(10**9), NoPower(2**64)])
    def test_length_guard_takes_no_power(self, length):
        raw = {"construction": self.QR11,
               "derivations": [{"kind": "characteristic"}],
               "analyses": [{"kind": "patterns", "sequence": "characteristic",
                             "length": length}]}
        with pytest.raises(errors.ConfigError, match=r"alphabet\^length exceeds 4096"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "analysis, message",
        [
            ({"kind": "sign_patterns", "window": 10**9},
             "analyses[0]: alphabet^length exceeds 4096"),
            ({"kind": "sign_patterns", "window": 2**64},
             "analyses[0]: alphabet^length exceeds 4096"),
            ({"kind": "patterns", "sequence": "characteristic", "length": 10**9},
             "analyses[0]: alphabet^length exceeds 4096"),
        ],
        ids=["window_1e9", "window_2_64", "length_1e9"],
    )
    def test_huge_families_exit_2(self, tmp_path, capsys, monkeypatch, analysis,
                                  message):
        refuse_building(monkeypatch)
        cfg = self.write(tmp_path, "v.json", {
            "construction": self.QR11,
            "derivations": [{"kind": "characteristic"}],
            "analyses": [analysis],
        })
        assert cli.main(["verify", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "derivation, analysis, name",
        [
            ({"kind": "gap_threshold", "m": 1500}, {"kind": "balance"}, "m"),
            ({"kind": "gap_mod", "M": 4096}, {"kind": "balance"}, "M"),
            ({"kind": "gap_threshold", "m": 300}, {"kind": "patterns", "length": 12},
             "m"),
            ({"kind": "gap_threshold", "m": 10**6}, {"kind": "balance"}, "m"),
            ({"kind": "gap_threshold", "m": 10**400}, {"kind": "balance"}, "m"),
        ],
        ids=["m1500", "M4096", "m300_length12", "m1e6", "m1e400"],
    )
    def test_unrenderable_main_terms_exit_2(
        self, tmp_path, capsys, monkeypatch, derivation, analysis, name
    ):
        refuse_building(monkeypatch)
        cfg = self.write(tmp_path, "v.json", {
            "construction": self.QR1009,
            "derivations": [derivation],
            "analyses": [{**analysis, "sequence": derivation["kind"]}],
        })
        assert cli.main(["verify", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            f"error: analyses[0]: {name}*length*log10(q) exceeds 4300 digits\n"
        )

    def test_sweep_refuses_an_unrenderable_point_before_any_runs(
        self, tmp_path, capsys, monkeypatch
    ):
        refuse_building(monkeypatch)
        base = {"construction": self.QR1009,
                "derivations": [{"kind": "gap_threshold", "m": 2}],
                "analyses": [{"kind": "balance", "sequence": "gap_threshold"}]}
        grid = [{"path": "derivations.0.m", "values": [2, 1500]}]
        cfg = self.write(tmp_path, "s.json", {"base": base, "grid": grid})
        assert cli.main(["sweep", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            "error: grid point 1: analyses[0]: m*length*log10(q) exceeds 4300 digits\n"
        )

    def test_main_term_bound_at_its_edge(self, tmp_path):
        # 4300 / log10(1009) = 1431.48: m = 1431 renders, m = 1432 is refused
        def config(m):
            return {"construction": self.QR1009,
                    "derivations": [{"kind": "gap_threshold", "m": m}],
                    "analyses": [{"kind": "balance", "sequence": "gap_threshold"}]}

        with pytest.raises(errors.ConfigError, match="exceeds 4300 digits"):
            ExperimentConfig.from_dict(config(1432))
        report = run(ExperimentConfig.from_dict(config(1431)))
        text = report.to_json_text()
        assert json.loads(text)["analyses"][0]["items"][0]["label"] == "symbol=0"

    def test_characteristic_windows_at_large_q_stay_admitted(self):
        # 12 * log10(10^9) = 108 digits
        ExperimentConfig.from_dict({
            "construction": {"kind": "explicit",
                             "params": {"q": 10**9, "elements": [0, 1]}},
            "derivations": [{"kind": "characteristic"}],
            "analyses": [{"kind": "patterns", "sequence": "characteristic",
                          "length": 12}],
        })

    @pytest.mark.parametrize("command", ["derive", "stats"])
    def test_gap_mod_past_int64(self, tmp_path, capsys, command):
        cfg = self.write(tmp_path, "g.json", {
            "construction": {"kind": "explicit",
                             "params": {"q": 2**64, "elements": [0, 5, 9]}},
            "derivation": {"kind": "gap_mod", "M": 2**63},
        })
        assert cli.main([command, "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        if command == "derive":
            assert out["symbols"] == [5, 4]
        else:
            assert out["counts"] == [{"pattern": [4], "count": 1},
                                     {"pattern": [5], "count": 1}]

    @pytest.mark.parametrize(
        "kind, f, period",
        [("index_range", [0, 1], 10), ("poly_value_range", [0, 0, 1], 11),
         ("inverse_range", [0, 1], 11)],
    )
    @pytest.mark.parametrize("r", [2**64, -(2**64)])
    def test_window_start_past_int64(self, tmp_path, capsys, kind, f, period, r):
        outputs = []
        for start in (r, r % period):
            params = {"p": 11, "f": f, "r": start, "s": 3}
            cfg = self.write(tmp_path, "c.json", {"kind": kind, "params": params})
            assert cli.main(["construct", "--config", cfg]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestValuesPastTheirLimits:
    """Config values that parse but cannot be used are config errors, exit
    2, before anything runs."""

    DIGITS = "1" * 5000  # past CPython's int-to-str digit limit (4300)

    def write_text(self, tmp_path, text):
        path = tmp_path / "c.json"
        path.write_text(text)
        return str(path)

    @pytest.mark.parametrize(
        "command, text",
        [
            ("construct", '{"kind": "quadratic_residues", "params": {"p": %s}}'),
            ("corr", '{"kind": "quadratic_residues", "params": {"p": %s}}'),
            ("verify", '{"construction": {"kind": "quadratic_residues", '
                       '"params": {"p": 43}}, "seed": %s}'),
            ("derive", '{"sequence": {"kind": "gap_mod", "params": {"M": %s}, '
                       '"symbols": [1]}}'),
            ("sweep", '{"base": {}, "grid": [{"path": "seed", "values": [%s]}]}'),
        ],
    )
    def test_an_integer_past_the_digit_limit(self, tmp_path, capsys, command, text):
        cfg = self.write_text(tmp_path, text % self.DIGITS)
        args = [command, "--config", cfg] + (["-k", "1"] if command == "corr" else [])
        assert cli.main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {cfg}: Exceeds the limit (4300 digits)")

    def test_malformed_json_keeps_its_message(self, tmp_path, capsys):
        cfg = self.write_text(tmp_path, '{"kind": ')
        assert cli.main(["construct", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            "error: Expecting value: line 1 column 10 (char 9)\n"
        )

    @staticmethod
    def config(constant, shape="absolute", kind="balance"):
        analysis = {"kind": kind, "budget": {"constant": constant, "shape": shape}}
        if kind == "balance":
            analysis["sequence"] = "characteristic"
        else:
            analysis["window"] = 2
        return {
            "construction": {"kind": "quadratic_residues", "params": {"p": 43}},
            "derivations": [{"kind": "characteristic"}],
            "analyses": [analysis],
        }

    @pytest.mark.parametrize(
        "constant, shape, kind",
        [
            ({"num": 10**4000, "den": 3}, "absolute", "balance"),
            (10**309, "sqrt_log", "balance"),
            (10**309, "sqrt_log2", "sign_patterns"),
            # c * 2^s * Cmax past float range for some set of Z_43: c * 4 * 43
            (10**307, "lemma", "sign_patterns"),
        ],
    )
    def test_a_budget_constant_past_float_range(
        self, tmp_path, capsys, monkeypatch, constant, shape, kind
    ):
        def refuse(spec):
            raise AssertionError("the set was built")

        monkeypatch.setattr(harness, "construct", refuse)
        config = self.config(constant, shape, kind)
        with pytest.raises(errors.ConfigError, match="too large for the report's float"):
            ExperimentConfig.from_dict(config)
        path = tmp_path / "v.json"
        path.write_text(json.dumps(config))
        assert cli.main(["verify", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: analyses[0].budget.constant: too large for the report's float value\n"
        )
        sweep_cfg = {"base": config, "grid": [{"path": "seed", "values": [0, 1]}]}
        path.write_text(json.dumps(sweep_cfg))
        assert cli.main(["sweep", "--config", str(path)]) == 2
        assert "grid point 0: analyses[0].budget.constant" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "constant, shape, kind",
        [
            (10**308, "absolute", "balance"),
            ({"num": 10**300, "den": 7}, "sqrt_log", "balance"),
            (10**300, "lemma", "sign_patterns"),
        ],
    )
    def test_a_budget_constant_within_float_range_runs(self, constant, shape, kind):
        report = run(ExperimentConfig.from_dict(self.config(constant, shape, kind)))
        text = report.to_json_text()
        assert text == json.dumps(report.body, indent=2, sort_keys=True) + "\n"
        assert report.status == "PASS"


class TestRunChecksItsConfig:
    """run refuses a config built in code as ExperimentConfig.from_dict
    refuses its JSON: the same ConfigError, before the set is built."""

    SPEC = harness.ConstructionSpec("quadratic_residues", {"p": 1009})
    M2 = DerivationSpec("gap_mod", 2)

    def refused(self, monkeypatch, config, raw=None):
        """run's ConfigError text for config, checked against from_dict's
        for raw (config.to_dict() if None); the set is never built."""
        built = []
        monkeypatch.setattr(harness, "construct", built.append)
        with pytest.raises(errors.ConfigError) as info:
            ExperimentConfig.from_dict(config.to_dict() if raw is None else raw)
        with pytest.raises(errors.ConfigError) as ran:
            run(config)
        assert built == []
        assert str(ran.value) == str(info.value)
        return str(ran.value)

    @pytest.mark.parametrize(
        "derivations, analysis, message",
        [
            ((DerivationSpec("gap_mod", 70),), AnalysisSpec("patterns", "gap_mod", 2),
             "analyses[0]: alphabet^length exceeds 4096"),
            ((), AnalysisSpec("sign_patterns", window=13),
             "analyses[0]: alphabet^length exceeds 4096"),
            ((DerivationSpec("gap_threshold", 10**6),),
             AnalysisSpec("balance", "gap_threshold"),
             "analyses[0]: m*length*log10(q) exceeds 4300 digits"),
            ((), AnalysisSpec("balance", "gap_mod"),
             "analyses[0].sequence: no derivation of kind 'gap_mod' configured"),
            ((M2,), AnalysisSpec("balance", "gap_mod",
                                 budget=BudgetSpec(Fraction(1), "lemma")),
             "analyses[0].budget.shape: lemma budgets fit sign_patterns only"),
            ((M2,), AnalysisSpec("balance", "gap_mod",
                                 budget=BudgetSpec(Fraction(10**400), "sqrt_log")),
             "analyses[0].budget.constant: too large for the report's float value"),
            ((M2, DerivationSpec("gap_mod", 3)), AnalysisSpec("balance", "gap_mod"),
             "derivations: duplicate derivation kinds in ['gap_mod', 'gap_mod']"),
            ((M2,), AnalysisSpec("patterns", "gap_mod"),
             "analyses[0].length: expected an integer, got None"),
            ((M2,), AnalysisSpec("balance", "gap_mod",
                                 budget=BudgetSpec(Fraction(-1), "sqrt_log")),
             "analyses[0].budget.constant: must be nonnegative"),
            ((M2,), AnalysisSpec("balance", "gap_mod",
                                 budget=BudgetSpec(Fraction(1), "cubic")),
             "analyses[0].budget.shape: expected one of "
             "('absolute', 'sqrt_log', 'sqrt_log2', 'lemma'), got 'cubic'"),
            ((DerivationSpec("gap_mod"),), AnalysisSpec("cardinality"),
             "derivations[0].M: expected an integer, got None"),
        ],
        ids=["patterns_M70", "window13", "m1e6", "unconfigured", "lemma_on_balance",
             "constant_1e400", "two_gap_mod", "no_length", "negative_constant",
             "unknown_shape", "no_M"],
    )
    def test_built_in_code(self, monkeypatch, derivations, analysis, message):
        config = ExperimentConfig(self.SPEC, derivations, (analysis,))
        assert self.refused(monkeypatch, config) == message

    def test_seed(self, monkeypatch):
        config = ExperimentConfig(self.SPEC, seed=-1)
        assert self.refused(monkeypatch, config) == "seed: expected >= 0, got -1"

    def test_unknown_kinds(self, monkeypatch):
        # a kind with no record has no to_dict: its JSON is written out
        qr = self.SPEC.to_json()
        config = ExperimentConfig(self.SPEC, (), (AnalysisSpec("entropy"),))
        raw = {"construction": qr, "analyses": [{"kind": "entropy"}]}
        assert self.refused(monkeypatch, config, raw) == (
            "analyses[0].kind: unknown analysis kind 'entropy'"
        )
        config = ExperimentConfig(self.SPEC, (DerivationSpec("gaps"),))
        raw = {"construction": qr, "derivations": [{"kind": "gaps"}]}
        assert self.refused(monkeypatch, config, raw) == (
            "derivations[0].kind: unknown derivation kind 'gaps'"
        )

    def test_stats_still_counts_past_the_family_cap(self, tmp_path, capsys):
        cfg = tmp_path / "g.json"
        cfg.write_text(json.dumps({
            "construction": {"kind": "quadratic_residues", "params": {"p": 43}},
            "derivation": {"kind": "characteristic"},
        }))
        assert cli.main(["stats", "--config", str(cfg), "--length", "17"]) == 0
        assert json.loads(capsys.readouterr().out)["length"] == 17

    @pytest.mark.parametrize(
        "derivation, message",
        [({"kind": "gap_mod", "M": 1}, "derivation.M: expected >= 2, got 1"),
         ({"kind": "gap_threshold", "m": "2"},
          "derivation.m: expected an integer, got '2'")],
    )
    def test_derive_and_stats_check_their_derivation(
        self, tmp_path, capsys, monkeypatch, derivation, message
    ):
        refuse_building(monkeypatch)
        cfg = tmp_path / "g.json"
        cfg.write_text(json.dumps({
            "construction": {"kind": "quadratic_residues", "params": {"p": 43}},
            "derivation": derivation,
        }))
        for command in ("derive", "stats"):
            assert cli.main([command, "--config", str(cfg)]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"


# Values outside the range of some config field, or of every field.
out_of_range = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 14),
    st.sampled_from([2**64, 10**30, "2", "gap_mod", "gaps", "characteristic"]),
)
budgets = st.builds(
    BudgetSpec,
    st.sampled_from([Fraction(-1), Fraction(0), Fraction(3, 2), Fraction(10**400)]),
    st.sampled_from(["absolute", "sqrt_log", "lemma", "cubic"]),
)


SAMPLED = {"construction": BASE["construction"],
           "analyses": [{"kind": "correlation_sampled", "k": 2, "samples": 5,
                         "seed": 1}]}


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_run_refuses_what_from_dict_refuses(data):
    """One field of a valid config replaced: run refuses exactly when
    from_dict refuses the config's JSON, with the same message, and
    before the set is built."""
    config = ExperimentConfig.from_dict(data.draw(st.sampled_from([BASE, SAMPLED])))
    where = data.draw(st.sampled_from(["seed", "derivation", "analysis"]))
    if where == "seed" or (where == "derivation" and not config.derivations):
        config = dataclasses.replace(config, seed=data.draw(out_of_range))
    elif where == "derivation":
        i = data.draw(st.integers(0, len(config.derivations) - 1))
        param = data.draw(out_of_range)
        derivation = dataclasses.replace(config.derivations[i], param=param)
        derivations = config.derivations[:i] + (derivation,) + config.derivations[i + 1:]
        config = dataclasses.replace(config, derivations=derivations)
    else:
        i = data.draw(st.integers(0, len(config.analyses) - 1))
        analysis = config.analyses[i]
        keys = harness.ANALYSES[analysis.kind].keys
        if not keys:
            return
        key = data.draw(st.sampled_from(keys))
        value = data.draw(budgets if key == "budget" else out_of_range)
        analysis = dataclasses.replace(analysis, **{key: value})
        analyses = config.analyses[:i] + (analysis,) + config.analyses[i + 1:]
        config = dataclasses.replace(config, analyses=analyses)
    try:
        ExperimentConfig.from_dict(config.to_dict())
        message = None
    except errors.ConfigError as exc:
        message = str(exc)
    with pytest.MonkeyPatch.context() as mp:
        refuse_building(mp)
        try:
            run(config)
        except errors.ConfigError as exc:
            assert str(exc) == message
        except (Admitted, errors.Error):
            assert message is None


primes_below_1100 = [p for p in range(3, 1100) if all(p % d for d in range(2, p))]


@st.composite
def window_configs(draw):
    """A QR config with a gap_threshold derivation and up to three window
    analyses under sqrt_log budgets; large m gives main terms of over 640
    digits."""
    analysis = st.one_of(
        st.just({"kind": "balance", "sequence": "gap_threshold"}),
        st.builds(lambda n: {"kind": "patterns", "sequence": "gap_threshold",
                             "length": n}, st.integers(1, 3)),
        st.builds(lambda s: {"kind": "sign_patterns", "window": s}, st.integers(1, 4)),
    )
    analyses = draw(st.lists(analysis, min_size=1, max_size=3))
    for a in analyses:
        c = draw(st.integers(0, 64))
        a["budget"] = {"constant": c, "shape": "sqrt_log"}
    return {
        "construction": {"kind": "quadratic_residues",
                         "params": {"p": draw(st.sampled_from(primes_below_1100))}},
        "derivations": [{"kind": "gap_threshold", "m": draw(st.integers(2, 1000))}],
        "analyses": analyses,
    }


def report_text(raw) -> str:
    """run's report of raw, its timing dropped, or the error that refuses
    it (QR 3 has too few elements for a gap sequence)."""
    try:
        body = run(ExperimentConfig.from_dict(raw)).body
    except errors.Error as exc:
        return f"{type(exc).__name__}: {exc}"
    return harness.json_text(scrub(body), sort_keys=True)


@given(
    window_configs(),
    st.builds(
        decimal.Context,
        prec=st.integers(1, 50),
        rounding=st.sampled_from([
            decimal.ROUND_DOWN, decimal.ROUND_HALF_UP, decimal.ROUND_HALF_EVEN,
            decimal.ROUND_CEILING, decimal.ROUND_FLOOR, decimal.ROUND_UP,
            decimal.ROUND_HALF_DOWN, decimal.ROUND_05UP,
        ]),
        traps=st.lists(st.sampled_from([
            decimal.Clamped, decimal.DivisionByZero, decimal.Inexact,
            decimal.InvalidOperation, decimal.Overflow, decimal.Rounded,
            decimal.Subnormal, decimal.Underflow, decimal.FloatOperation,
        ]), unique=True),
    ),
    st.one_of(st.just(0), st.integers(640, 4300)),
)
@settings(max_examples=40, deadline=None)
def test_reports_do_not_depend_on_process_state(raw, context, limit):
    """A report, timing aside, is the same under any decimal context and
    any int-to-str digit limit as under the defaults."""
    expected = report_text(raw)
    with decimal.localcontext(context), digit_limit(limit):
        text = report_text(raw)
    assert text == expected
