import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest
from support import random_progressive_system

from tmsr import (
    FAILS,
    HOLDS,
    Configuration,
    CreatedFact,
    CriticalPair,
    CriticalSpec,
    Fact,
    RulePattern,
    SearchBudget,
    TimestampedFact,
    bounded_realizability,
    bounded_survivability,
    compute_dmax,
    expand_rule,
    make_signature,
    make_system,
    realizability,
    survivability,
    validate_lasso,
    validate_trace,
)
from tmsr.reports import (
    ReportError,
    VerdictReport,
    emit_report,
    input_digest,
    parse_report,
    report_json,
)
from tmsr.specfile import SpecFile, parse_spec, print_spec
from tmsr.scenarios import Cnf3, DroneParams, gen_3sat, gen_drone


def spec_of(system, init, critical, ticks=None):
    return SpecFile(system, init, critical, ticks)


class TestEmission:
    def test_configs_serialize_in_canonical_order(self):
        spec = gen_drone(DroneParams(recency=2))
        v = bounded_survivability(spec.system, spec.init, spec.critical, 8)
        doc = report_json(VerdictReport(v, ticks=8, digest="x"))
        for entry in [doc["init"]] + [s["config"] for s in doc["trace"]]:
            keys = [(e["ts"], e["fact"]) for e in entry]
            assert keys == sorted(keys)

    def test_digest_is_stable(self):
        assert input_digest("abc") == input_digest("abc")
        assert input_digest("abc") != input_digest("abd")

    def test_statistics_block(self):
        spec = gen_drone(DroneParams(recency=2))
        v = bounded_survivability(spec.system, spec.init, spec.critical, 8)
        doc = report_json(VerdictReport(v, ticks=8, digest=""))
        stats = doc["statistics"]
        assert set(stats) >= {"states", "elapsed_ms", "l_sigma_decimal", "peak_frontier"}
        assert json.loads(emit_report(VerdictReport(v, ticks=8, digest="")))


class TestRoundTrips:
    def test_random_verdict_traces_revalidate_after_reingestion(self):
        rng = random.Random(60601)
        revalidated = 0
        for _ in range(40):
            sysm, init, cs = random_progressive_system(rng)
            spec = spec_of(sysm, init, cs)
            for verdict, ticks in (
                (survivability(sysm, init, cs), None),
                (bounded_survivability(sysm, init, cs, 2), 2),
                (bounded_realizability(sysm, init, cs, 2), 2),
            ):
                text = emit_report(VerdictReport(verdict, ticks=ticks, digest="d"))
                parsed = parse_report(text, spec)
                assert parsed.outcome == verdict.outcome
                if parsed.trace is not None:
                    expect_critical = parsed.outcome == FAILS
                    assert validate_trace(
                        sysm, cs, parsed.trace, expect_critical_end=expect_critical
                    ), text
                    revalidated += 1
                if parsed.lasso is not None:
                    dmax = compute_dmax(sysm, init, cs)
                    assert validate_lasso(sysm, cs, parsed.lasso, dmax)
                    revalidated += 1
        assert revalidated >= 30

    def test_lasso_round_trip_with_substitutions(self):
        sat = gen_3sat(Cnf3(2, ((1, 2, 2),)))
        v = realizability(sat.system, sat.init, sat.critical)
        assert v.outcome == HOLDS
        spec = spec_of(sat.system, sat.init, sat.critical)
        parsed = parse_report(emit_report(VerdictReport(v, digest="")), spec)
        assert parsed.lasso is not None
        dmax = compute_dmax(sat.system, sat.init, sat.critical)
        assert validate_lasso(sat.system, sat.critical, parsed.lasso, dmax)

    def test_spec_text_digest_matches_cli_convention(self):
        spec = gen_drone(DroneParams(recency=2))
        text = print_spec(spec)
        again = parse_spec(text)
        assert print_spec(again) == text
        assert input_digest(text) == input_digest(print_spec(again))


WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def bench_items(seed):
    """The benchmark's items of every workload drawn with ``seed``, each
    as (item, spec), taken from ``bench/workloads.py`` by its path."""
    loader = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(loader)
    sys.modules[loader.name] = workloads  # its dataclass looks itself up there
    try:
        loader.loader.exec_module(workloads)
    finally:
        del sys.modules[loader.name]
    draws = (workloads.draw_drone_free, workloads.draw_drone_greedy, workloads.draw_sat_sweep)
    out = []
    for draw in draws:
        for item in draw(seed):
            if item.kind == "drone":
                spec = gen_drone(DroneParams(**dict(item.params)))
            else:
                spec = gen_3sat(Cnf3(*item.params))
            out.append((item, spec))
    return out


def assert_json_bytes(report):
    """The report's text is ``json.dumps`` of ``report_json``: one line,
    then a newline."""
    text = emit_report(report)
    assert text == json.dumps(report_json(report)) + "\n"
    assert text.count("\n") == 1
    return text


def odd_name_system():
    """One fact renewed each tick by a rule whose name needs escapes."""
    sig = make_signature((), {"A": ()}, {}, {})
    rules = expand_rule(
        "\u00e9\u2192\\x", "T", [], [RulePattern(Fact("A"), "T1")], [CreatedFact(Fact("A"), 1)]
    )
    init = Configuration((TimestampedFact(Fact("Time"), 0), TimestampedFact(Fact("A"), 0)))
    return make_system(sig, list(rules)), init


class TestWriter:
    """``emit_report`` writes ``json.dumps`` of ``report_json`` on one line."""

    def test_seed_1_bench_items(self):
        for item, spec in bench_items(1):
            args = (spec.system, spec.init, spec.critical)
            if item.kind == "drone":
                verdicts = [(survivability(*args), None)] if item.ticks is None else []
            else:
                verdicts = [(bounded_realizability(*args, item.ticks), item.ticks)]
            if item.ticks is not None:
                verdicts.append((bounded_survivability(*args, item.ticks), item.ticks))
            for verdict, ticks in verdicts:
                assert_json_bytes(VerdictReport(verdict, ticks=ticks, digest=item.label))

    def test_random_verdicts_in_every_mode(self):
        rng = random.Random(1818)
        for _ in range(40):
            sysm, init, cs = random_progressive_system(rng)
            budget = SearchBudget(max_states=rng.randint(1, 30))
            for verdict, ticks in (
                (realizability(sysm, init, cs), None),
                (survivability(sysm, init, cs), None),
                (bounded_realizability(sysm, init, cs, 2), 2),
                (bounded_survivability(sysm, init, cs, 2, budget), 2),
            ):
                assert_json_bytes(VerdictReport(verdict, ticks=ticks, digest="d"))

    def test_escaped_name_empty_lists_null_subst_and_float(self):
        sysm, init = odd_name_system()
        spec = spec_of(sysm, init, CriticalSpec())
        verdict = bounded_realizability(sysm, init, CriticalSpec(), 2)
        text = assert_json_bytes(VerdictReport(verdict, ticks=2))
        assert '"label": "\\u00e9\\u2192\\\\x"' in text
        assert '"subst": null' in text and '"terms": []' in text
        assert type(json.loads(text)["statistics"]["elapsed_ms"]) is float
        parsed = parse_report(text, spec)
        assert [s.label for s in parsed.trace.steps] == [s.label for s in verdict.witness.steps]
        assert any(s.label == "\u00e9\u2192\\x" for s in parsed.trace.steps)
        assert [s.subst for s in parsed.trace.steps] == [s.subst for s in verdict.witness.steps]
        # An empty trace (the initial configuration is critical) and an
        # empty symmetry list (unbounded, no interchangeable constants).
        cs = CriticalSpec((CriticalPair("a", (RulePattern(Fact("A"), "Ta"),), ()),))
        verdict = survivability(sysm, init, cs)
        text = assert_json_bytes(VerdictReport(verdict))
        assert '"trace": []' in text and '"symmetry": []' in text
        parsed = parse_report(text, spec_of(sysm, init, cs))
        assert parsed.trace.steps == () and parsed.trace.init == init


class TestTickBudget:
    """A report's tick budget is its verdict's, so every report it writes
    names the budget that ``parse_report`` asks of its mode."""

    def test_budget_comes_from_the_verdict(self):
        sysm, init = odd_name_system()
        for verdict, want in (
            (realizability(sysm, init, CriticalSpec()), None),
            (bounded_survivability(sysm, init, CriticalSpec(), 3), 3),
        ):
            assert verdict.ticks == want
            spec = spec_of(sysm, init, CriticalSpec())
            parsed = parse_report(emit_report(VerdictReport(verdict)), spec)
            assert parsed.ticks == want

    @pytest.mark.parametrize("bounded, ticks", [(False, 2), (True, 3)])
    def test_mismatched_budget_is_refused(self, bounded, ticks):
        sysm, init = odd_name_system()
        if bounded:
            verdict = bounded_realizability(sysm, init, CriticalSpec(), 2)
        else:
            verdict = realizability(sysm, init, CriticalSpec())
        with pytest.raises(ValueError, match="tick budget"):
            VerdictReport(verdict, ticks=ticks)


def greedy_report():
    spec = gen_drone(DroneParams(recency=3))
    verdict = bounded_survivability(spec.system, spec.init, spec.critical, 4)
    assert verdict.outcome == HOLDS
    return spec, json.loads(emit_report(VerdictReport(verdict, ticks=4)))


class TestReader:
    """Each distinct configuration entry is read once; every entry is still
    checked for its shape, also where an equal entry came before."""

    @pytest.mark.parametrize(
        "forge",
        [
            lambda e: {**e, "ts": True},
            lambda e: {**e, "ts": float(e["ts"])},
            lambda e: {**e, "ts": str(e["ts"])},
            lambda e: {"ts": e["ts"]},
            lambda e: [e["fact"], e["ts"]],
        ],
        ids=["ts-true", "ts-float", "ts-string", "no-fact", "entry-a-list"],
    )
    @pytest.mark.parametrize("where", ["first-entry", "repeated-entry"])
    def test_malformed_entry_is_a_report_error(self, forge, where):
        spec, doc = greedy_report()
        if where == "first-entry":
            config = doc["init"]
            j = 0
        else:
            # The last step's first entry, which an earlier configuration
            # holds too, with the same fact text and stamp.
            config = doc["trace"][-1]["config"]
            j = 0
            earlier = [e for s in doc["trace"][:-1] for e in s["config"]]
            assert config[j] in earlier
        config[j] = forge(config[j])
        with pytest.raises(ReportError):
            parse_report(json.dumps(doc), spec)

    def test_entries_out_of_order_read_as_their_configuration(self):
        spec, doc = greedy_report()
        parsed = parse_report(json.dumps(doc), spec)
        for step in doc["trace"]:
            step["config"].reverse()
        assert parse_report(json.dumps(doc), spec) == parsed

    @pytest.mark.parametrize("clocks", [0, 2])
    def test_configuration_needs_one_time_fact(self, clocks):
        spec, doc = greedy_report()
        config = doc["trace"][-1]["config"]
        time = next(e for e in config if e["fact"] == "Time")
        config.remove(time)
        config.extend([time] * clocks)
        with pytest.raises(ReportError, match="exactly one Time fact"):
            parse_report(json.dumps(doc), spec)

    @pytest.mark.parametrize(
        "text, message",
        [("Dr(d1,X,1,4)", "fact is not ground"), ("Dr(p1,1,1,4)", "constant 'p1' has sort")],
    )
    def test_fact_is_ground_and_well_sorted(self, text, message):
        spec, doc = greedy_report()
        doc["trace"][-1]["config"][0]["fact"] = text
        with pytest.raises(ReportError, match=message):
            parse_report(json.dumps(doc), spec)


class TestReportFields:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("mode", "bogus", "unknown mode 'bogus'"),
            ("mode", "bounded", "unknown mode 'bounded'"),
            ("outcome", "bogus", "unknown outcome 'bogus'"),
            ("outcome", "HOLDS", "unknown outcome 'HOLDS'"),
        ],
    )
    def test_mode_and_outcome_are_checked(self, field, value, message):
        spec, doc = greedy_report()
        doc[field] = value
        with pytest.raises(ReportError, match=message):
            parse_report(json.dumps(doc), spec)
