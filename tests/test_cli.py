import errno
import json
import os
import re
import subprocess
import sys

import pytest

from support import turn_taking_spec

import tmsr.cli
from tmsr.cli import main
from tmsr.reports import input_digest, parse_report
from tmsr.rules import TICK_LABEL
from tmsr.specfile import SpecParseError, parse_spec

TICK_ONLY = "tmsr-spec 1\ninit: Time@0\nparams: k=1\n"

CRITICAL_INIT = (
    "tmsr-spec 1\npred Bad\ninit: Time@0, Bad@0\n"
    'critical "bad": { Bad@T }\n'
)


@pytest.fixture
def tick_spec(tmp_path):
    path = tmp_path / "tick.spec"
    path.write_text(TICK_ONLY)
    return path


class TestCheck:
    def test_tick_only_passes(self, tick_spec, capsys):
        assert main(["check", str(tick_spec)]) == 0
        out = capsys.readouterr().out
        assert "balanced: yes" in out and "progressive: yes" in out
        assert "dmax: 1" in out

    def test_non_progressive_spec_flagged(self, tmp_path, capsys):
        path = tmp_path / "np.spec"
        path.write_text(
            "tmsr-spec 1\npred P\n"
            'rule "tick-like": P@T -> P@(T+0)\n'
            "init: Time@0, P@0\n"
        )
        assert main(["check", str(path)]) == 1
        assert "tick-like" in capsys.readouterr().out

    def test_parse_error_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bad.spec"
        path.write_text("tmsr-spec 1\ninit: Ghost@0\n")
        assert main(["check", str(path)]) == 3
        assert "[sort]" in capsys.readouterr().err

    def test_missing_file_exits_3(self, capsys):
        assert main(["check", "/nonexistent.spec"]) == 3

    def test_symmetric_constants_listed(self, tick_spec, tmp_path, capsys):
        assert main(["check", str(tick_spec)]) == 0
        assert "symmetric constants: none\n" in capsys.readouterr().out
        spec = tmp_path / "d.spec"
        main(["gen", "drone", "--drones", "2", "--strategy", "free", "--out", str(spec)])
        capsys.readouterr()
        assert main(["check", str(spec)]) == 0
        assert "symmetric constants: d1 d2\n" in capsys.readouterr().out


class TestSpecFileBytes:
    """Commands read a spec file exactly as stored, so they see what
    ``parse_spec`` sees in its text and digest that text."""

    # A lone carriage return inside line 4 is a blank to parse_spec.
    LONE_CR = "tmsr-spec 1\npred P\ninit: Time@0, P@0\nparams: k=4,\rdepth=3\n"

    @pytest.mark.parametrize(
        "argv",
        [["check"], ["verify", "--mode", "realizability"]],
        ids=["check", "verify"],
    )
    def test_lone_carriage_return_gives_the_parse_spec_diagnostic(self, tmp_path, capsys, argv):
        with pytest.raises(SpecParseError) as exc:
            parse_spec(self.LONE_CR)
        assert (exc.value.line, exc.value.col, exc.value.code) == (4, 14, "params")
        spec = tmp_path / "cr.spec"
        spec.write_bytes(self.LONE_CR.encode())
        assert main([argv[0], str(spec), *argv[1:]]) == 3
        assert capsys.readouterr().err == f"input error: {exc.value}\n"

    def test_crlf_spec_report_replays_against_that_file(self, tmp_path, capsys):
        spec = tmp_path / "d.spec"
        main(["gen", "drone", "--recency", "2", "--out", str(spec)])
        text = spec.read_text().replace("\n", "\r\n")
        spec.write_bytes(text.encode())
        rep = tmp_path / "rep.json"
        assert main(["verify", str(spec), "--mode", "survivability", "--ticks", "8", "--out", str(rep)]) == 1
        assert json.loads(rep.read_text())["input_digest"] == input_digest(text)
        capsys.readouterr()
        assert main(["replay", str(spec), str(rep)]) == 0
        assert capsys.readouterr().out == "trace validates\n"


class TestVerify:
    def test_tick_only_realizability_holds(self, tick_spec, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(
            ["verify", str(tick_spec), "--mode", "realizability", "--out", str(out)]
        )
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["outcome"] == "holds"
        assert rep["mode"] == "realizability"
        cycle = rep["lasso"]["cycle"]
        assert len(cycle) == 1 and cycle[0]["label"] == "tick"
        assert rep["statistics"]["l_sigma_decimal"] == "4"

    def test_critical_init_fails_with_pair_index(self, tmp_path):
        path = tmp_path / "crit.spec"
        path.write_text(CRITICAL_INIT)
        out = tmp_path / "rep.json"
        code = main(
            ["verify", str(path), "--mode", "survivability", "--out", str(out)]
        )
        assert code == 1
        rep = json.loads(out.read_text())
        assert rep["outcome"] == "fails"
        assert rep["trace"] == []
        assert rep["critical_pair"] == 0

    def test_unsatisfiable_formula_exits_1(self, tmp_path):
        spec = tmp_path / "f.spec"
        assert main(["gen", "3sat", "--clauses", "1,1,1;-1,-1,-1", "--out", str(spec)]) == 0
        assert main(["verify", str(spec), "--mode", "realizability", "--ticks", "2"]) == 1

    def test_budget_exhaustion_exits_2(self, tmp_path):
        spec = tmp_path / "d.spec"
        assert main(["gen", "drone", "--recency", "6", "--out", str(spec)]) == 0
        code = main(
            ["verify", str(spec), "--mode", "survivability", "--ticks",
             "--max-states", "10"]
        )
        assert code == 2

    def test_bare_ticks_uses_spec_default(self, tmp_path):
        spec = tmp_path / "d.spec"
        main(["gen", "drone", "--recency", "6", "--out", str(spec)])
        out = tmp_path / "rep.json"
        code = main(
            ["verify", str(spec), "--mode", "survivability", "--ticks", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["ticks"] == 24

    def test_bare_ticks_without_default_is_an_input_error(self, tick_spec):
        assert main(["verify", str(tick_spec), "--mode", "realizability", "--ticks"]) == 3

    @pytest.mark.parametrize("mode", ["realizability", "survivability"])
    @pytest.mark.parametrize("ticks", [[], ["--ticks", "3"]], ids=["unbounded", "bounded"])
    def test_oversized_created_fact_exits_3(self, tmp_path, capsys, mode, ticks):
        path = tmp_path / "grow.spec"
        path.write_text(
            "tmsr-spec 1\npred N : Nat\n"
            'rule "grow": Time@T, N(K)@T1 -> Time@T, N(s(K))@(T+1)\n'
            "init: N(0)@0, Time@0\nparams: k=3\n"
        )
        assert main(["verify", str(path), "--mode", mode, *ticks]) == 3
        assert capsys.readouterr().err == (
            "error: rule 'grow' created N(2) of size 4, exceeding the bound 3\n"
        )

    def test_statistics_name_the_symmetry_of_unbounded_modes(self, tmp_path):
        spec = tmp_path / "t.spec"
        spec.write_text(turn_taking_spec())
        stats = {}
        for ticks in ([], ["--ticks", "2"]):
            out = tmp_path / "rep.json"
            assert main(["verify", str(spec), "--mode", "realizability", *ticks, "--out", str(out)]) == 0
            stats[bool(ticks)] = json.loads(out.read_text())["statistics"]
        assert stats[False]["symmetry"] == [["a", "b"]]
        assert "symmetry" not in stats[True]
        spec.write_text(TICK_ONLY)
        main(["verify", str(spec), "--mode", "survivability", "--out", str(out)])
        assert json.loads(out.read_text())["statistics"]["symmetry"] == []

    def test_reports_deterministic_up_to_timing(self, tmp_path):
        spec = tmp_path / "d.spec"
        main(["gen", "drone", "--recency", "2", "--out", str(spec)])
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            main(["verify", str(spec), "--mode", "survivability", "--ticks", "--out", str(out)])
            outs.append(re.sub(r'"elapsed_ms": [0-9.]+', '"elapsed_ms": 0', out.read_text()))
        assert outs[0] == outs[1]


class TestGenAndReplay:
    def test_drone_chain(self, tmp_path):
        spec = tmp_path / "d.spec"
        assert main(
            ["gen", "drone", "--grid", "2x2", "--points", "0,1", "--base", "1,1",
             "--recency", "6", "--energy", "4", "--out", str(spec)]
        ) == 0
        parse_spec(spec.read_text())
        rep = tmp_path / "rep.json"
        assert main(
            ["verify", str(spec), "--mode", "survivability", "--ticks", "24",
             "--out", str(rep)]
        ) == 0
        assert main(["replay", str(spec), str(rep)]) == 0

    def test_counterexample_replay(self, tmp_path):
        spec = tmp_path / "d.spec"
        main(["gen", "drone", "--recency", "2", "--out", str(spec)])
        rep = tmp_path / "rep.json"
        assert main(
            ["verify", str(spec), "--mode", "survivability", "--ticks", "8",
             "--out", str(rep)]
        ) == 1
        assert main(["replay", str(spec), str(rep)]) == 0

    def test_tampered_report_rejected(self, tmp_path, capsys):
        spec = tmp_path / "d.spec"
        main(["gen", "drone", "--recency", "2", "--out", str(spec)])
        rep = tmp_path / "rep.json"
        main(["verify", str(spec), "--mode", "survivability", "--ticks", "8",
              "--out", str(rep)])
        doc = json.loads(rep.read_text())
        doc["trace"] = doc["trace"][:-1]  # drop the critical final state
        rep.write_text(json.dumps(doc))
        assert main(["replay", str(spec), str(rep)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_forged_initial_configuration_rejected(self, tmp_path, capsys):
        # The spec fails survivability; the forged report claims
        # realizability holds with an empty trace from a made-up init.
        spec = tmp_path / "d.spec"
        main(["gen", "drone", "--recency", "2", "--out", str(spec)])
        forged = {
            "mode": "realizability",
            "outcome": "holds",
            "init": [
                {"fact": "Time", "ts": 5},
                {"fact": "Dr(d1,1,1,4)", "ts": 5},
                {"fact": "P(p1,0,1)", "ts": 5},
            ],
            "trace": [],
        }
        rep = tmp_path / "forged.json"
        rep.write_text(json.dumps(forged))
        assert main(["replay", str(spec), str(rep)]) == 1
        assert "trace INVALID" in capsys.readouterr().out

    def test_report_without_artifact_is_not_certified(self, tmp_path, capsys):
        # The spec fails realizability; a claim with nothing to replay
        # must not exit 0, the code of a certified report.
        spec = tmp_path / "d.spec"
        main(["gen", "drone", "--recency", "2", "--out", str(spec)])
        rep = tmp_path / "bare.json"
        rep.write_text(json.dumps({"mode": "realizability", "outcome": "holds"}))
        capsys.readouterr()
        assert main(["replay", str(spec), str(rep)]) == 2
        assert "report carries no trace to validate" in capsys.readouterr().out

    def test_forged_lasso_stem_rejected(self, tmp_path, capsys):
        spec = tmp_path / "t.spec"
        spec.write_text(TICK_ONLY)
        rep = tmp_path / "rep.json"
        main(["verify", str(spec), "--mode", "realizability", "--out", str(rep)])
        assert main(["replay", str(spec), str(rep)]) == 0
        doc = json.loads(rep.read_text())
        doc["init"] = [{"fact": "Time", "ts": 3}]
        for step in doc["lasso"]["cycle"]:
            step["config"] = [{"fact": "Time", "ts": 4}]
        rep.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["replay", str(spec), str(rep)]) == 1
        assert "trace INVALID" in capsys.readouterr().out

    def test_renamed_cycle_replays_only_under_the_symmetry(self, tmp_path, capsys):
        # The reduced search closes the turn-taking loop after half of it,
        # on a copy of the start with the tokens swapped.
        spec = tmp_path / "t.spec"
        spec.write_text(turn_taking_spec())
        rep = tmp_path / "rep.json"
        assert main(["verify", str(spec), "--mode", "realizability", "--out", str(rep)]) == 0
        doc = json.loads(rep.read_text())
        assert [st["label"] for st in doc["lasso"]["cycle"]] == ["pass-a", "tick"]
        capsys.readouterr()
        assert main(["replay", str(spec), str(rep)]) == 0
        assert capsys.readouterr().out == "trace validates\n"
        # Against a spec whose pass back takes two clock advances the same
        # steps replay, but the swap is no symmetry, so the ends differ.
        spec.write_text(turn_taking_spec(back_offset=2))
        del doc["input_digest"]
        rep.write_text(json.dumps(doc))
        assert main(["replay", str(spec), str(rep)]) == 1
        assert capsys.readouterr().out == "trace INVALID: cycle endpoints are not equivalent\n"

    def test_tm_chain(self, tmp_path):
        machine = tmp_path / "m.json"
        machine.write_text(
            json.dumps(
                {
                    "states": ["q0", "qa"],
                    "final": ["qa"],
                    "alphabet": ["0", "1"],
                    "space": 2,
                    "input": "00",
                    "instructions": [
                        ["q0", "0", "q0", "1", "R"],
                        ["q0", "1", "q0", "1", "R"],
                    ],
                }
            )
        )
        spec = tmp_path / "tm.spec"
        assert main(["gen", "tm", "--machine", str(machine), "--out", str(spec)]) == 0
        rep = tmp_path / "rep.json"
        assert main(
            ["verify", str(spec), "--mode", "realizability", "--out", str(rep)]
        ) == 0
        assert main(["replay", str(spec), str(rep)]) == 0

    def test_sat_chain_with_witness_replay(self, tmp_path):
        spec = tmp_path / "f.spec"
        main(["gen", "3sat", "--clauses", "1,-2,2;2,2,2", "--out", str(spec)])
        rep = tmp_path / "rep.json"
        assert main(
            ["verify", str(spec), "--mode", "realizability", "--ticks", "2",
             "--out", str(rep)]
        ) == 0
        assert main(["replay", str(spec), str(rep)]) == 0
        parsed = parse_report(rep.read_text(), parse_spec(spec.read_text()))
        assert parsed.trace is not None
        assert [s.label for s in parsed.trace.steps].count(TICK_LABEL) == 2

    def test_report_for_an_edited_spec_rejected(self, tmp_path, capsys):
        spec, rep, _ = self._counterexample(tmp_path)
        spec.write_text(spec.read_text() + "# edited\n")
        capsys.readouterr()
        assert main(["replay", str(spec), str(rep)]) == 1
        assert capsys.readouterr().out == (
            "trace INVALID: the report's input digest is not that of the spec\n"
        )

    def test_report_without_digest_still_replays(self, tmp_path, capsys):
        spec, rep, doc = self._counterexample(tmp_path)
        del doc["input_digest"]
        rep.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["replay", str(spec), str(rep)]) == 0
        assert capsys.readouterr().out == "trace validates\n"

    def test_report_of_another_version_rejected(self, tmp_path, capsys):
        spec, rep, doc = self._counterexample(tmp_path)
        doc["version"] = "0.0.9"
        rep.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["replay", str(spec), str(rep)]) == 1
        assert capsys.readouterr().out == (
            "trace INVALID: the report was written by version '0.0.9', "
            "not by this tool's '0.1.0'\n"
        )

    def test_report_without_version_still_replays(self, tmp_path, capsys):
        spec, rep, doc = self._counterexample(tmp_path)
        del doc["version"]
        rep.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["replay", str(spec), str(rep)]) == 0
        assert capsys.readouterr().out == "trace validates\n"

    def test_version_must_be_a_string(self, tmp_path, capsys):
        spec, rep, doc = self._counterexample(tmp_path)
        doc["version"] = 1
        rep.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["replay", str(spec), str(rep)]) == 3
        assert "field 'version' of the report must be a string" in capsys.readouterr().err

    @staticmethod
    def _counterexample(tmp_path):
        spec = tmp_path / "d.spec"
        main(["gen", "drone", "--recency", "2", "--out", str(spec)])
        rep = tmp_path / "rep.json"
        main(["verify", str(spec), "--mode", "survivability", "--ticks", "8",
              "--out", str(rep)])
        return spec, rep, json.loads(rep.read_text())

    def test_realizability_claim_from_spec_init_without_lasso_rejected(self, tmp_path, capsys):
        # Realizability fails for this spec; an empty trace from the real
        # initial configuration cannot certify that it holds.
        spec, rep, doc = self._counterexample(tmp_path)
        forged = {"mode": "realizability", "outcome": "holds", "init": doc["init"], "trace": []}
        rep.write_text(json.dumps(forged))
        capsys.readouterr()
        assert main(["replay", str(spec), str(rep)]) == 1
        assert "trace INVALID" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "ticks, forge",
        [(None, lambda doc: {**doc, "outcome": "fails"})],
        ids=["fails-with-lasso"],
    )
    def test_artifact_must_match_mode_and_outcome(self, tick_spec, tmp_path, capsys, ticks, forge):
        rep = tmp_path / "rep.json"
        budget = [] if ticks is None else ["--ticks", ticks]
        main(["verify", str(tick_spec), "--mode", "realizability", *budget, "--out", str(rep)])
        assert main(["replay", str(tick_spec), str(rep)]) == 0
        rep.write_text(json.dumps(forge(json.loads(rep.read_text()))))
        capsys.readouterr()
        assert main(["replay", str(tick_spec), str(rep)]) == 1
        assert "trace INVALID" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "malform",
        [
            lambda doc: {**doc, "init": [{**doc["init"][0], "ts": "x"}] + doc["init"][1:]},
            lambda doc: {**doc, "init": ["Time"] + doc["init"][1:]},
            lambda doc: {**doc, "trace": {"steps": doc["trace"]}},
            lambda doc: [doc],
        ],
        ids=["ts-not-a-number", "init-entry-a-string", "trace-an-object", "top-level-array"],
    )
    def test_malformed_report_exits_3(self, tmp_path, capsys, malform):
        spec, rep, doc = self._counterexample(tmp_path)
        rep.write_text(json.dumps(malform(doc)))
        capsys.readouterr()
        assert main(["replay", str(spec), str(rep)]) == 3
        assert "input error" in capsys.readouterr().err


COUNTER = (
    "tmsr-spec 1\npred N : Nat\n"
    'rule "inc": Time@T, N(X)@T1 -> Time@T, N(s(X))@(T+1)\n'
    "init: Time@0, N(0)@0\n"
    'critical "three": { N(3)@T }\n'
    "params: k=8\n"
)


def forge_term(doc, **fields):
    """``doc`` with the first substitution term's fields replaced."""
    doc = json.loads(json.dumps(doc))
    doc["trace"][0]["subst"]["terms"][0].update(fields)
    return doc


class TestReportFields:
    """A report's mode, outcome, tick budget and substitution terms are
    checked: real reports, which replay, with one field forged."""

    @pytest.fixture(scope="class")
    def realizability_report(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("free")
        spec = tmp / "free.spec"
        main(["gen", "drone", "--drones", "2", "--recency", "8", "--strategy", "free",
              "--out", str(spec)])
        rep = tmp / "real.json"
        assert main(["verify", str(spec), "--mode", "realizability", "--out", str(rep)]) == 0
        assert main(["replay", str(spec), str(rep)]) == 0
        return spec, json.loads(rep.read_text())

    @pytest.mark.parametrize(
        "field, value, code, says",
        [
            ("mode", "bogus", 3, "input error: unknown mode 'bogus'"),
            ("outcome", "bogus", 3, "input error: unknown outcome 'bogus'"),
            ("outcome", "unknown", 2, "report is undecided: nothing to certify"),
        ],
        ids=["mode-bogus", "outcome-bogus", "outcome-unknown"],
    )
    def test_forged_field(self, realizability_report, tmp_path, capsys, field, value, code, says):
        spec, doc = realizability_report
        rep = tmp_path / "forged.json"
        rep.write_text(json.dumps({**doc, field: value}))
        capsys.readouterr()
        assert main(["replay", str(spec), str(rep)]) == code
        out, err = capsys.readouterr()
        assert says in out + err
        assert "trace validates" not in out

    @pytest.fixture(scope="class")
    def counter_reports(self, tmp_path_factory):
        """A counter that reaches 3 after its second clock advance:
        survivability holds within 2 ticks and fails unbounded."""
        tmp = tmp_path_factory.mktemp("counter")
        spec = tmp / "counter.spec"
        spec.write_text(COUNTER)
        docs = {}
        for name, budget, code in [("bounded", ["--ticks", "2"], 0), ("unbounded", [], 1)]:
            rep = tmp / f"{name}.json"
            argv = ["verify", str(spec), "--mode", "survivability", *budget, "--out", str(rep)]
            assert main(argv) == code
            assert main(["replay", str(spec), str(rep)]) == 0
            docs[name] = json.loads(rep.read_text())
        return spec, docs

    def test_counterexample_past_the_tick_budget_is_invalid(
        self, counter_reports, tmp_path, capsys
    ):
        # The bounded search expands no node after the n-th clock advance,
        # so the unbounded counterexample, whose last step follows its
        # second, is no counterexample within 2 ticks; within 3 it is.
        spec, docs = counter_reports
        doc = docs["unbounded"]
        assert [s["label"] for s in doc["trace"]] == ["inc", "tick", "inc", "tick", "inc"]
        rep = tmp_path / "forged.json"
        rep.write_text(json.dumps({**doc, "mode": "bounded-survivability", "ticks": 2}))
        capsys.readouterr()
        assert main(["replay", str(spec), str(rep)]) == 1
        assert capsys.readouterr().out == (
            "trace INVALID at step 4: step after the last of 2 clock advances\n"
        )
        rep.write_text(json.dumps({**doc, "mode": "bounded-survivability", "ticks": 3}))
        assert main(["replay", str(spec), str(rep)]) == 0

    @pytest.mark.parametrize(
        "forge, says",
        [
            (
                lambda docs: {k: v for k, v in docs["bounded"].items() if k != "ticks"},
                "the bounded-survivability report has no field 'ticks'",
            ),
            (
                lambda docs: {
                    **docs["bounded"], "mode": "bounded-realizability", "ticks": 0, "trace": []
                },
                "tick budget 0 is below 1",
            ),
            (
                lambda docs: {**docs["unbounded"], "ticks": 2},
                "the survivability report has a tick budget",
            ),
            (lambda docs: forge_term(docs["bounded"], term="Y"), "term is not ground"),
            (
                lambda docs: forge_term(docs["bounded"], term="Y", sort="Bogus"),
                "undeclared sort 'Bogus'",
            ),
        ],
        ids=[
            "bounded-holds-without-ticks", "ticks-0-empty-trace", "unbounded-with-ticks",
            "term-a-variable", "term-of-an-undeclared-sort",
        ],
    )
    def test_forged_budget_or_term(self, counter_reports, tmp_path, capsys, forge, says):
        spec, docs = counter_reports
        rep = tmp_path / "forged.json"
        rep.write_text(json.dumps(forge(docs)))
        capsys.readouterr()
        assert main(["replay", str(spec), str(rep)]) == 3
        out, err = capsys.readouterr()
        assert says in err
        assert "trace validates" not in out


class TestMalformedInvocations:
    MACHINES = {"array.json": "[1, 2]", "no-alphabet.json": '{"states": ["q0"], "space": 2}'}

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "drone", "--points", "1", "--out", "{tmp}/d.spec"],
            ["gen", "drone", "--grid", "2", "--out", "{tmp}/d.spec"],
            ["gen", "drone", "--wind", "1,1", "--out", "{tmp}/d.spec"],
            ["gen", "3sat", "--clauses", "a", "--out", "{tmp}/f.spec"],
            ["gen", "3sat", "--clauses", "", "--out", "{tmp}/f.spec"],
            ["gen", "tm", "--machine", "{tmp}/missing.json", "--out", "{tmp}/t.spec"],
            ["gen", "tm", "--machine", "{tmp}/array.json", "--out", "{tmp}/t.spec"],
            ["gen", "tm", "--machine", "{tmp}/no-alphabet.json", "--out", "{tmp}/t.spec"],
            ["gen", "drone", "--out", "{tmp}/missing/d.spec"],
            ["verify", "{spec}", "--mode", "realizability", "--ticks", "abc"],
            ["verify", "{spec}", "--mode", "realizability", "--out", "{tmp}/missing/r.json"],
        ],
        ids=[
            "points", "grid", "wind", "clauses-not-int", "clauses-empty",
            "machine-missing", "machine-array", "machine-without-alphabet",
            "gen-out-missing-dir", "ticks-not-int", "verify-out-missing-dir",
        ],
    )
    def test_exits_3_with_one_line(self, tick_spec, tmp_path, capsys, argv):
        for name, text in self.MACHINES.items():
            (tmp_path / name).write_text(text)
        argv = [a.format(tmp=tmp_path, spec=tick_spec) for a in argv]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "machine",
        [
            # The space makes the spec unreadable: "trailing input '0'".
            {"states": ["q 0", "qa"], "start": "q 0",
             "instructions": [["q 0", "0", "qa", "1", "R"]]},
            # (a_b, c) and (a, b_c) would both compile to "a_b_c".
            {"states": ["a", "a_b", "qa"], "alphabet": ["c", "b_c"],
             "instructions": [["a_b", "c", "qa", "c", "N"], ["a", "b_c", "qa", "c", "N"]]},
            # Its halting pattern would name an undeclared predicate.
            {"states": ["q0"], "instructions": [["q0", "0", "q0", "1", "R"]]},
        ],
        ids=["space-in-state", "underscored-names-collide", "final-state-not-a-state"],
    )
    def test_gen_tm_rejects_unreadable_machines(self, tmp_path, capsys, machine):
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps({"final": ["qa"], "alphabet": ["0", "1"], "space": 1} | machine)
        )
        out = tmp_path / "t.spec"
        assert main(["gen", "tm", "--machine", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_gen_tm_rejects_duplicate_instructions(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps(
                {
                    "states": ["q0", "qa"], "final": ["qa"], "alphabet": ["0", "1"],
                    "space": 1,
                    "instructions": [["q0", "0", "qa", "1", "R"], ["q0", "0", "q0", "0", "N"]],
                }
            )
        )
        out = tmp_path / "t.spec"
        assert main(["gen", "tm", "--machine", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: {path}: two instructions for state 'q0' reading '0'\n"
        assert not out.exists()

    def test_out_below_a_regular_file_is_not_a_directory(self, tick_spec, capsys):
        out = f"{tick_spec}/r.json"
        argv = ["verify", str(tick_spec), "--mode", "realizability", "--out", out]
        assert main(argv) == 3
        err = capsys.readouterr().err
        reason = f"[Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}"
        assert err == f"error: cannot write {out}: {reason}: '{out}'\n"

    def test_verify_checks_out_before_searching(self, tick_spec, tmp_path, capsys, monkeypatch):
        def no_search(*args):
            raise AssertionError("a decision procedure ran")

        monkeypatch.setattr("tmsr.cli.realizability", no_search)
        out = tmp_path / "missing" / "r.json"
        argv = ["verify", str(tick_spec), "--mode", "realizability", "--out", str(out)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
        assert not out.parent.exists()

    @pytest.mark.parametrize(
        "argv", [["verify", "x.spec"], ["bogus"], ["gen", "drone"]], ids=str
    )
    def test_usage_errors_exit_3(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        assert "error:" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0


def _in_a_fresh_process(argv):
    """(exit code, stdout, stderr) of ``tmsr`` run in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tmsr.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "tmsr.cli", *argv], capture_output=True, text=True, env=env
    )
    return done.returncode, done.stdout, done.stderr


def _untimed(result):
    return tuple(
        re.sub(r'"elapsed_ms": [0-9.]+', '"elapsed_ms": 0', str(part)) for part in result
    )


class TestOneParserPerProcess:
    """``main`` builds its argument parser once and reuses it: one call
    leaves nothing behind that another call sees."""

    def test_calls_behave_as_in_a_fresh_process(self, tick_spec, capsys, monkeypatch):
        built = []
        build_parser = tmsr.cli.build_parser

        def counting_build_parser():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(tmsr.cli, "_parser", None)
        monkeypatch.setattr(tmsr.cli, "build_parser", counting_build_parser)
        usage = ["verify", str(tick_spec)]
        valid = ["verify", str(tick_spec), "--mode", "realizability"]
        with pytest.raises(SystemExit) as exc:
            main(usage)
        in_process = [(exc.value.code, *capsys.readouterr())]
        in_process.append((main(valid), *capsys.readouterr()))
        assert in_process[0][0] == 3 and "error:" in in_process[0][2]
        assert in_process[1][0] == 0 and '"outcome": "holds"' in in_process[1][1]
        assert [_untimed(r) for r in in_process] == [
            _untimed(_in_a_fresh_process(argv)) for argv in (usage, valid)
        ]
        assert len(built) == 1

    def test_same_rules_under_another_sort_give_their_own_diagnostic(self, tmp_path, capsys):
        # Only the constant's declared sort differs between the two specs.
        text = (
            "tmsr-spec 1\nsort Id\nsort Zone\nconst p1 : Id\npred Q : Id\n"
            'rule "m": Time@T, Q(p1)@T1 -> Time@T, Q(p1)@(T+1)\n'
            "init: Time@0, Q(p1)@0\n"
        )
        first, second = tmp_path / "first.spec", tmp_path / "second.spec"
        first.write_text(text)
        second.write_text(text.replace("const p1 : Id", "const p1 : Zone"))
        for _ in range(2):
            assert main(["check", str(first)]) == 0
            assert "progressive: yes" in capsys.readouterr().out
            assert main(["check", str(second)]) == 3
            assert capsys.readouterr().err == (
                "input error: 6:21: [sort] constant 'p1' has sort 'Zone', expected 'Id'\n"
            )
