"""Per-layer spans and counters, recorded from outside the program.

The ``tmsr`` modules bind their dependencies with ``from ... import``,
so a function is wrapped in every module that looks it up: for example
``tmsr.search.enabled`` (what the searches call) and ``tmsr.cli.parse_spec``
(what the CLI calls), not the defining module. The program itself is
unchanged. Each span records its name, start, end, parent span and item
id; spans stay in memory until the run ends.
"""

from __future__ import annotations

import gzip
import math
import statistics
from collections import Counter, defaultdict
from time import perf_counter

PROCEDURES = (
    "realizability",
    "survivability",
    "bounded_realizability",
    "bounded_survivability",
)
PROC_SPANS = frozenset(f"search.{p}" for p in PROCEDURES)
REAL_SPANS = frozenset(("search.realizability", "search.bounded_realizability"))


class Tracer:
    def __init__(self) -> None:
        # Span: (name, start, end, parent index or -1, item id).
        self.spans: list = []
        # Span index -> facts taken from the call's result.
        self.info: dict[int, tuple] = {}
        self.counts: Counter = Counter()
        self.item = None
        self._stack: list[int] = []
        self._open_procedures = 0
        self._saved: list = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, on_result=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.item)
            if on_result is not None:
                self.info[sid] = on_result(result)
            return result

        return wrapper

    def _procedure(self, name, fn):
        inner = self._span(name, fn, _verdict_info)

        def wrapper(*args, **kwargs):
            self._open_procedures += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self._open_procedures -= 1

        return wrapper

    def _count_match(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts["match_attempts"] += 1
            if result:
                counts["match_hits"] += 1
            return result

        return wrapper

    def _count_tick(self, fn):
        def wrapper(*args, **kwargs):
            if self._open_procedures:
                self.counts["decide_ticks"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, m) -> None:
        """Replace the looked-up names on the modules held by ``m``."""
        plan = [
            (m.scenarios, "gen_drone", "scenarios.gen"),
            (m.scenarios, "gen_3sat", "scenarios.gen"),
            (m.specfile, "print_spec", "specfile.print"),
            (m.specfile, "parse_spec", "specfile.parse"),
            (m.cli, "parse_spec", "specfile.parse"),
            (m.search, "check_progressive", "rules.classify"),
            (m.search, "compute_dmax", "rules.classify"),
            (m.search, "enabled", "rules.enabled"),
            (m.search, "must_tick", "rules.must_tick"),
            (m.search, "apply_rule", "rules.apply_rule"),
            (m.search, "is_critical", "rules.is_critical"),
            (m.search, "abstract", "delta.abstract"),
            (m.search, "validate_trace", "search.replay"),
            (m.search, "validate_lasso", "search.replay"),
            (m.cli, "validate_trace", "search.replay"),
            (m.cli, "validate_lasso", "search.replay"),
            (m.reports, "parse_report", "reports.parse"),
            (m.cli, "parse_report", "reports.parse"),
            (m.cli, "main", "cli.main"),
        ]
        wrapped = [
            (mod, attr, self._span(name, getattr(mod, attr))) for mod, attr, name in plan
        ]
        for mod in (m.reports, m.cli):
            wrapped.append(
                (mod, "emit_report", self._span("reports.emit", mod.emit_report, len))
            )
        for mod in (m.search, m.cli):
            for proc in PROCEDURES:
                wrapped.append(
                    (mod, proc, self._procedure(f"search.{proc}", getattr(mod, proc)))
                )
        wrapped.append((m.rules, "match_rule", self._count_match(m.rules.match_rule)))
        wrapped.append((m.search, "tick", self._count_tick(m.search.tick)))
        for mod, attr, fn in wrapped:
            self._saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, fn)

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        """All spans as tab-separated lines: item, name, start and end in
        microseconds from the first span, parent index."""
        if not self.spans:
            return
        t0 = self.spans[0][1]
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("item\tname\tstart_us\tend_us\tparent\n")
            for name, start, end, parent, item in self.spans:
                fh.write(
                    f"{item}\t{name}\t{(start - t0) * 1e6:.1f}\t"
                    f"{(end - t0) * 1e6:.1f}\t{parent}\n"
                )

    def layer_metrics(self, items: int) -> tuple[dict, dict]:
        """Per-layer metrics, per traced item unless stated, and notes: the
        split of the decide time into search self time and the layers the
        searches call directly, and the base of the match hit ratio."""
        spans = self.spans
        total = defaultdict(float)
        calls = Counter()
        child_total = defaultdict(float)
        # Layers called directly by a search procedure: time and calls.
        decide_children = defaultdict(float)
        decide_calls = Counter()
        for name, start, end, parent, _ in spans:
            dur = end - start
            total[name] += dur
            calls[name] += 1
            if parent >= 0:
                child_total[parent] += dur
                if spans[parent][0] in PROC_SPANS and name not in PROC_SPANS:
                    decide_children[name] += dur
                    decide_calls[name] += 1

        decide_s = self_s = replay_s = cli_self_s = 0.0
        states = real_states = 0
        peak_frontier = max_depth = 0
        over_l_sigma = []
        for sid, (name, start, end, parent, _) in enumerate(spans):
            parent_name = spans[parent][0] if parent >= 0 else None
            dur = end - start
            if name in PROC_SPANS:
                self_s += dur - child_total[sid]
                n_states, frontier, depth, l_sigma = self.info[sid]
                if name in REAL_SPANS:
                    real_states += n_states
                if parent_name not in PROC_SPANS:
                    decide_s += dur
                    states += n_states
                    peak_frontier = max(peak_frontier, frontier)
                    max_depth = max(max_depth, depth)
                    over_l_sigma.append(math.log10(n_states) - l_sigma)
            elif name == "search.replay" and parent_name != "search.replay":
                replay_s += dur
            elif name == "cli.main":
                cli_self_s += dur - child_total[sid]

        n = max(items, 1)
        enabled_calls = calls["rules.enabled"]
        attempts = self.counts["match_attempts"]
        hits = self.counts["match_hits"]
        # Successors built by the searches: rule applications plus clock
        # advances, against the enabled calls that produced them.
        expansions = decide_calls["rules.apply_rule"] + self.counts["decide_ticks"]
        emitted = [size for sid, size in self.info.items() if spans[sid][0] == "reports.emit"]

        def ms(name):
            return total[name] * 1000.0 / n

        metrics = {
            # One set-up generates every item once.
            "scenarios.gen_ms": (total["scenarios.gen"] * 1000.0, "ms"),
            "specfile.print_ms": (total["specfile.print"] * 1000.0, "ms"),
            "specfile.parse_ms": (ms("specfile.parse"), "ms"),
            "rules.classify_ms": (ms("rules.classify"), "ms"),
            "rules.enabled_calls": (enabled_calls / n, "count"),
            "rules.enabled_ms": (ms("rules.enabled"), "ms"),
            "rules.match_attempts": (attempts / n, "count"),
            "rules.match_hits": (hits / n, "count"),
            "rules.match_hit_ratio": (hits / attempts if attempts else 0.0, "ratio"),
            "rules.must_tick_calls": (calls["rules.must_tick"] / n, "count"),
            "rules.must_tick_ms": (ms("rules.must_tick"), "ms"),
            "rules.apply_rule_calls": (calls["rules.apply_rule"] / n, "count"),
            "rules.apply_rule_ms": (ms("rules.apply_rule"), "ms"),
            "rules.is_critical_calls": (calls["rules.is_critical"] / n, "count"),
            "rules.is_critical_ms": (ms("rules.is_critical"), "ms"),
            "delta.abstract_calls": (calls["delta.abstract"] / n, "count"),
            "delta.abstract_ms": (ms("delta.abstract"), "ms"),
            "search.decide_ms": (decide_s * 1000.0 / n, "ms"),
            "search.self_ms": (self_s * 1000.0 / n, "ms"),
            "search.states": (states / n, "count"),
            "search.real_states": (real_states / n, "count"),
            "search.reach_states": ((states - real_states) / n, "count"),
            "search.states_per_s": (states / decide_s if decide_s else 0.0, "1/s"),
            "search.succ_per_expand": (
                expansions / enabled_calls if enabled_calls else 0.0,
                "ratio",
            ),
            "search.peak_frontier": (peak_frontier, "count"),
            "search.max_depth": (max_depth, "count"),
            "search.states_over_l_sigma": (
                statistics.median(over_l_sigma) if over_l_sigma else 0.0,
                "log10",
            ),
            "search.replay_ms": (replay_s * 1000.0 / n, "ms"),
            "reports.emit_ms": (ms("reports.emit"), "ms"),
            "reports.parse_ms": (ms("reports.parse"), "ms"),
            "reports.report_kb": (
                sum(emitted) / len(emitted) / 1024.0 if emitted else 0.0,
                "KB",
            ),
            "cli.self_ms": (cli_self_s * 1000.0 / n, "ms"),
        }
        parts = {"search.self": self_s, **decide_children}
        notes = {
            "decide_ms": decide_s * 1000.0 / n,
            "decide_split": {
                name: {"ms": dur * 1000.0 / n, "share": dur / decide_s if decide_s else 0.0}
                for name, dur in sorted(parts.items(), key=lambda kv: -kv[1])
            },
            "match_hit_ratio_base": {"attempts": attempts, "traced_items": items},
        }
        return metrics, notes


def _verdict_info(verdict) -> tuple:
    """States, peak frontier, max depth and log10 of the counting bound."""
    stats = verdict.stats
    return (
        stats.states,
        stats.peak_frontier,
        stats.max_depth,
        _log10_decimal(stats.l_sigma_decimal),
    )


def _log10_decimal(text: str) -> float:
    # The bound can exceed the digit limit of int(); its leading digits
    # and length are enough.
    head = text[:17]
    return math.log10(int(head)) + len(text) - len(head)
