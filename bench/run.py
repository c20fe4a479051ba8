"""Time to verdict for the tmsr verifier, end to end and per layer.

Usage, from the repository root:

    python3 bench/run.py --workload drone-free --seed 1 --seconds 35 --trace 0

Each item is a spec text generated from the seed (see ``workloads.py``).
An item counts as done when it has gone from spec text to a verdict, a
JSON report and a replay that certifies the report. Every verdict is
checked against a known answer; an item is an error when its verdict is
wrong or ``unknown``, it raises, its replay fails, or it moves
``tmsr.search.invariant_counters``.

The run is closed-loop, one process and one thread: items run one after
another in rounds, each round holding every drawn item once, until the
next round would end further from ``--seconds`` than the last one did.
Whole rounds keep the mix of items the same in every run.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of
several set-ups, each a fresh import of tmsr plus generating every spec
text), ``items_per_s`` (items per second of the whole timed phase),
``verdict_p50_ms`` (median item time) and ``peak_rss_mb`` (the process's
``ru_maxrss``). The lines above the result also give ``error_rate`` and,
with at least 100 items, ``verdict_p90_ms``. ``--trace 1`` alternates
untraced and traced rounds over the same items, prints the per-layer
metrics and the tracing overhead, and writes the spans to
``bench/.traces/``. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import workloads
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = {
    "drone-free": (workloads.draw_drone_free, "in-process"),
    "sat-sweep": (workloads.draw_sat_sweep, "in-process"),
    "drone-greedy-cli": (workloads.draw_drone_greedy, "cli"),
}

# Set-up is repeated and its median reported, since one import and
# generation pass is short enough for machine noise to dominate it.
SETUP_REPEATS = 11


def import_tmsr():
    """A fresh import of every tmsr module, as a new process would do it."""
    for name in [n for n in sys.modules if n == "tmsr" or n.startswith("tmsr.")]:
        del sys.modules[name]
    cli = importlib.import_module("tmsr.cli")
    return SimpleNamespace(
        tmsr=sys.modules["tmsr"],
        cli=cli,
        rules=sys.modules["tmsr.rules"],
        search=sys.modules["tmsr.search"],
        specfile=sys.modules["tmsr.specfile"],
        reports=sys.modules["tmsr.reports"],
        scenarios=sys.modules["tmsr.scenarios"],
    )


def set_up(items):
    """Import tmsr and generate every item's spec text; returns the modules,
    the texts and the median set-up time in seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        m = import_tmsr()
        texts = [workloads.generate(m, item) for item in items]
        times.append(perf_counter() - start)
    # Drop the modules of the earlier imports before anything is measured.
    gc.collect()
    origin = Path(m.tmsr.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"imported tmsr from {origin}, not from {SRC}")
    return m, texts, statistics.median(times)


class Runner:
    """Runs items, times each one and checks its answer."""

    def __init__(self, m, items, texts, mode, workdir):
        self.m = m
        self.items = items
        self.attempted = 0
        self.errors = []
        if mode == "cli":
            self.args = []
            for i, text in enumerate(texts):
                spec_path = os.path.join(workdir, f"item{i}.tmsr")
                with open(spec_path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                self.args.append((spec_path, os.path.join(workdir, f"item{i}.json")))
            self.run, self.check = workloads.run_cli, workloads.check_cli
        else:
            self.args = [(text,) for text in texts]
            self.run, self.check = workloads.run_in_process, workloads.check_in_process

    def round(self, tracer=None) -> list[float]:
        """One pass over every item; returns the item times in seconds."""
        times = []
        counters = self.m.search.invariant_counters
        for i, item in enumerate(self.items):
            self.attempted += 1
            if tracer is not None:
                tracer.item = self.attempted
            before = dict(counters)
            start = perf_counter()
            try:
                try:
                    result = self.run(self.m, item, *self.args[i])
                finally:
                    times.append(perf_counter() - start)
                problem = self.check(item, result)
            except Exception:
                problem = traceback.format_exc()
            if counters != before:
                problem = f"invariant counters moved: {before} -> {dict(counters)}"
            if problem is not None:
                self.errors.append(f"{item.label}: {problem}")
        return times


def timed_rounds(seconds, one_round):
    """Run ``one_round`` at least once, then again while the phase would end
    nearer to ``seconds`` than it does now; returns each round's wall time."""
    rounds = []
    while True:
        start = perf_counter()
        one_round()
        rounds.append(perf_counter() - start)
        elapsed = sum(rounds)
        if elapsed + elapsed / len(rounds) / 2 >= seconds:
            return rounds


def end_to_end(runner, seconds, setup_s):
    times = []
    rounds = timed_rounds(seconds, lambda: times.extend(runner.round()))
    ms = [t * 1000.0 for t in times]
    metrics = {
        "setup_s": (setup_s, "s"),
        # Whole rounds keep the item mix the same in every run; the whole
        # phase averages the machine's speed over the run.
        "items_per_s": (len(times) / sum(rounds), "1/s"),
        "verdict_p50_ms": (statistics.median(ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # p90 is given only with at least ten samples beyond it; the drone
    # workloads have too few items for that.
    extra = {
        "verdict_p90_ms": (statistics.quantiles(ms, n=10)[8] if len(ms) >= 100 else None, "ms"),
        "verdict_samples": (len(ms), "count"),
    }
    return metrics, extra


def per_layer(runner, seconds, spans_path):
    """Alternate untraced and traced rounds; the traced ones give the layer
    metrics, the pair gives the overhead."""
    m = runner.m
    tracer = Tracer()
    tracer.install(m)
    try:
        for item in runner.items:
            workloads.generate(m, item)
    finally:
        tracer.uninstall()

    plain, traced = [], []

    def pair():
        plain.extend(runner.round())
        tracer.install(m)
        try:
            traced.extend(runner.round(tracer))
        finally:
            tracer.uninstall()

    timed_rounds(seconds, pair)
    metrics, notes = tracer.layer_metrics(len(traced))
    metrics["trace.overhead_pct"] = ((sum(traced) / sum(plain) - 1.0) * 100.0, "%")
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write(spans_path)
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--items", type=int, default=None,
        help="run only the first N drawn items per round (smoke runs)",
    )
    args = parser.parse_args(argv)

    if not (SRC / "tmsr" / "__init__.py").is_file():
        print(f"no tmsr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    draw, mode = WORKLOADS[args.workload]
    items = draw(args.seed)[: args.items]
    m, texts, setup_s = set_up(items)
    digest = hashlib.sha256("\0".join(texts).encode()).hexdigest()

    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as workdir:
        runner = Runner(m, items, texts, mode, workdir)
        if args.trace:
            spans_path = BENCH_DIR / ".traces" / f"{args.workload}-seed{args.seed}.tsv.gz"
            metrics, notes = per_layer(runner, args.seconds, spans_path)
            extra = {}
        else:
            notes = {}
            metrics, extra = end_to_end(runner, args.seconds, setup_s)
    extra["error_rate"] = (len(runner.errors) / runner.attempted, "share")

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs_sha256": digest,
        "items_per_round": len(items),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "expected": sorted({(i.expected, i.reason) for i in items}),
        **notes,
    }
    for error in runner.errors:
        print(f"ERROR {error}", file=sys.stderr)
    print("# " + json.dumps(info))
    for name, (value, unit) in {**metrics, **extra}.items():
        shown = "n/a" if value is None else f"{value:.6f}".rstrip("0").rstrip(".")
        print(f"{name:28s} {shown:>18s} {unit}")
    result = {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": len(runner.errors),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
