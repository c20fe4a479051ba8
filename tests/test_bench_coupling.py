"""The benchmark's tracer wraps tmsr functions by name, where the program
looks them up (``bench/tracing.py``), and its workloads call the scenario
generators with keywords (``bench/workloads.py``). The benchmark is not
part of this suite, so these tests pin every name it wraps and every
keyword it passes: renaming or deleting one would otherwise break only
``bench/run.py``."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import tmsr.cli  # noqa: F401  (imports every module the namespace holds)
from tmsr import parse_spec

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_bench("tracing")


def tmsr_namespace() -> SimpleNamespace:
    """The modules ``bench/run.py``'s ``import_tmsr`` hands to the tracer,
    taken from this process's imports instead of a fresh import, so that
    other tests keep their classes."""
    return SimpleNamespace(
        tmsr=sys.modules["tmsr"],
        cli=sys.modules["tmsr.cli"],
        rules=sys.modules["tmsr.rules"],
        search=sys.modules["tmsr.search"],
        specfile=sys.modules["tmsr.specfile"],
        reports=sys.modules["tmsr.reports"],
        scenarios=sys.modules["tmsr.scenarios"],
    )


def test_tracer_installs_on_every_name_and_restores_it():
    m = tmsr_namespace()
    tracer = load_tracing().Tracer()
    tracer.install(m)
    try:
        saved = list(tracer._saved)
        assert saved
        for mod, attr, original in saved:
            assert callable(original), f"{mod.__name__}.{attr}"
            assert getattr(mod, attr) is not original, f"{mod.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for mod, attr, original in saved:
        assert getattr(mod, attr) is original, f"{mod.__name__}.{attr}"


def test_unbounded_search_records_the_key_layer():
    """The unbounded searches key their visited sets through
    ``tmsr.search.abstract``, so the tracer's ``delta.abstract`` layer
    sees every key."""
    spec = parse_spec("tmsr-spec 1\ninit: Time@0\nparams: k=1\n")
    m = tmsr_namespace()
    tracer = load_tracing().Tracer()
    tracer.install(m)
    try:
        m.search.survivability(spec.system, spec.init, spec.critical)
    finally:
        tracer.uninstall()
    assert any(span[0] == "delta.abstract" for span in tracer.spans)


def test_drone_workloads_generate_their_specs():
    """Every drone item of the benchmark's draws goes through its own
    ``generate``, with the ``DroneParams`` keywords the item holds."""
    workloads = load_bench("workloads")
    m = tmsr_namespace()
    items = workloads.draw_drone_free(0) + workloads.draw_drone_greedy(0)
    assert len(items) == 6
    for item in items:
        spec = parse_spec(workloads.generate(m, item))
        assert spec.system.rules, item.label
