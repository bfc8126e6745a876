"""The benchmark's tracer wraps package functions by name from outside
the package; a renamed or deleted target would break only traced
benchmark runs, so the targets are checked here."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _resolve(target):
    owner = importlib.import_module(f"outerspace.{target.module}")
    for name in target.attr.split("."):
        owner = getattr(owner, name)
    return owner


def test_tracer_installs_and_removes_every_target(monkeypatch):
    tracer_mod = _load_tracer(monkeypatch)
    originals = [_resolve(t) for t in tracer_mod.TARGETS]
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for target, original in zip(tracer_mod.TARGETS, originals):
            wrapped = _resolve(target)
            assert wrapped is not original, target.metric
            assert wrapped.__wrapped__ is original, target.metric
        from outerspace import stallings
        stallings.fold_labeled_graph([(0, 0, (1, 2, -1))], 0)
        assert tracer.stats["stallings.fold_labeled_graph"].calls == 1
    finally:
        tracer.remove()
    assert [_resolve(t) for t in tracer_mod.TARGETS] == originals
