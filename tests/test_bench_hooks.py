"""The traced benchmark wraps engine and stage functions by name; a refactor
that renamed or re-shaped one would silently drop that layer's metrics."""

import os

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def test_every_bench_trace_hook_resolves(monkeypatch):
    monkeypatch.syspath_prepend(os.path.abspath(BENCH))
    import spans

    undo, missing = spans.install(spans.Tracer())
    try:
        assert missing == set()
        assert len(undo) == len(spans.HOOKS)
    finally:
        spans.uninstall(undo)
