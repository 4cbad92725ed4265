"""The benchmark's per-layer trace hooks, `perfbench/layers.py`.

The hooks patch wrappers onto library names that they look up by name, so
deleting one of those names breaks `perfbench/run.py --trace 1`.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_hook_resolves_and_is_restored(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ in perfbench/
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import layers
        from tracer import Tracer

        import netsig.engine
        import netsig.sampling
        from netsig._bitgraph import BitGraph

        tracer = Tracer()
        with tracer:
            layers.install(tracer, hot=True)
            patches = list(tracer._patches)
            for owner, attr, original in patches:
                assert getattr(owner, attr) is not original, (owner, attr)
        for owner, attr, original in patches:
            assert getattr(owner, attr) is original, (owner, attr)
        patched = {(owner, attr) for owner, attr, _ in patches}
        assert {
            (netsig.sampling, "random_order"),
            (netsig.sampling, "_order_m"),
            (netsig.engine, "iter_base_partitions"),
            (BitGraph, "min_subset_size"),
            (BitGraph, "connected"),
        } <= patched
    finally:
        for name in ("layers", "tracer"):
            sys.modules.pop(name, None)
