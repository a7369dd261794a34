"""The benchmark tracer wraps holoseq functions by (module, attribute) and
skips a target that no longer exists, so a renamed or removed function
would silently read 0 in its layer metrics.  Every target must resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("holoseq_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_tracer_target_exists():
    targets = _targets()
    assert targets
    missing = [f"{mod}.{attr}" for mod, attr, _ in targets
               if not callable(getattr(importlib.import_module("holoseq." + mod),
                                       attr, None))]
    assert missing == []
