"""The benchmark's traced layers name functions that exist in sshlab.

perfbench/spans.py looks each (module, function) of its LAYERS table up with
getattr when a traced round starts, so a name removed from sshlab would fail
every traced round; this test fails first.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_layer_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LAYERS
    missing = [
        f"{module}.{name}"
        for module, names in spans.LAYERS.values()
        for name in names
        if not callable(getattr(importlib.import_module(f"sshlab.{module}"), name, None))
    ]
    assert missing == []
