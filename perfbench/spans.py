"""In-memory span recorder around the public functions of sshlab's layers.

`Tracer.install` replaces each listed function, in every loaded sshlab
module that holds it, by a wrapper that records one span per call: label,
start, end and parent span.  `uninstall` puts the originals back.  Spans stay
in memory until `dump` writes them.  Only calls made in this process are
seen, so a traced run with a process pool records no worker-side spans.
"""

from __future__ import annotations

import json
import sys
import time
import warnings
from collections import defaultdict

# label -> (module, function names); every estimator shares one label
LAYERS = {
    "cli.run_experiment": ("cli", ("run_experiment",)),
    "ensemble.estimate": (
        "ensemble",
        ("estimate_mean_nu", "estimate_mean_gap", "estimate_wavefunction_profile", "estimate_eta_moments"),
    ),
    "ensemble.sample_realization": ("ensemble", ("sample_realization",)),
    "model.build_chain": ("model", ("build_chain",)),
    "spectrum.eigenvalues_dense": ("spectrum", ("eigenvalues_dense",)),
    "spectrum.eigenvalues_tridiagonal": ("spectrum", ("eigenvalues_tridiagonal",)),
    "spectrum.midgap_pair": ("spectrum", ("midgap_pair",)),
    "invariant.winding_closed_form": ("invariant", ("winding_closed_form",)),
    "analytic.mean_nu_analytic": ("analytic", ("mean_nu_analytic",)),
}
# layers whose calls all happen in the parent process of a pooled run
TOP_LAYERS = ("cli.run_experiment", "ensemble.estimate", "analytic.mean_nu_analytic")


def _keep_result(label: str, result):
    """The part of a call's result the replay reductions need, if any."""
    if label == "ensemble.sample_realization":
        return (result.master_seed, result.index)
    if label in ("spectrum.eigenvalues_dense", "spectrum.eigenvalues_tridiagonal"):
        return result.gap
    if label in ("spectrum.midgap_pair", "invariant.winding_closed_form", "ensemble.estimate"):
        return result
    return None


class Tracer:
    def __init__(self, labels=tuple(LAYERS)):
        self.labels = list(labels)
        self.spans: list[list] = []  # [label index, start, end, parent span or -1]
        self.results: dict[int, object] = {}
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, label: str, fn):
        code = self.labels.index(label)
        spans, stack, results, counters = self.spans, self._stack, self.results, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            span = [code, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(sid)
            span[1] = clock()
            try:
                if label == "spectrum.midgap_pair":
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                    counters["spectrum.midgap_warnings"] += len(caught)
                else:
                    result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "CriticalRealizationError":
                    counters["invariant.critical_excluded"] += 1
                    results[sid] = None
                raise
            finally:
                span[2] = clock()
                stack.pop()
            kept = _keep_result(label, result)
            if kept is not None:
                results[sid] = kept
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "sshlab" and m]
        for label in self.labels:
            mod_name, fn_names = LAYERS[label]
            home = sys.modules[f"sshlab.{mod_name}"]
            for fn_name in fn_names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(label, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def children(self) -> dict[int, list[int]]:
        """Direct child span ids of every span that has any."""
        kids: dict[int, list[int]] = defaultdict(list)
        for sid, span in enumerate(self.spans):
            if span[3] >= 0:
                kids[span[3]].append(sid)
        return kids

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per label: self time summed over calls, and the call count."""
        child_time = [0.0] * len(self.spans)
        for code, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total: dict[str, float] = {label: 0.0 for label in self.labels}
        calls: dict[str, int] = {label: 0 for label in self.labels}
        for (code, start, end, _), inner in zip(self.spans, child_time):
            label = self.labels[code]
            total[label] += end - start - inner
            calls[label] += 1
        return total, calls

    def dump(self, path, **extra) -> None:
        doc = {"labels": self.labels, "spans": self.spans, "counters": dict(self.counters), **extra}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
