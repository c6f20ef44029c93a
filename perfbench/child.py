"""One benchmark step in a fresh interpreter; prints one JSON line.

    python3 child.py run   ROOT ENTRIES THREADS  one run per thread count, e.g. 2,1
    python3 child.py trace ROOT ENTRIES SPANS RING300
                                                 traced runs, spans written to SPANS

ENTRIES is a JSON object of `key = value` config entries, as an sshlab
config file holds them; in `run` mode `{run}` and `{threads}` in its `out`
entry are replaced by each run's position and thread count.  sshlab is
imported from ROOT/src; the parent sets PYTHONPATH so and leaves every
thread setting as the user has it.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np


def resolve_config(root: Path, entries: dict[str, str]):
    from sshlab import cli

    src = (root / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"sshlab imported from {cli.__file__}, not from {src}")
    parsed = cli.parse_config_entries(entries)
    cfg = replace(cli.default_config(parsed.pop("experiment")), **parsed)
    cfg.validate()
    return cli, cfg


def blas_info() -> dict:
    """OpenBLAS build and thread count as the numpy in use reports them."""
    import ctypes

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libdir.glob("libscipy_openblas*.so")):
        lib = ctypes.CDLL(str(lib_path))
        get_threads = lib.scipy_openblas_get_num_threads64_
        get_threads.restype = ctypes.c_int
        get_config = lib.scipy_openblas_get_config64_
        get_config.restype = ctypes.c_char_p
        return {"blas_threads": get_threads(), "blas_config": get_config().decode()}
    return {"blas_threads": None, "blas_config": "unknown"}


def run_once(cli, cfg) -> dict:
    start = time.perf_counter()
    cli.run_experiment(cfg)
    run_s = time.perf_counter() - start
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"run_s": run_s, "rss_self_kb": self_kb, "rss_workers_kb": workers_kb}


def forked(fn, *args) -> dict:
    """fn(*args) in a forked copy of this process, which exits after it.

    Each run starts from the state right after set-up, as in a fresh
    interpreter, and nothing a run caches or allocates outlives it.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 0
        try:
            out = fn(*args)
        except BaseException as exc:  # reported to the parent, which counts the run as failed
            out, code = {"error": f"{type(exc).__name__}: {exc}"}, 1
        with os.fdopen(write_fd, "w") as pipe:
            pipe.write(json.dumps(out))
        os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        text = pipe.read()
    _, status = os.waitpid(pid, 0)
    if not text:
        return {"error": f"run process ended with status {status} and no result"}
    return json.loads(text)


def runs(root: Path, entries: dict[str, str], threads: list[int]) -> dict:
    cli, cfg = resolve_config(root, entries)
    # time.monotonic is system-wide, so the parent can subtract its spawn time
    ready = time.monotonic()
    results = [
        forked(run_once, cli, replace(cfg, threads=t, out=cfg.out.format(run=i, threads=t)))
        for i, t in enumerate(threads)
    ]
    return {"ready": ready, "runs": results, **blas_info()}


def _profile(v_minus: np.ndarray, v_plus: np.ndarray) -> np.ndarray:
    """Per-dimer midgap weight normalized to 2, as the profile estimator defines it."""
    per_site = v_minus**2 + v_plus**2
    per_dimer = per_site[0::2] + per_site[1::2]
    return per_dimer * (2.0 / per_dimer.sum())


def replay_errors(tracer, data_path: Path) -> list[str]:
    """Reduce the traced per-realization results and compare with the data file.

    Each estimator call is reduced from the leaf results recorded under its
    span, in index order, and the sampled (seed, index) keys must be exactly
    the estimator's realizations.  An estimator whose leaf functions were not
    called (nothing to replay) is skipped.
    """
    from check import DataFile

    labels, spans, results = tracer.labels, tracer.spans, tracer.results
    kids = tracer.children()
    reduced: dict[str, list] = defaultdict(list)
    errors = []
    for sid, span in enumerate(spans):
        est = results.get(sid) if labels[span[0]] == "ensemble.estimate" else None
        if est is None:
            continue
        leaf = defaultdict(list)
        for c in kids.get(sid, ()):
            leaf[labels[spans[c][0]]].append(results.get(c))
        keys = leaf["ensemble.sample_realization"]
        expected = [(est.master_seed, i) for i in range(est.n_realizations + est.n_excluded)]
        if keys and keys != expected:
            errors.append(f"{est.quantity}: sampled keys differ from the estimator's realizations")
        gaps = leaf["spectrum.eigenvalues_dense"] + leaf["spectrum.eigenvalues_tridiagonal"]
        if est.quantity == "mean_nu" and leaf["invariant.winding_closed_form"]:
            kept = [v for v in leaf["invariant.winding_closed_form"] if v is not None]
            reduced["mean_nu"].append(float(np.array(kept, dtype=float).mean()))
        elif est.quantity == "mean_gap" and gaps:
            reduced["mean_gap"].append(float(np.array(gaps).mean()))
        elif est.quantity == "wavefunction_profile" and leaf["spectrum.midgap_pair"]:
            profiles = [_profile(*pair) for pair in leaf["spectrum.midgap_pair"]]
            reduced["wavefunction_profile"].append(np.array(profiles).mean(axis=0))
    df = DataFile(data_path)
    nu_col = "mc_mean_nu" if "mc_mean_nu" in df.columns else "mean_nu"
    psi_cols = [i for i, c in enumerate(df.columns) if c.startswith("psi2_")]
    file_values = {
        "mean_nu": list(df.col(nu_col)) if nu_col in df.columns else [],
        "mean_gap": list(df.col("mean_gap")) if "mean_gap" in df.columns else [],
        "wavefunction_profile": list(df.rows[:, psi_cols]),
    }
    for quantity, values in reduced.items():
        ref = file_values[quantity]
        if len(values) != len(ref) or not all(np.array_equal(a, b) for a, b in zip(values, ref)):
            errors.append(f"replayed {quantity} differs from the data file")
    return errors


def trace(root: Path, entries: dict[str, str], spans_path: Path, ring300: dict[str, str]) -> dict:
    from spans import LAYERS, TOP_LAYERS, Tracer

    cli, cfg = resolve_config(root, entries)
    serial = Tracer()
    with serial:
        start = time.perf_counter()
        data_path = cli.run_experiment(replace(cfg, threads=1))
        traced_wall = time.perf_counter() - start
    pooled = Tracer(TOP_LAYERS)
    with pooled:
        cli.run_experiment(replace(cfg, threads=2, out=cfg.out.replace(".csv", "-t2.csv")))
    # one more threads=2 run with the RING300 entries changed, if any
    big = Tracer(TOP_LAYERS)
    if ring300:
        with big:
            big_cfg = replace(cfg, threads=2, out=cfg.out.replace(".csv", "-ring300.csv"))
            cli.run_experiment(replace(big_cfg, **cli.parse_config_entries(ring300)))

    self_s, calls = serial.self_times()
    metrics: dict[str, float] = {}
    for label in LAYERS:
        if label == "ensemble.estimate":
            metrics["ensemble.estimate_s"] = pooled.self_times()[0][label]
            metrics["ensemble.estimate_1t_s"] = self_s[label]
            metrics["ensemble.estimate_calls"] = calls[label]
            metrics["ensemble.estimate_ring300_s"] = big.self_times()[0][label]
        elif label == "cli.run_experiment":
            metrics["cli.run_experiment_s"] = self_s[label]
            metrics["cli.out_bytes"] = data_path.stat().st_size
        else:
            metrics[f"{label}_s"] = self_s[label]
            metrics[f"{label}_calls"] = calls[label]
    for name in ("spectrum.midgap_warnings", "invariant.critical_excluded"):
        metrics[name] = serial.counters.get(name, 0)
    errors = replay_errors(serial, data_path)
    serial.dump(spans_path, pooled_run={"labels": pooled.labels, "spans": pooled.spans})
    return {"traced_wall_s": traced_wall, "metrics": metrics, "errors": errors}


def main(argv: list[str]) -> int:
    mode, root, entries = argv[0], Path(argv[1]), json.loads(argv[2])
    if mode == "run":
        out = runs(root, entries, [int(t) for t in argv[3].split(",")])
    elif mode == "trace":
        out = trace(root, entries, Path(argv[3]), json.loads(argv[4]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
