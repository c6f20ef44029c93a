#!/usr/bin/env python3
"""Benchmark of sshlab's ensemble experiments, end to end and per layer.

    python3 perfbench/run.py --workload mean-nu --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all      # every workload, both modes

A round starts a fresh interpreter that imports sshlab and resolves the
config (the set-up), then calls sshlab.cli.run_experiment in a forked copy
of itself per run (see child.py).  With --trace 0 a round is one run with
threads=2 and one with threads=1; rounds are started while the next one is
expected to end within --seconds, and the end-to-end metrics are medians
over rounds.  With --trace 1 a round is an untraced threads=1 run followed
by a traced run (spans.py) that gives the per-layer metrics.
Every data file is checked by check.py, which does not use sshlab.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
Nothing here caps BLAS or process threads.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# stop every child past this many seconds, inside the 180 s a run may take
HARD_LIMIT_S = 165.0

# Config entries per workload, as an sshlab config file holds them.  Each is
# a CLI experiment shrunk from paper scale; README.md says why each exists.
WORKLOADS = {
    "mean-nu": {
        "experiment": "mean-nu",
        "n": "100",
        "u": "1.0",
        "w": "0.95",
        "bc": "open",
        "gamma_grid": "0:1.5:30",
        "realizations": "1000",
    },
    "gap-scan": {
        "experiment": "gap-scan",
        # n = 300 (the CLI default) swings threads=2 run times by a factor
        # of 3 on a 2-core box (README.md); 250 is the largest size tried
        # below that regime
        "n": "250",
        "u": "1.0",
        "w": "0.8",
        "bc": "periodic",
        "gamma_grid": "0:0.8:2",
        # at least 4 realizations per call, so the process pool engages
        "realizations": "4",
    },
    "edge-modes": {
        "experiment": "edge-modes",
        "n": "100",
        "u": "1.0",
        "w": "0.95",
        "bc": "open",
        "gamma_grid": "0:1.8:10",
        "realizations": "4",
    },
}

# Entries changed for one more threads=2 run in each traced round.  The
# gap-scan workload uses 250-dimer rings to stay steady; at 300 dimers (the
# CLI default) each pool worker's OpenBLAS threads make threads=2 slower
# than threads=1 (README.md), and ensemble.estimate_ring300_s, a per-layer
# metric with no bound, keeps that cost in view.
RING300 = {"gap-scan": {"n": "300"}}

END_TO_END_UNITS = {"run_s": "s", "run_1t_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "ensemble.sample_realization_s": "s",
    "ensemble.sample_realization_calls": "count",
    "ensemble.estimate_s": "s",
    "ensemble.estimate_1t_s": "s",
    "ensemble.estimate_calls": "count",
    "ensemble.estimate_ring300_s": "s",
    "model.build_chain_s": "s",
    "model.build_chain_calls": "count",
    "spectrum.eigenvalues_dense_s": "s",
    "spectrum.eigenvalues_dense_calls": "count",
    "spectrum.eigenvalues_tridiagonal_s": "s",
    "spectrum.eigenvalues_tridiagonal_calls": "count",
    "spectrum.midgap_pair_s": "s",
    "spectrum.midgap_pair_calls": "count",
    "spectrum.midgap_warnings": "count",
    "invariant.winding_closed_form_s": "s",
    "invariant.winding_closed_form_calls": "count",
    "invariant.critical_excluded": "count",
    "analytic.mean_nu_analytic_s": "s",
    "analytic.mean_nu_analytic_calls": "count",
    "cli.run_experiment_s": "s",
    "cli.out_bytes": "bytes",
    "trace.overhead_s": "s",
}


def expected_config(entries: dict[str, str]) -> dict:
    """The config a data file must embed for these entries."""
    start, stop, count = entries["gamma_grid"].split(":")
    return {
        "experiment": entries["experiment"],
        "n": int(entries["n"]),
        "u": float(entries["u"]),
        "w": float(entries["w"]),
        "bc": entries["bc"],
        "realizations": int(entries["realizations"]),
        "master_seed": int(entries["master_seed"]),
        "gamma_grid": [float(g) for g in np.linspace(float(start), float(stop), int(count))],
    }


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class Children:
    """Runs child.py steps, each in its own process group, killed at the deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")

    def step(self, *args: str) -> tuple[dict | None, float]:
        """(parsed JSON line or None on failure, time.monotonic() at spawn)."""
        cmd = [sys.executable, str(HERE / "child.py"), args[0], str(ROOT), *args[1:]]
        start = time.monotonic()
        proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            log(f"child {args[0]} killed at the time limit")
            return None, start
        if proc.returncode != 0:
            log(f"child {args[0]} failed ({proc.returncode}): {err.strip()[-2000:]}")
            return None, start
        return json.loads(out.strip().splitlines()[-1]), start


class Tally:
    """Operations attempted and failed; one operation is one data row."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.rows = len(expected["gamma_grid"])
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self._verdicts: dict[bytes, list[tuple[bool, str]]] = {}

    def fail(self, rows: int, note: str, incorrect: bool = True) -> None:
        self.failed += rows
        self.correct = self.correct and not incorrect
        log(f"FAIL: {note}")

    def data_file(self, path: Path | None, expected: dict | None = None) -> bytes | None:
        """Check one run's output; returns its bytes when it could be read."""
        expected = expected or self.expected
        rows = len(expected["gamma_grid"])
        self.attempted += rows
        if path is None:
            self.fail(rows, "run raised; no data file", incorrect=False)
            return None
        try:
            raw = path.read_bytes()
            sidecar = json.loads(path.with_name(path.name + ".meta.json").read_text())
            if raw not in self._verdicts:
                self._verdicts[raw] = check.check_file(path, expected)
            verdicts = self._verdicts[raw]
            if sidecar["config"] != check.DataFile(path).config:
                raise ValueError("sidecar config differs from the data header")
        except (OSError, ValueError, KeyError) as exc:
            self.fail(rows, f"{path.name}: {exc}")
            return None
        if len(verdicts) != rows:
            self.fail(rows, f"{path.name}: {len(verdicts)} rows, expected {rows}")
            return raw
        for gamma, (ok, note) in zip(expected["gamma_grid"], verdicts):
            if not ok:
                self.fail(1, f"{path.name} gamma={gamma:.4g}: {note}")
        return raw

    def same_data(self, raws: list[bytes | None], what: str) -> None:
        """Data sections must not depend on the thread count or on tracing."""
        raws = [r for r in raws if r is not None]
        if any(r != raws[0] for r in raws[1:]):
            self.fail(0, f"data files differ between {what}")


def run_rounds(seconds: float, round_fn) -> int:
    """Whole rounds while the next, as long as the mean so far, ends in time."""
    start = time.monotonic()
    rounds = 0
    while True:
        round_fn()
        rounds += 1
        elapsed = time.monotonic() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            return rounds


def median_metrics(samples: dict[str, list[float]], units: dict[str, str]) -> dict:
    missing = [name for name in units if not samples.get(name)]
    if missing:
        raise SystemExit(f"no successful run measured {missing}")
    out = {}
    for name, unit in units.items():
        vals = samples[name]
        # counts stay whole numbers
        median = statistics.median_low if all(isinstance(v, int) for v in vals) else statistics.median
        out[name] = {"value": median(vals), "unit": unit}
    return out


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own invocation."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed)]
            cmd += ["--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                return proc.returncode
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            merged["correct"] = merged["correct"] and res["correct"]
            merged["attempted"] += res["attempted"]
            merged["failed"] += res["failed"]
            for name, metric in res["metrics"].items():
                merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1, help="master seed of the experiment")
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sshlab" / "__init__.py").is_file():
        log(f"error: no sshlab source under {ROOT / 'src'}; run from a full checkout")
        return 2
    if args.workload == "all":
        return run_all(args)

    deadline = time.monotonic() + HARD_LIMIT_S
    children = Children(deadline)
    entries = dict(WORKLOADS[args.workload], master_seed=str(args.seed))
    tally = Tally(expected_config(entries))
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    samples: dict[str, list[float]] = {}
    env_info: dict = {}

    def add(name: str, value: float) -> None:
        samples.setdefault(name, []).append(value)

    def run(*threads: int) -> list[tuple[dict | None, bytes | None]]:
        """One fresh interpreter, one forked run per thread count."""
        paths = [out_dir / f"r{i}-t{t}.csv" for i, t in enumerate(threads)]
        for path in paths:
            path.unlink(missing_ok=True)
        out = str(out_dir / "r{run}-t{threads}.csv")
        spec = ",".join(map(str, threads))
        res, spawned = children.step("run", json.dumps(dict(entries, out=out)), spec)
        if res:
            add("setup_s", res["ready"] - spawned)
            env_info.update(blas_threads=res["blas_threads"], blas_config=res["blas_config"])
        results = res["runs"] if res else [{"error": "no result"}] * len(threads)
        done = []
        for path, r in zip(paths, results):
            if "error" in r:
                log(f"run failed: {r['error']}")
                r = None
            done.append((r, tally.data_file(path if r else None)))
        return done

    def timed_round() -> None:
        (res2, raw2), (res1, raw1) = run(2, 1)
        tally.same_data([raw2, raw1], "threads=2 and threads=1")
        if res2:
            add("run_s", res2["run_s"])
            add("peak_rss_mb", (res2["rss_self_kb"] + res2["rss_workers_kb"]) / 1024.0)
        if res1:
            add("run_1t_s", res1["run_s"])
        log(f"round: run_s={res2 and res2['run_s']} run_1t_s={res1 and res1['run_s']}")

    def traced_round() -> None:
        [(res1, raw1)] = run(1)
        path = out_dir / "traced.csv"
        path_t2 = out_dir / "traced-t2.csv"
        path_300 = out_dir / "traced-ring300.csv"
        for p in (path, path_t2, path_300):
            p.unlink(missing_ok=True)
        spans_path = out_dir / "spans.json"
        ring300 = RING300.get(args.workload, {})
        args_json = (json.dumps(dict(entries, out=str(path))), str(spans_path), json.dumps(ring300))
        res, _ = children.step("trace", *args_json)
        raws = [raw1, tally.data_file(path if res else None), tally.data_file(path_t2 if res else None)]
        tally.same_data(raws, "untraced and traced runs")
        if ring300:
            tally.data_file(path_300 if res else None, expected_config(dict(entries, **ring300)))
        if res is None:
            return
        for err in res["errors"]:
            tally.fail(tally.rows, f"replay: {err}")
        for name, value in res["metrics"].items():
            add(name, value)
        if res1:
            add("trace.overhead_s", res["traced_wall_s"] - res1["run_s"])
        log(f"traced round: wall={res['traced_wall_s']:.3f}")

    if args.trace:
        rounds = run_rounds(args.seconds, traced_round)
        units = PER_LAYER_UNITS
    else:
        rounds = run_rounds(args.seconds, timed_round)
        units = END_TO_END_UNITS
    log(
        f"# {args.workload} seed={args.seed} rounds={rounds} nproc={os.cpu_count()} "
        f"python={platform.python_version()} numpy={np.__version__} "
        f"scipy={importlib.metadata.version('scipy')} "
        f"blas_threads={env_info.get('blas_threads')} blas={env_info.get('blas_config')}"
    )
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": median_metrics(samples, units),
    }
    for name, m in result["metrics"].items():
        log(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
