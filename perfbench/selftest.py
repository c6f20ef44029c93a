#!/usr/bin/env python3
"""Show that check.py accepts real sshlab output and rejects perturbed copies.

    python3 perfbench/selftest.py

Runs a small instance of each experiment, checks the data file, then
rewrites one number at a time and requires the check to reject that row.
Prints one PASS/FAIL line per case; exits 1 if any case fails.
"""

from __future__ import annotations

import json
import sys
import time

import check
from run import OUT, Children

SMALL = {
    "mean-nu": {"n": "100", "w": "0.95", "bc": "open", "gamma_grid": "0:1.5:6", "realizations": "200"},
    "gap-scan": {"n": "50", "w": "0.8", "bc": "periodic", "gamma_grid": "0:0.8:3", "realizations": "2"},
    "edge-modes": {"n": "40", "w": "0.95", "bc": "open", "gamma_grid": "0:1.8:4", "realizations": "3"},
}


def _shift(delta: float):
    return lambda x: x + delta


def _move_weight(row: list[float]) -> list[float]:
    # keeps the row nonnegative and its sum at 2; only the eigh comparison can object
    row = list(row)
    row[3] -= 1e-4
    row[4] += 1e-4
    return row


# (experiment, description, row, column, edit of that value or of the whole row)
PERTURBATIONS = [
    ("mean-nu", "one realization's index flipped", 3, "mc_mean_nu", _shift(1.0 / 200)),
    ("mean-nu", "analytic curve off by 1e-3", 2, "analytic_mean_nu", _shift(1e-3)),
    ("mean-nu", "stderr off by 1e-9", 4, "mc_stderr", _shift(1e-9)),
    ("gap-scan", "clean gap off by 1e-9", 0, "mean_gap", _shift(1e-9)),
    ("gap-scan", "disordered gap off by 1e-9 relative", 2, "mean_gap", lambda x: x * (1 + 1e-9)),
    ("gap-scan", "index mean flipped", 1, "mc_mean_nu", _shift(0.5)),
    ("edge-modes", "1e-4 weight moved between dimers", 2, None, _move_weight),
    ("edge-modes", "index mean flipped", 3, "mean_nu", _shift(1.0 / 3)),
]


def _rewrite(path, row: int, column: str | None, edit, dest) -> None:
    lines = path.read_text().splitlines()
    df = check.DataFile(path)
    values = [float(x) for x in lines[3 + row].split(",")]
    if column is None:
        values = edit(values)
    else:
        i = df.columns.index(column)
        values[i] = edit(values[i])
    lines[3 + row] = ",".join("%.17g" % v for v in values)
    dest.write_text("\n".join(lines) + "\n")


def main() -> int:
    out = OUT / "selftest"
    out.mkdir(parents=True, exist_ok=True)
    children = Children(time.monotonic() + 600.0)
    clean = {}
    ok_all = True
    for experiment, entries in SMALL.items():
        path = out / f"{experiment}.csv"
        entries = dict(entries, experiment=experiment, u="1.0", master_seed="7", out=str(path))
        res, _ = children.step("run", json.dumps(entries), "1")
        ran = res is not None and "error" not in res["runs"][0]
        verdicts = check.check_file(path) if ran else [(False, "run failed")]
        passed = all(ok for ok, _ in verdicts)
        print(f"{'PASS' if passed else 'FAIL'}  {experiment}: unmodified file accepted", flush=True)
        ok_all = ok_all and passed
        clean[experiment] = path
    for experiment, what, row, column, edit in PERTURBATIONS:
        dest = out / f"{experiment}-perturbed.csv"
        _rewrite(clean[experiment], row, column, edit, dest)
        verdicts = check.check_file(dest)
        rejected = [i for i, (ok, _) in enumerate(verdicts) if not ok]
        passed = rejected == [row]
        note = verdicts[row][1] if not verdicts[row][0] else "not rejected"
        print(f"{'PASS' if passed else 'FAIL'}  {experiment}: {what} -> row {row} rejected ({note})", flush=True)
        ok_all = ok_all and passed
    expected = {"master_seed": 8}
    passed = not any(ok for ok, _ in check.check_file(clean["mean-nu"], expected))
    print(f"{'PASS' if passed else 'FAIL'}  mean-nu: file made with another seed rejected")
    return 0 if ok_all and passed else 1


if __name__ == "__main__":
    sys.exit(main())
