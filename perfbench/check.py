"""Independent checks of sshlab data files, using numpy and the stdlib only.

Nothing here imports sshlab.  Couplings are regenerated from the documented
per-realization Philox stream keyed by (derived seed, index); every other
quantity is recomputed with numpy.linalg or in closed form.  Each check
returns one verdict per data row, so a run can count failed operations.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

_MASK64 = (1 << 64) - 1
_EPS = float(np.finfo(float).eps)
# Shevtsova (2011) constant of the Berry-Esseen bound for iid summands
_BERRY_ESSEEN_C = 0.4748
# z-score allowance for Monte Carlo noise around the CLT prediction
_MC_SIGMAS = 4.0
# sshlab.spectrum.midgap_pair stops inverse iteration at residual
# <= 1e-10 * Gershgorin bound; the profile check bounds the error from it
_MIDGAP_RESIDUAL = 1e-10


class DataFile:
    """A parsed sshlab CSV data file: embedded config, columns and rows."""

    def __init__(self, path: str | Path):
        text = Path(path).read_text()
        lines = text.splitlines()
        if len(lines) < 3 or not lines[0].startswith("# config: "):
            raise ValueError(f"{path}: not an sshlab CSV data file")
        self.config = json.loads(lines[0][len("# config: ") :])
        if not lines[2].startswith("# columns: "):
            raise ValueError(f"{path}: missing column header")
        self.columns = lines[2][len("# columns: ") :].split(",")
        rows = [[float(x) for x in line.split(",")] for line in lines[3:]]
        if any(len(r) != len(self.columns) for r in rows):
            raise ValueError(f"{path}: ragged rows")
        self.rows = np.array(rows, dtype=float).reshape(len(rows), len(self.columns))

    def col(self, name: str) -> np.ndarray:
        return self.rows[:, self.columns.index(name)]


# ----------------------------------------------------------------------
# inputs regenerated without sshlab


def derived_seed(master_seed: int, stage: int) -> int:
    """Per-gamma stream seed used by the sshlab experiment runners."""
    return (master_seed * 1_000_003 + stage) & _MASK64


def couplings(seed: int, index: int, n: int, u: float, gamma: float) -> np.ndarray:
    """Intra-dimer couplings of realization `index`, flat on u +- sqrt(3) gamma."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    half = math.sqrt(3.0) * gamma
    return rng.uniform(u - half, u + half, n)


def index_nu(c: np.ndarray, u: float, w: float) -> float | None:
    """Index 1 if prod|u_i| < |w|^n, 0 if larger, None on an exact tie."""
    log_xi = len(c) * math.log(abs(u / w)) + float(np.sum(np.log(np.abs(c / u))))
    if log_xi == 0.0:
        return None
    return 1.0 if log_xi < 0.0 else 0.0


def mean_and_stderr(vals: list[float]) -> tuple[float, float]:
    a = np.array(vals, dtype=float)
    return float(a.mean()), float(a.std(ddof=1) / math.sqrt(len(a)))


def nu_sample(cfg: dict, gi: int, gamma: float, r: int) -> list[float]:
    seed = derived_seed(cfg["master_seed"], gi)
    vals = [index_nu(couplings(seed, i, cfg["n"], cfg["u"], gamma), cfg["u"], cfg["w"]) for i in range(r)]
    return [v for v in vals if v is not None]


def ring_matrix(c: np.ndarray, w: float) -> np.ndarray:
    n = len(c)
    off = np.empty(2 * n - 1)
    off[0::2] = c
    off[1::2] = w
    h = np.diag(off, 1)
    h[0, 2 * n - 1] = w
    return h + h.T


def open_matrix(c: np.ndarray, w: float) -> np.ndarray:
    off = np.empty(2 * len(c) - 1)
    off[0::2] = c
    off[1::2] = w
    h = np.diag(off, 1)
    return h + h.T


def gershgorin(h: np.ndarray) -> float:
    return float(np.max(np.sum(np.abs(h), axis=1)))


# ----------------------------------------------------------------------
# closed-form moments of log|c| for c uniform on [lo, hi]


def _antiderivative(x: float, m: float, k: int) -> float:
    """x * P_k(log x - m), an antiderivative of (log x - m)^k on x > 0."""
    if x == 0.0:
        return 0.0
    t = math.log(x) - m
    p = 1.0
    for j in range(1, k + 1):
        p = t**j - j * p
    return x * p


def _abs_pieces(lo: float, hi: float) -> list[tuple[float, float]]:
    """[lo, hi] with hi > 0 folded onto |c| as intervals of [0, inf)."""
    if lo >= 0.0:
        return [(lo, hi)]
    return [(0.0, -lo), (0.0, hi)]


def log_moments(u: float, gamma: float) -> tuple[float, float, float]:
    """Mean, variance and third absolute central moment of log|c/u|."""
    half = math.sqrt(3.0) * gamma
    lo, hi = u - half, u + half
    width = hi - lo
    pieces = _abs_pieces(lo, hi)

    def integral(k: int, m: float, absolute: bool = False) -> float:
        total = 0.0
        for a, b in pieces:
            cuts = [a, b]
            x0 = math.exp(m)
            if absolute and a < x0 < b:
                cuts = [a, x0, b]
            for x1, x2 in zip(cuts, cuts[1:]):
                part = _antiderivative(x2, m, k) - _antiderivative(x1, m, k)
                total += abs(part) if absolute else part
        return total / width

    mean = integral(1, 0.0)
    var = integral(2, mean)
    rho = integral(3, mean, absolute=True)
    return mean - math.log(abs(u)), var, rho


def clt_mean_nu(n: int, u: float, w: float, gamma: float) -> tuple[float, float]:
    """CLT value of <nu> and its Berry-Esseen error bound for n dimers."""
    if gamma == 0.0:
        return (1.0 if abs(w) > abs(u) else 0.0), 0.0
    mu, var, rho = log_moments(u, gamma)
    arg = math.sqrt(n) * (math.log(abs(u / w)) + mu) / math.sqrt(2.0 * var)
    return 0.5 * (1.0 - math.erf(arg)), _BERRY_ESSEEN_C * rho / (var**1.5 * math.sqrt(n))


# ----------------------------------------------------------------------
# per-experiment row checks; each returns a list of (ok, note) per row


def _nu_columns_ok(cfg, gi, gamma, r, mean, stderr=None) -> tuple[bool, str]:
    kept = nu_sample(cfg, gi, gamma, r)
    ref_mean, ref_se = mean_and_stderr(kept)
    if mean != ref_mean:
        return False, f"mean nu {mean!r} != recomputed {ref_mean!r}"
    if stderr is not None and abs(stderr - ref_se) > 1e-12 * max(ref_se, 1e-300):
        return False, f"nu stderr {stderr!r} != recomputed {ref_se!r}"
    return True, ""


def check_mean_nu(df: DataFile) -> list[tuple[bool, str]]:
    cfg = df.config
    n, u, w, r = cfg["n"], cfg["u"], cfg["w"], cfg["realizations"]
    out = []
    for gi, row in enumerate(df.rows.tolist()):
        gamma, mc, se, an, excl = row
        ok, note = _nu_columns_ok(cfg, gi, gamma, r, mc, se)
        clt, be = clt_mean_nu(n, u, w, gamma)
        if ok and excl != 0.0:
            ok, note = False, f"{excl:g} critical exclusions, none expected"
        if ok and abs(an - clt) > 1e-6:
            ok, note = False, f"analytic {an!r} != closed-form CLT {clt!r}"
        if ok and abs(mc - an) > be + _MC_SIGMAS * se + 1e-12:
            ok, note = False, f"|MC - analytic| = {abs(mc - an):.4f} > {be + _MC_SIGMAS * se:.4f}"
        out.append((ok, note))
    return out


def check_gap_scan(df: DataFile) -> list[tuple[bool, str]]:
    cfg = df.config
    n, u, w, r = cfg["n"], cfg["u"], cfg["w"], cfg["realizations"]
    out = []
    for gi, (gamma, mean_gap, gap_se, mc_nu) in enumerate(df.rows.tolist()):
        seed = derived_seed(cfg["master_seed"], gi)
        gaps, tol = [], 0.0
        for i in range(r):
            h = ring_matrix(couplings(seed, i, n, u, gamma), w)
            gaps.append(2.0 * float(np.min(np.abs(np.linalg.eigvalsh(h)))))
            # backward-stable eigensolvers: |dE| <= O(N eps ||H||) on each side
            tol = max(tol, 8.0 * h.shape[0] * _EPS * gershgorin(h))
        ref = np.array(gaps)
        ok, note = _nu_columns_ok(cfg, gi, gamma, max(r, 2), mc_nu)
        if ok and gamma == 0.0 and abs(mean_gap - 2.0 * abs(u - w)) > tol:
            ok, note = False, f"clean gap {mean_gap!r} != 2|u - w| = {2.0 * abs(u - w)!r}"
        if ok and abs(mean_gap - float(ref.mean())) > tol:
            ok, note = False, f"mean gap {mean_gap!r} != eigvalsh {float(ref.mean())!r}"
        if ok and r > 1 and abs(gap_se - float(ref.std(ddof=1)) / math.sqrt(r)) > 2.0 * tol:
            ok, note = False, f"gap stderr {gap_se!r} disagrees with eigvalsh"
        out.append((ok, note))
    return out


def _projector_profile(h: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-dimer weight of the midgap pair, and its Davis-Kahan error bound."""
    evals, vecs = np.linalg.eigh(h)
    size = len(evals)
    pair = vecs[:, size // 2 - 1 : size // 2 + 1]
    per_site = np.sum(pair * pair, axis=1)
    per_dimer = per_site[0::2] + per_site[1::2]
    a = np.sort(np.abs(evals))
    sep = a[2] - a[1]
    g = gershgorin(h)
    # Davis-Kahan: ||P - P'|| <= ||R||_F / sep <= sqrt(2) * residual / sep for
    # each solver's residual; a dimer sums two projector diagonal entries
    resid = _MIDGAP_RESIDUAL * g + size * _EPS * g
    bound = 2.0 * math.sqrt(2.0) * resid / sep if sep > 0.0 else math.inf
    return per_dimer * (2.0 / per_dimer.sum()), bound


def check_edge_modes(df: DataFile) -> list[tuple[bool, str]]:
    cfg = df.config
    n, u, w, r = cfg["n"], cfg["u"], cfg["w"], cfg["realizations"]
    out = []
    for gi, row in enumerate(df.rows.tolist()):
        gamma, mean_nu, nu_se, prof = row[0], row[1], row[2], np.array(row[3:])
        ok, note = _nu_columns_ok(cfg, gi, gamma, max(r, 2), mean_nu, nu_se)
        if ok and float(prof.min()) < 0.0:
            ok, note = False, f"negative weight {float(prof.min())!r}"
        if ok and abs(float(prof.sum()) - 2.0) > 1e-12 * n:
            ok, note = False, f"profile sums to {float(prof.sum())!r}, not 2"
        if ok:
            seed = derived_seed(cfg["master_seed"], gi)
            profs, bounds = [], []
            for i in range(r):
                p, b = _projector_profile(open_matrix(couplings(seed, i, n, u, gamma), w))
                profs.append(p)
                bounds.append(b)
            err = float(np.max(np.abs(np.mean(profs, axis=0) - prof)))
            tol = float(np.mean(bounds)) + 1e-12
            if err > tol:
                ok, note = False, f"profile off the eigh projector by {err:.2e} > {tol:.2e}"
        out.append((ok, note))
    return out


CHECKS = {
    "mean-nu": (check_mean_nu, ["gamma", "mc_mean_nu", "mc_stderr", "analytic_mean_nu", "n_excluded"]),
    "gap-scan": (check_gap_scan, ["gamma", "mean_gap", "gap_stderr", "mc_mean_nu"]),
    "edge-modes": (check_edge_modes, ["gamma", "mean_nu", "nu_stderr"]),
}


def check_file(path: str | Path, expected_config: dict | None = None) -> list[tuple[bool, str]]:
    """Row verdicts for one data file; a config mismatch fails every row."""
    df = DataFile(path)
    if expected_config is not None:
        diff = {k: (df.config.get(k), v) for k, v in expected_config.items() if df.config.get(k) != v}
        if diff:
            return [(False, f"embedded config differs: {diff}")] * len(df.rows)
    check, columns = CHECKS[df.config["experiment"]]
    if df.columns[: len(columns)] != columns:
        return [(False, f"unexpected columns {df.columns[:len(columns)]}")] * len(df.rows)
    return check(df)
