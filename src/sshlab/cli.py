"""Command-line front end: experiment orchestration and CSV/JSON output.

Each experiment writes a data file whose `#` header embeds the resolved
scientific configuration as JSON, plus a `.meta.json` sidecar with run
provenance (wall time, requested threads, the processes a sweep may use
for them and whether any sweep forked, version).  Scheduling knobs (threads,
output path) live only in the sidecar so reruns with a different thread
count stay byte-identical in the data section.

`_EXPERIMENTS` lists each experiment once, with its runner and figure
defaults.  Config files and flags are text that `parse_config_entries` types
by `RunConfig`'s fields; flags win over the file, and a file's `experiment`
must match the subcommand.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__, analytic, ensemble, invariant, model, spectrum

__all__ = ["RunConfig", "load_config_file", "main"]


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration of one experiment run."""

    experiment: str
    n: int = 100
    u: float = 1.0
    w: float = 0.95
    bc: str = "open"
    gamma_grid: tuple[float, ...] = ()
    w_grid: tuple[float, ...] = ()
    realizations: int = 100
    master_seed: int = 1
    m_phi: int = 64
    alpha: float = 1e-6
    out: str = ""
    format: str = "csv"
    threads: int = 0

    def validate(self) -> None:
        if self.experiment not in _EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.bc not in ("open", "periodic"):
            raise ValueError("bc must be 'open' or 'periodic'")
        if self.realizations < 1:
            raise ValueError("realizations must be >= 1")
        if self.format not in ("csv", "json"):
            raise ValueError("format must be 'csv' or 'json'")
        if self.threads < 0:
            raise ValueError("threads must be >= 0")
        for key in ("u", "w", "alpha", "gamma_grid", "w_grid"):
            if not np.isfinite(getattr(self, key)).all():
                raise ValueError(f"{key} must be finite")
        for name, grid in (("gamma_grid", self.gamma_grid), ("w_grid", self.w_grid)):
            if grid and any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError(f"{name} must be strictly increasing")
        if not self.gamma_grid:
            raise ValueError("gamma_grid must be non-empty")
        if "w_grid" in _EXPERIMENTS[self.experiment][1] and not self.w_grid:
            raise ValueError(f"{self.experiment} needs a w_grid")

    def chain_params(self) -> model.ChainParams:
        bc = model.BoundaryCondition(self.bc)
        return model.ChainParams(n=self.n, u=self.u, w=self.w, bc=bc)

    def data_dict(self) -> dict:
        """Scientific config embedded in the data section (no scheduling knobs)."""
        d = asdict(self)
        d.pop("out")
        d.pop("threads")
        d["gamma_grid"] = list(self.gamma_grid)
        d["w_grid"] = list(self.w_grid)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        d = dict(d)
        for key in ("gamma_grid", "w_grid"):
            if key in d:
                d[key] = tuple(float(x) for x in d[key])
        return cls(**d)


# ----------------------------------------------------------------------
# config parsing: flat key = value text, typed by RunConfig's fields


def _parse_grid(text: str) -> tuple[float, ...]:
    """Comma list '0.1,0.2' or linspace shorthand 'start:stop:count'."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid shorthand must be start:stop:count, got {text!r}")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError("grid count must be >= 1")
        return tuple(np.linspace(start, stop, count))
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def parse_config_entries(entries: dict[str, str]) -> dict:
    """Typed RunConfig fields from their text; grids take `_parse_grid`'s forms."""
    kinds = get_type_hints(RunConfig)
    out: dict = {}
    for key, raw in entries.items():
        if key not in kinds:
            raise ValueError(f"unknown config key {key!r}")
        kind = kinds[key]
        try:
            out[key] = _parse_grid(raw) if kind == tuple[float, ...] else kind(raw.strip())
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
    return out


def load_config_file(path: str | Path) -> dict:
    """Read flat `key = value` lines; '#' starts a comment."""
    entries: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return parse_config_entries(entries)


# ----------------------------------------------------------------------
# output writers


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isnan(x):
        return "nan"
    return "%.17g" % x


def _data_bytes(cfg: RunConfig, columns: list[str], rows: list[list]) -> bytes:
    header = json.dumps(cfg.data_dict(), sort_keys=True)
    if cfg.format == "csv":
        lines = [
            f"# config: {header}",
            f"# version: sshlab {__version__}",
            "# columns: " + ",".join(columns),
        ]
        lines += [",".join(_fmt(x) for x in row) for row in rows]
        return ("\n".join(lines) + "\n").encode()
    doc = {
        "config": json.loads(header),
        "version": f"sshlab {__version__}",
        "columns": columns,
        "data": [[_fmt(x) for x in row] for row in rows],
    }
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()


# the BLAS/OpenMP thread caps in effect, which forked sweep processes inherit
_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _write_outputs(cfg: RunConfig, columns, rows, wall_time: float, sweeps: list[dict]) -> Path:
    out = Path(cfg.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_bytes(_data_bytes(cfg, columns, rows))
    sidecar = {
        "config": cfg.data_dict(),
        "out": str(out),
        "pool_started": any(s["pooled"] for s in sweeps),
        "sweeps": sweeps,
        "thread_env": {name: os.environ.get(name) for name in _THREAD_ENV},
        "threads": cfg.threads,
        "version": f"sshlab {__version__}",
        "wall_time_s": wall_time,
        "workers": ensemble._workers(cfg.threads),
    }
    out.with_suffix(out.suffix + ".meta.json").write_text(
        json.dumps(sidecar, sort_keys=True, indent=1) + "\n"
    )
    return out


def read_embedded_config(path: str | Path) -> RunConfig:
    """Recover the RunConfig embedded in a data file header."""
    text = Path(path).read_text()
    if text.startswith("# config: "):
        payload = text.splitlines()[0][len("# config: ") :]
        return RunConfig.from_dict(json.loads(payload))
    return RunConfig.from_dict(json.loads(text)["config"])


# ----------------------------------------------------------------------
# experiments


def run_invariant(cfg: RunConfig) -> tuple[list[str], list[list]]:
    """Both index routes for one sampled realization per gamma point."""
    params = cfg.chain_params()
    rows = []
    for gi, gamma in enumerate(cfg.gamma_grid):
        dist = ensemble.FlatDistribution(gamma=gamma, u=cfg.u)
        real = ensemble.sample_realization(dist, cfg.n, cfg.master_seed, gi)
        wind = invariant.winding_integral(real, cfg.w, m_phi=cfg.m_phi)
        nu_cf = invariant.winding_closed_form(real, params)
        log_xi = invariant.xi_value(real, params)
        rows.append(
            [gamma, wind.nu, nu_cf, log_xi, wind.phase_samples, wind.total_phase]
        )
    columns = ["gamma", "nu_winding", "nu_closed_form", "log_xi", "phase_samples", "total_phase"]
    return columns, rows


def run_mean_nu_curve(cfg: RunConfig) -> tuple[list[str], list[list]]:
    """Monte Carlo <nu>(gamma) next to the analytic curve; one sweep maps the grid."""
    points = _sweep_points(cfg)
    estimates = ensemble.sweep_mean_nu(
        cfg.chain_params(), points, cfg.realizations, threads=cfg.threads
    )
    rows = []
    for gamma, est in zip(cfg.gamma_grid, estimates):
        an = analytic.mean_nu_analytic(cfg.n, cfg.u, cfg.w, gamma)
        rows.append([gamma, est.value, est.stderr, an, est.n_excluded])
    return ["gamma", "mc_mean_nu", "mc_stderr", "analytic_mean_nu", "n_excluded"], rows


def run_phase_diagram(cfg: RunConfig) -> tuple[list[str], list[list]]:
    """Gap and index of one fixed-seed realization per (gamma, w) grid point.

    The grid's chains take their gaps from one batched level call
    (`spectrum.chain_gaps`), each ring closed by its own w.
    """
    grid, chains = [], []
    for gi, gamma in enumerate(cfg.gamma_grid):
        dist = ensemble.FlatDistribution(gamma=gamma, u=cfg.u)
        w0 = analytic.critical_w(cfg.u, gamma)
        w0_weak = analytic.critical_w_weak(cfg.u, gamma)
        for wi, w in enumerate(cfg.w_grid):
            index = gi * len(cfg.w_grid) + wi
            real = ensemble.sample_realization(dist, cfg.n, cfg.master_seed, index)
            params = replace(cfg.chain_params(), w=w)
            grid.append((gamma, w, real, params, w0, w0_weak))
            chains.append(model.build_chain(params, real))
    offdiag = np.array([m.offdiag for m in chains])
    corners = None if chains[0].is_tridiagonal else np.array([m.corner for m in chains])
    rows = []
    for point, chain, gap in zip(grid, chains, spectrum.chain_gaps(offdiag, corners)):
        gamma, w, real, params, w0, w0_weak = point
        try:
            nu = invariant.winding_closed_form(real, params)
        except invariant.CriticalRealizationError:
            nu = math.nan  # grid point sits exactly on the boundary
        # an open chain's gap is good to its last bits; a ring's, to its reduction's floor
        resolved = gap > (0.0 if chain.is_tridiagonal else spectrum.gap_resolution(chain))
        log_gap = math.log(gap / (2.0 * abs(cfg.u))) if resolved else -math.inf
        rows.append([gamma, w, log_gap, nu, w0, w0_weak])
    return ["gamma", "w", "log_gap_ratio", "nu", "w0_analytic", "w0_weak"], rows


def _sweep_points(cfg: RunConfig) -> list:
    """(distribution, derived seed) of each gamma point, as the ensemble sweeps take them."""
    return [
        (ensemble.FlatDistribution(gamma=gamma, u=cfg.u), _derived_seed(cfg.master_seed, gi))
        for gi, gamma in enumerate(cfg.gamma_grid)
    ]


def _with_mean_nu(cfg: RunConfig, sweep):
    """(gamma, estimate, <nu>) per gamma on the same realizations; <nu> uses >= 2 for a stderr.

    One sweep call maps the whole gamma grid for each of the two quantities.
    """
    params, points = cfg.chain_params(), _sweep_points(cfg)
    estimates = sweep(params, points, cfg.realizations, threads=cfg.threads)
    nus = ensemble.sweep_mean_nu(params, points, max(cfg.realizations, 2), threads=cfg.threads)
    return zip(cfg.gamma_grid, estimates, nus)


def run_edge_modes(cfg: RunConfig) -> tuple[list[str], list[list]]:
    """Averaged midgap weight per dimer along a disorder sweep (open chains)."""
    rows = [
        [gamma, nu.value, nu.stderr, *np.asarray(prof.value)]
        for gamma, prof, nu in _with_mean_nu(cfg, ensemble.sweep_wavefunction_profile)
    ]
    columns = ["gamma", "mean_nu", "nu_stderr"] + [
        f"psi2_{i + 1:03d}" for i in range(cfg.n)
    ]
    return columns, rows


def run_gap_scan(cfg: RunConfig) -> tuple[list[str], list[list]]:
    """Averaged gap and index along a disorder sweep."""
    rows = [
        [gamma, gap.value, gap.stderr, nu.value]
        for gamma, gap, nu in _with_mean_nu(cfg, ensemble.sweep_mean_gap)
    ]
    return ["gamma", "mean_gap", "gap_stderr", "mc_mean_nu"], rows


def run_born(cfg: RunConfig) -> tuple[list[str], list[list]]:
    """Self-energy scalars and midgap DOS on a (delta, gamma) grid."""
    from . import born  # here only: no ensemble run uses it

    rows = []
    alpha = cfg.alpha * abs(cfg.u)
    for w in cfg.w_grid:
        delta = cfg.u - w
        for gamma in cfg.gamma_grid:
            p = born.BornParams(u=cfg.u, w=w, gamma=gamma, alpha=alpha, omega=0.0)
            fq = born.f_quadrature(p)
            gq = born.g_quadrature(p)
            if delta >= 0.0:
                fnp = born.f_narrow_peak(delta, cfg.u, alpha)
                gnp = born.g_narrow_peak(delta, cfg.u, alpha)
            else:
                fnp = gnp = complex(math.nan, math.nan)
            rho0 = (
                born.midgap_dos(delta, cfg.u, gamma, alpha)
                if delta > 0.0
                else math.nan
            )
            rows.append(
                [
                    delta,
                    gamma,
                    alpha,
                    fq.real,
                    fq.imag,
                    gq.real,
                    gq.imag,
                    fnp.real,
                    fnp.imag,
                    gnp.real,
                    gnp.imag,
                    rho0,
                ]
            )
    columns = [
        "delta",
        "gamma",
        "alpha",
        "f_quad_re",
        "f_quad_im",
        "g_quad_re",
        "g_quad_im",
        "f_np_re",
        "f_np_im",
        "g_np_re",
        "g_np_im",
        "rho0",
    ]
    return columns, rows


def _derived_seed(master_seed: int, stage: int) -> int:
    # keep per-gamma realization streams disjoint without overlapping indices
    return (master_seed * 1_000_003 + stage) & ((1 << 64) - 1)


_EXPERIMENTS = {
    # name: (runner, figure defaults); a w_grid default marks an experiment that needs one
    "invariant": (run_invariant, dict(gamma_grid=tuple(np.linspace(0.0, 1.5, 16)))),
    "mean-nu": (
        run_mean_nu_curve,
        dict(n=100, w=0.95, realizations=15000, gamma_grid=tuple(np.linspace(0.0, 1.5, 30))),
    ),
    "phase-diagram": (
        run_phase_diagram,
        dict(
            n=300,
            bc="periodic",
            gamma_grid=tuple(np.linspace(0.0, 1.5, 16)),
            w_grid=tuple(np.linspace(0.5, 1.1, 13)),
        ),
    ),
    "edge-modes": (
        run_edge_modes,
        dict(n=100, w=0.95, realizations=100, gamma_grid=tuple(np.linspace(0.0, 1.8, 10))),
    ),
    "gap-scan": (
        run_gap_scan,
        dict(
            n=300,
            w=0.8,
            bc="periodic",
            realizations=100,
            gamma_grid=tuple(np.linspace(0.0, 0.8, 17)),
        ),
    ),
    "born": (
        run_born,
        dict(gamma_grid=tuple(np.linspace(0.05, 1.0, 20)), w_grid=(0.8, 0.9, 0.95, 0.99)),
    ),
}


def default_config(experiment: str) -> RunConfig:
    if experiment not in _EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r}")
    return RunConfig(experiment=experiment, **_EXPERIMENTS[experiment][1])


def run_selftest() -> int:
    """Fast internal consistency checks; returns a process exit code."""
    from . import born

    checks: list[tuple[str, bool]] = []

    clean = model.Realization(couplings=np.full(10, 1.0))
    params_top = model.ChainParams(n=10, u=1.0, w=2.0)
    params_triv = model.ChainParams(n=10, u=2.0, w=1.0)
    clean2 = model.Realization(couplings=np.full(10, 2.0))
    checks.append(
        (
            "clean winding",
            invariant.winding_integral(clean, 2.0).nu == 1
            and invariant.winding_integral(clean2, 1.0).nu == 0,
        )
    )
    checks.append(
        (
            "clean closed form",
            invariant.winding_closed_form(clean, params_top) == 1
            and invariant.winding_closed_form(clean2, params_triv) == 0,
        )
    )
    p_mc, dist = model.ChainParams(n=10, u=1.0, w=1.0), ensemble.FlatDistribution(0.4, 1.0)
    acc = ensemble._log_ratio_block(p_mc, [(dist, 7)], 8, range(8))
    block_nu = invariant.index_from_log_xi(invariant.log_xi_offset(p_mc) + acc)
    rows = [ensemble.sample_realization(dist, 10, 7, i) for i in range(8)]
    row_nu = [invariant.winding_closed_form(real, p_mc) for real in rows]
    checks.append(("block index", np.array_equal(block_nu, row_nu)))
    # the block of rows 1..4 crosses two gamma points and gives each point's rows bit for bit
    points = [(ensemble.FlatDistribution(0.3, 1.0), 3), (ensemble.FlatDistribution(1.2, 1.0), 4)]
    same = True
    for bc, worker in (("open", ensemble._profile_block), ("periodic", ensemble._gap_block)):
        p_sw = model.ChainParams(n=6, u=1.0, w=0.9, bc=model.BoundaryCondition(bc))
        alone = [worker(p_sw, [pt], 3, range(3)) for pt in points]
        mixed = worker(p_sw, points, 3, range(1, 5))
        same = same and np.array_equal(mixed, np.concatenate(alone)[1:5])
    checks.append(("sweep block", same))
    checks.append(
        (
            "clean zak",
            invariant.zak_phase_clean(1.0, 2.0) == 1
            and invariant.zak_phase_clean(2.0, 1.0) == 0,
        )
    )
    h = model.build_flux_matrix(clean, 0.7, 0.3)
    lp, sp, lq, sq = h.log_terms()
    rebuilt = sp * np.exp(lp) + sq * np.exp(lq) * np.exp(1j * h.phi)
    checks.append(("determinant routes", abs(h.determinant() - rebuilt) < 1e-12))
    # both branches of the flat-density cumulants, where either one applies
    cumulant_gap = 0.0
    for a in (0.3, 0.5):
        first, second = analytic._flat_log_series(a)
        z1, z2 = analytic._flat_log_antiderivatives(a)
        cumulant_gap = max(cumulant_gap, abs(first - z1), abs(second - first * first - z2))
    checks.append(("z2 routes", cumulant_gap < 1e-14))
    rng = np.random.default_rng(5)
    real = model.Realization(couplings=rng.uniform(0.5, 1.5, 8))
    m = model.build_chain(model.ChainParams(n=8, u=1.0, w=0.8), real)
    res = spectrum.eigenvalues_tridiagonal(m)
    ev = res.eigenvalues
    checks.append(
        (
            "midgap levels",
            np.array_equal(spectrum.midgap_levels(m.offdiag)[0], ev[6:10]),
        )
    )
    v_minus, v_plus = spectrum.midgap_pair(m)
    resid = [m.matvec(v) - 0.5 * sign * res.gap * v for v, sign in ((v_plus, 1), (v_minus, -1))]
    checks.append(("midgap pair", max(map(np.linalg.norm, resid)) <= 1e-10 * m.norm_bound()))
    # 40 dimers: the ring kernel slides its window, then reduces the natural block
    ring = model.build_chain(
        model.ChainParams(n=40, u=1.0, w=0.8, bc=model.BoundaryCondition.PERIODIC),
        model.Realization(couplings=rng.uniform(0.5, 1.5, 40)),
    )
    dense = spectrum.eigenvalues_dense(ring).eigenvalues
    # LAPACK's dense eigvalsh, so the pairing is not built in as on open chains
    checks.append(
        (
            "chiral pairing",
            float(np.max(np.abs(dense + dense[::-1]))) < 1e-10 * float(np.max(np.abs(dense))),
        )
    )
    checks.append(
        (
            "ring gap",
            abs(spectrum.chain_gap(ring) - 2.0 * float(np.min(np.abs(dense)))) < 1e-12,
        )
    )
    checks.append(
        (
            "trace identity",
            abs(float(np.sum(ev**2)) - m.trace_h2()) < 1e-10 * m.trace_h2(),
        )
    )
    checks.append(("erf", abs(analytic.erf(1.0) - 0.8427007929497149) < 1e-12))
    checks.append(
        (
            "critical gamma routes",
            born.band_touch_gamma(1.0, 0.8) == analytic.critical_gamma_weak(1.0, 0.8),
        )
    )

    ok = True
    for name, passed in checks:
        print(f"{'ok' if passed else 'FAIL'}  {name}")
        ok = ok and passed
    return 0 if ok else 1


def run_experiment(cfg: RunConfig) -> Path:
    """Validate, run and persist one experiment; returns the data path."""
    cfg.validate()
    if not cfg.out:
        cfg = replace(cfg, out=f"{cfg.experiment}.{'csv' if cfg.format == 'csv' else 'json'}")
    start = time.perf_counter()
    with ensemble.sweep_log() as sweeps:
        columns, rows = _EXPERIMENTS[cfg.experiment][0](cfg)
    return _write_outputs(cfg, columns, rows, time.perf_counter() - start, sweeps)


# ----------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    import argparse  # here only: no data run parses arguments

    parser = argparse.ArgumentParser(
        prog="sshlab",
        description="Disordered dimerized-chain experiments (index statistics, "
        "gap scans, edge modes, Born self-energies).",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in _EXPERIMENTS:
        # every flag but --config is a config key, kept as text for parse_config_entries
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", dest="master_seed", help="master RNG seed")
        p.add_argument("--realizations", help="ensemble size")
        p.add_argument("--out", help="output data path")
        p.add_argument("--format", help="data format: csv or json")
        p.add_argument("--threads", help="worker threads (0 = auto); never changes the data")
        p.add_argument("--n", help="dimer count")
        p.add_argument("--u", help="mean intra-dimer coupling")
        p.add_argument("--w", help="inter-dimer coupling")
        p.add_argument("--bc", help="boundary condition: open or periodic")
        p.add_argument("--gamma-grid", help="comma list or start:stop:count")
        p.add_argument("--w-grid", help="comma list or start:stop:count")
    sub.add_parser("selftest", help="run the internal consistency checks")
    return parser


def main(argv: list[str] | None = None) -> int:
    flags = vars(_build_parser().parse_args(argv))
    experiment = flags.pop("experiment")
    if experiment == "selftest":
        return run_selftest()
    try:
        config_file = flags.pop("config")
        entries = load_config_file(config_file) if config_file else {}
        named = entries.pop("experiment", experiment)
        if named != experiment:
            raise ValueError(f"{config_file} sets experiment = {named}, not {experiment}")
        entries.update(parse_config_entries({k: v for k, v in flags.items() if v is not None}))
        path = run_experiment(replace(default_config(experiment), **entries))
    except (ValueError, OSError, RuntimeError) as exc:
        # a run that fails (say, every realization of a point is critical) writes no data file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
