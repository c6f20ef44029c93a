import importlib
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import sshlab
from sshlab.cli import (
    RunConfig,
    default_config,
    load_config_file,
    main,
    read_embedded_config,
    run_experiment,
)


def data_section(path):
    """Everything after the # header lines."""
    lines = path.read_text().splitlines()
    return "\n".join(l for l in lines if not l.startswith("#"))


def tiny(experiment, tmp_path, **overrides):
    from dataclasses import replace

    base = dict(
        n=8,
        realizations=12,
        master_seed=3,
        gamma_grid=(0.1, 0.4),
        out=str(tmp_path / f"{experiment}.csv"),
    )
    base.update(overrides)
    return replace(default_config(experiment), **base)


def _lin(start, stop, count):
    return list(np.linspace(start, stop, count))


def run_python(args, cwd):
    """Run a fresh interpreter that imports this checkout's sshlab."""
    env = dict(os.environ)
    src = str(Path(sshlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


# the figure defaults of each experiment, as embedded in its data header
_DEFAULT_DATA = {
    "invariant": dict(
        experiment="invariant", n=100, u=1.0, w=0.95, bc="open",
        gamma_grid=_lin(0.0, 1.5, 16), w_grid=[],
        realizations=100, master_seed=1, m_phi=64, alpha=1e-6, format="csv",
    ),
    "mean-nu": dict(
        experiment="mean-nu", n=100, u=1.0, w=0.95, bc="open",
        gamma_grid=_lin(0.0, 1.5, 30), w_grid=[],
        realizations=15000, master_seed=1, m_phi=64, alpha=1e-6, format="csv",
    ),
    "phase-diagram": dict(
        experiment="phase-diagram", n=300, u=1.0, w=0.95, bc="periodic",
        gamma_grid=_lin(0.0, 1.5, 16), w_grid=_lin(0.5, 1.1, 13),
        realizations=100, master_seed=1, m_phi=64, alpha=1e-6, format="csv",
    ),
    "edge-modes": dict(
        experiment="edge-modes", n=100, u=1.0, w=0.95, bc="open",
        gamma_grid=_lin(0.0, 1.8, 10), w_grid=[],
        realizations=100, master_seed=1, m_phi=64, alpha=1e-6, format="csv",
    ),
    "gap-scan": dict(
        experiment="gap-scan", n=300, u=1.0, w=0.8, bc="periodic",
        gamma_grid=_lin(0.0, 0.8, 17), w_grid=[],
        realizations=100, master_seed=1, m_phi=64, alpha=1e-6, format="csv",
    ),
    "born": dict(
        experiment="born", n=100, u=1.0, w=0.95, bc="open",
        gamma_grid=_lin(0.05, 1.0, 20), w_grid=[0.8, 0.9, 0.95, 0.99],
        realizations=100, master_seed=1, m_phi=64, alpha=1e-6, format="csv",
    ),
}


@pytest.mark.parametrize("experiment", sorted(_DEFAULT_DATA))
def test_default_config_data(experiment):
    data = default_config(experiment).data_dict()
    assert data == _DEFAULT_DATA[experiment]
    assert list(data) == list(_DEFAULT_DATA[experiment])  # header key order


class TestConfigParsing:
    def test_flat_file_roundtrip(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# comment line\n"
            "experiment = gap-scan\n"
            "n = 20\n"
            "u = 1.0\n"
            "w = 0.8\n"
            "bc = periodic\n"
            "gamma_grid = 0:0.6:4\n"
            "realizations = 5\n"
            "master_seed = 17\n"
        )
        entries = load_config_file(cfg_file)
        assert entries["n"] == 20
        assert entries["bc"] == "periodic"
        assert entries["gamma_grid"] == tuple(np.linspace(0.0, 0.6, 4))

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("tempo = 7\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config_file(cfg_file)

    def test_grid_must_increase(self):
        cfg = RunConfig(experiment="mean-nu", gamma_grid=(0.5, 0.2))
        with pytest.raises(ValueError, match="strictly increasing"):
            cfg.validate()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["u", "w", "alpha", "gamma_grid", "w_grid"])
    def test_non_finite_values_rejected(self, key, value):
        fields = {"gamma_grid": (0.1, 0.4), "w_grid": (0.9,)}
        fields[key] = (0.2, value) if key.endswith("_grid") else value
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            RunConfig(experiment="phase-diagram", **fields).validate()

    def test_selftest_is_not_an_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            default_config("selftest")
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment(RunConfig(experiment="selftest", gamma_grid=(0.0,)))

    def test_comma_grid(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("gamma_grid = 0.1, 0.2, 0.35\n")
        assert load_config_file(cfg_file)["gamma_grid"] == (0.1, 0.2, 0.35)


class TestRunners:
    def test_mean_nu_file_layout(self, tmp_path):
        cfg = tiny("mean-nu", tmp_path)
        path = run_experiment(cfg)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1].startswith("# version: sshlab")
        assert lines[2] == "# columns: gamma,mc_mean_nu,mc_stderr,analytic_mean_nu,n_excluded"
        assert len(lines) == 3 + 2  # one row per gamma point
        assert path.with_suffix(".csv.meta.json").exists()

    def test_single_point_grid(self, tmp_path):
        cfg = tiny("mean-nu", tmp_path, gamma_grid=(0.3,))
        path = run_experiment(cfg)
        rows = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == 1

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = tiny("mean-nu", tmp_path)
        first = run_experiment(cfg).read_bytes()
        second = run_experiment(cfg).read_bytes()
        assert first == second

    def test_threads_do_not_change_data(self, tmp_path):
        from dataclasses import replace

        cfg = tiny("gap-scan", tmp_path, n=10, realizations=6)
        one = data_section(run_experiment(replace(cfg, threads=1)))
        two = data_section(run_experiment(replace(cfg, threads=2)))
        assert one == two

    def test_edge_modes_threads_do_not_change_bytes(self, tmp_path):
        from dataclasses import replace

        from sshlab.ensemble import _PROFILE_BLOCK

        cfg = tiny("edge-modes", tmp_path, n=10, realizations=3 * _PROFILE_BLOCK + 2)
        runs = [
            run_experiment(replace(cfg, threads=t, out=str(tmp_path / f"em{t}.csv")))
            for t in (1, 2, 0)
        ]
        assert runs[0].read_bytes() == runs[1].read_bytes() == runs[2].read_bytes()

    def test_small_edge_modes_run_starts_no_pool(self, tmp_path, monkeypatch):
        from dataclasses import replace

        from sshlab import ensemble

        def no_fork():
            raise AssertionError("process forked")

        monkeypatch.setattr(ensemble.os, "fork", no_fork)
        cfg = tiny("edge-modes", tmp_path, n=10, realizations=4)
        run_experiment(replace(cfg, threads=2))

    def test_embedded_config_reproduces_data(self, tmp_path):
        from dataclasses import replace

        cfg = tiny("gap-scan", tmp_path, n=10, realizations=6)
        path = run_experiment(cfg)
        recovered = read_embedded_config(path)
        rerun = run_experiment(
            replace(recovered, out=str(tmp_path / "rerun.csv"), threads=2)
        )
        assert data_section(path) == data_section(rerun)

    def test_seventeen_digit_serialization(self, tmp_path):
        cfg = tiny("mean-nu", tmp_path, gamma_grid=(0.1,))
        path = run_experiment(cfg)
        row = data_section(path).splitlines()[0]
        first = row.split(",")[0]
        assert first == "%.17g" % 0.1
        assert float(first) == 0.1

    def test_json_format(self, tmp_path):
        cfg = tiny("mean-nu", tmp_path, format="json", out=str(tmp_path / "mn.json"))
        path = run_experiment(cfg)
        doc = json.loads(path.read_text())
        assert doc["columns"][0] == "gamma"
        assert len(doc["data"]) == 2
        assert read_embedded_config(path).gamma_grid == cfg.gamma_grid

    def test_edge_modes_columns(self, tmp_path):
        cfg = tiny("edge-modes", tmp_path, n=10, realizations=4, gamma_grid=(0.0, 0.4))
        path = run_experiment(cfg)
        header = [l for l in path.read_text().splitlines() if l.startswith("# columns")][0]
        cols = header.split(": ")[1].split(",")
        assert cols[:3] == ["gamma", "mean_nu", "nu_stderr"]
        assert len(cols) == 3 + 10

    def test_phase_diagram_runs(self, tmp_path):
        cfg = tiny(
            "phase-diagram",
            tmp_path,
            n=8,
            gamma_grid=(0.0, 0.3),
            w_grid=(0.8, 1.0, 1.2),
        )
        path = run_experiment(cfg)
        rows = data_section(path).splitlines()
        assert len(rows) == 6
        # gamma = 0 rows: boundary column sits exactly at w = u
        first = rows[0].split(",")
        assert float(first[4]) == 1.0

    def test_phase_diagram_flips_track_boundary(self, tmp_path):
        # single-realization index flips along gamma stay within the
        # finite-size fluctuation width of the analytic boundary
        from sshlab.analytic import critical_gamma, fluctuation_width

        n, w = 300, 0.9
        cfg = tiny(
            "phase-diagram",
            tmp_path,
            n=n,
            master_seed=12,
            gamma_grid=tuple(np.linspace(0.3, 0.75, 19)),
            w_grid=(w,),
        )
        path = run_experiment(cfg)
        rows = [r.split(",") for r in data_section(path).splitlines()]
        gammas = np.array([float(r[0]) for r in rows])
        nus = np.array([float(r[3]) for r in rows])
        flips = [
            0.5 * (gammas[i] + gammas[i + 1])
            for i in range(len(nus) - 1)
            if nus[i] != nus[i + 1]
        ]
        boundary = critical_gamma(1.0, w)
        width = fluctuation_width(1.0, n)
        assert flips, "no topological transition found along the gamma column"
        assert all(abs(f - boundary) <= 2.0 * width for f in flips)

    def test_phase_diagram_floors_unresolved_gaps(self, tmp_path):
        # gamma = 0, w = u: the clean 300-dimer ring is gapless, and the
        # kernels' gap (rounding) is written as a zero gap; w = 0.8 keeps log(gap/2u)
        from sshlab import ensemble, model, spectrum

        cfg = tiny("phase-diagram", tmp_path, n=300, gamma_grid=(0.0,), w_grid=(0.8, 1.0))
        rows = [r.split(",") for r in data_section(run_experiment(cfg)).splitlines()]
        assert rows[1][2] == "-inf"
        real = ensemble.sample_realization(
            ensemble.FlatDistribution(gamma=0.0, u=1.0), 300, cfg.master_seed, 0
        )
        params = model.ChainParams(n=300, u=1.0, w=0.8, bc=model.BoundaryCondition.PERIODIC)
        gap = spectrum.chain_gap(model.build_chain(params, real))
        assert rows[0][2] == "%.17g" % math.log(gap / 2.0)

    def test_sidecar_records_workers_and_pool(self, tmp_path):
        import os
        from dataclasses import replace

        # 2 gamma x 40 rings of 10 dimers: two ring blocks of 40
        cfg = tiny("gap-scan", tmp_path, n=10, realizations=40)
        paths, metas = {}, {}
        for t in (1, 2, 0):
            paths[t] = run_experiment(replace(cfg, threads=t, out=str(tmp_path / f"gs{t}.csv")))
            metas[t] = json.loads(paths[t].with_suffix(".csv.meta.json").read_text())
        assert (metas[1]["workers"], metas[1]["pool_started"]) == (1, False)
        assert metas[2]["workers"] == min(2, os.cpu_count() or 1)
        assert metas[2]["pool_started"] == (metas[2]["workers"] > 1)
        assert metas[0]["threads"] == 0 and metas[0]["workers"] == (os.cpu_count() or 1)
        assert paths[1].read_bytes() == paths[2].read_bytes() == paths[0].read_bytes()
        replay = run_experiment(
            replace(read_embedded_config(paths[0]), out=str(tmp_path / "replay.csv"))
        )
        assert replay.read_bytes() == paths[1].read_bytes()

    def test_sidecar_records_processes_the_pool_may_start(self, tmp_path, fake_pool):
        # 2 x 600 index rows in blocks of 500: the sweep pools, on 2 CPUs
        argv = ["mean-nu", "--n", "10", "--realizations", "600", "--gamma-grid", "0.2,0.4"]
        for t in (1, 4):
            assert main([*argv, "--threads", str(t), "--out", str(tmp_path / f"nu{t}.csv")]) == 0
        meta = json.loads((tmp_path / "nu4.csv.meta.json").read_text())
        assert (meta["threads"], meta["workers"], meta["pool_started"]) == (4, 2, True)
        assert fake_pool == [2]
        assert (tmp_path / "nu4.csv").read_bytes() == (tmp_path / "nu1.csv").read_bytes()

    def test_one_cpu_starts_no_pool(self, tmp_path, monkeypatch):
        from dataclasses import replace

        from sshlab import ensemble

        def no_fork():
            raise AssertionError("process forked")

        # 2 gamma x 40 rings in blocks of 40: forked wherever two processes may run
        cfg = tiny("gap-scan", tmp_path, n=10, realizations=40)
        one = run_experiment(replace(cfg, threads=1, out=str(tmp_path / "gs1.csv")))
        monkeypatch.setattr(ensemble.os, "fork", no_fork)
        monkeypatch.setattr(ensemble.os, "cpu_count", lambda: 1)
        for t in (0, 2, 4):
            path = run_experiment(replace(cfg, threads=t, out=str(tmp_path / f"gs{t}.csv")))
            meta = json.loads(path.with_suffix(".csv.meta.json").read_text())
            assert (meta["threads"], meta["workers"], meta["pool_started"]) == (t, 1, False)
            assert [s["pooled"] for s in meta["sweeps"]] == [False, False]
            assert path.read_bytes() == one.read_bytes()

    def test_small_ring_sweep_starts_no_pool(self, tmp_path, monkeypatch):
        from dataclasses import replace

        from sshlab import ensemble

        def no_fork():
            raise AssertionError("process forked")

        # perfbench's gap-scan: 2 gamma x 4 rings of 250 dimers, one ring block
        cfg = tiny("gap-scan", tmp_path, n=250, realizations=4, gamma_grid=(0.0, 0.8))
        one = run_experiment(replace(cfg, threads=1, out=str(tmp_path / "gs1.csv")))
        monkeypatch.setattr(ensemble.os, "fork", no_fork)
        two = run_experiment(replace(cfg, threads=2, out=str(tmp_path / "gs2.csv")))
        meta = json.loads(two.with_suffix(".csv.meta.json").read_text())
        assert meta["pool_started"] is False
        assert [(s["blocks"], s["pooled"]) for s in meta["sweeps"]] == [(1, False), (1, False)]
        assert two.read_bytes() == one.read_bytes()

    def test_sidecar_records_thread_env(self, tmp_path, monkeypatch):
        from dataclasses import replace

        from sshlab.cli import _THREAD_ENV

        cfg = tiny("gap-scan", tmp_path, n=10, realizations=40, threads=2)
        for name in _THREAD_ENV:
            monkeypatch.delenv(name, raising=False)
        bare = run_experiment(replace(cfg, out=str(tmp_path / "bare.csv")))
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        capped = run_experiment(replace(cfg, out=str(tmp_path / "capped.csv")))
        metas = [json.loads(p.with_suffix(".csv.meta.json").read_text()) for p in (bare, capped)]
        assert metas[0]["thread_env"] == dict.fromkeys(_THREAD_ENV)
        assert metas[1]["thread_env"] == {
            "MKL_NUM_THREADS": None,
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "2",
        }
        assert metas[1]["pool_started"]
        assert capped.read_bytes() == bare.read_bytes()

    def test_sidecar_records_sweeps(self, tmp_path):
        from dataclasses import replace

        cfg = tiny("gap-scan", tmp_path, n=10, realizations=40)
        metas = {}
        for t in (1, 2):
            path = run_experiment(replace(cfg, threads=t, out=str(tmp_path / f"gs{t}.csv")))
            metas[t] = json.loads(path.with_suffix(".csv.meta.json").read_text())
            assert "sweeps" not in path.read_text()
        # 2 gamma x 40 rings in blocks of 40, and the 80 index rows in one block
        assert metas[2]["sweeps"] == [
            {"quantity": "mean_gap", "blocks": 2, "pooled": True},
            {"quantity": "mean_nu", "blocks": 1, "pooled": False},
        ]
        assert [s["pooled"] for s in metas[1]["sweeps"]] == [False, False]
        em = run_experiment(tiny("edge-modes", tmp_path, n=10, realizations=4, threads=2))
        sweeps = json.loads(em.with_suffix(".csv.meta.json").read_text())["sweeps"]
        assert [(s["blocks"], s["pooled"]) for s in sweeps] == [(1, False), (1, False)]

    def test_phase_diagram_weak_boundary_is_the_leading_order(self, tmp_path):
        from sshlab.analytic import critical_gamma_weak

        gammas = (0.0, 0.05, 0.1, 0.2, 0.3)
        cfg = tiny("phase-diagram", tmp_path, n=4, gamma_grid=gammas, w_grid=(0.9,))
        text = data_section(run_experiment(cfg))
        for gamma, row in zip(gammas, text.splitlines()):
            cols = row.split(",")
            w0, w0_weak = float(cols[4]), float(cols[5])
            # u - gamma^2/(2u) against u exp(z1), z1 = -gamma^2/(2u^2) - gamma^4/(4u^4) + ...
            assert abs(w0_weak - w0) <= gamma**4
            if gamma > 0.0:
                assert critical_gamma_weak(1.0, w0_weak) == pytest.approx(gamma, abs=1e-12)
        cfg = tiny("phase-diagram", tmp_path, n=4, gamma_grid=(0.5, 1.5), w_grid=(0.9,))
        rows = data_section(run_experiment(cfg)).splitlines()
        assert [row.split(",")[5] for row in rows] == ["0.875", "nan"]

    def test_born_zero_dimerization_prints_positive_zero(self, tmp_path):
        out = tmp_path / "born.csv"
        argv = ["born", "--w-grid", "1.0", "--gamma-grid", "0.1,0.2", "--out", str(out)]
        assert main(argv) == 0
        lines = out.read_text().splitlines()
        columns = lines[2][len("# columns: ") :].split(",")
        rows = [line.split(",") for line in lines[3:]]
        assert len(rows) == 2
        assert all(row[columns.index("g_np_re")] == "0" for row in rows)
        assert not any(field == "-0" for row in rows for field in row)

    def test_born_runs(self, tmp_path):
        cfg = tiny(
            "born",
            tmp_path,
            gamma_grid=(0.1, 0.2),
            w_grid=(0.99,),
        )
        path = run_experiment(cfg)
        rows = data_section(path).splitlines()
        assert len(rows) == 2
        cols = rows[0].split(",")
        assert len(cols) == 12

    def test_invariant_runs(self, tmp_path):
        cfg = tiny("invariant", tmp_path, gamma_grid=(0.0, 0.5))
        path = run_experiment(cfg)
        rows = data_section(path).splitlines()
        assert len(rows) == 2


def test_perfbench_layers_resolve():
    # perfbench/spans.py wraps these functions by name for its traced runs
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for label, (module, names) in spans.LAYERS.items():
        home = importlib.import_module(f"sshlab.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"{label}: sshlab.{module}.{name}"


class TestMainEntry:
    def test_selftest_exit_code(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "FAIL" not in out
        assert "ok  block index" in out
        assert "ok  z2 routes" in out

    @pytest.mark.parametrize("module", ["sshlab.cli", "sshlab"])
    def test_run_as_module_without_runpy_warning(self, tmp_path, module):
        out = tmp_path / "inv.csv"
        argv = ["invariant", "--gamma-grid", "0:0.5:2", "--out", str(out)]
        proc = run_python(["-m", module, *argv], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stdout.strip() == str(out)
        assert len(data_section(out).splitlines()) == 2

    def test_runtime_loads_no_scipy(self, tmp_path):
        script = textwrap.dedent(
            """
            import sys
            from dataclasses import replace
            from sshlab import cli

            tiny = dict(n=8, realizations=4, gamma_grid=(0.1, 0.4), threads=1)
            names = ("mean-nu", "gap-scan", "edge-modes", "phase-diagram", "invariant", "born")
            for name in names:
                cfg = replace(cli.default_config(name), out=name + ".csv", **tiny)
                if cfg.w_grid:
                    cfg = replace(cfg, w_grid=(0.8, 1.1))
                cli.run_experiment(cfg)
            assert cli.run_selftest() == 0
            loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
            assert not loaded, loaded
            print("ok")
            """
        )
        proc = run_python(["-c", script], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "ok"

    def test_density_quadrature_oracle_imports_scipy(self, tmp_path):
        script = textwrap.dedent(
            f"""
            import sys
            sys.path.insert(0, {str(Path(__file__).parent)!r})
            from oracles import FlatDensity, z2_quadrature

            assert not any(m.startswith("scipy") for m in sys.modules)
            z2_quadrature(FlatDensity(0.3, 1.0))
            assert "scipy.integrate" in sys.modules
            print("ok")
            """
        )
        proc = run_python(["-c", script], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"

    def test_cli_imports_no_process_pool(self, tmp_path):
        pools = "{'concurrent.futures', 'multiprocessing'}"
        script = f"import sys, sshlab.cli; print(sorted({pools} & set(sys.modules)))"
        proc = run_python(["-c", script], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_forked_sweep_error_matches_in_process(self, tmp_path, capsys, monkeypatch):
        from sshlab import ensemble

        # 200 rings of 6 dimers: four ring blocks, every one of them non-finite
        monkeypatch.setattr(ensemble.os, "cpu_count", lambda: 2)
        argv = ["gap-scan", "--n", "6", "--realizations", "200", "--gamma-grid", "1e308"]
        errors = []
        for t in (1, 2):
            out = tmp_path / f"gs{t}.csv"
            assert main([*argv, "--threads", str(t), "--out", str(out)]) == 2
            errors.append(capsys.readouterr().err)
            assert not out.exists()
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
        assert errors[0] == errors[1] == "error: couplings must be finite\n"

    def test_cli_overrides_config_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "n = 8\nrealizations = 10\ngamma_grid = 0.1,0.3\nmaster_seed = 1\n"
        )
        out = tmp_path / "a.csv"
        code = main(
            [
                "mean-nu",
                "--config",
                str(cfg_file),
                "--seed",
                "99",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert read_embedded_config(out).master_seed == 99

    @pytest.mark.parametrize("named, code", [("gap-scan", 2), ("mean-nu", 0)])
    def test_config_file_experiment_must_match(self, tmp_path, capsys, named, code):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"experiment = {named}\nn = 8\nrealizations = 4\ngamma_grid = 0.2\n")
        out = tmp_path / "m.csv"
        assert main(["mean-nu", "--config", str(cfg_file), "--out", str(out)]) == code
        if code:
            assert "error:" in capsys.readouterr().err and not out.exists()
        else:
            assert read_embedded_config(out).experiment == "mean-nu"

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        code = main(
            ["mean-nu", "--gamma-grid", "0.5,0.1", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["mean-nu", "--w", "0"], "w must be nonzero"),
            (["gap-scan", "--u", "0"], "u must be nonzero"),
        ],
    )
    def test_zero_coupling_parameters_exit_code(self, tmp_path, capsys, argv, message):
        small = ["--n", "8", "--realizations", "4", "--gamma-grid", "0.1,0.3"]
        code = main(argv + small + ["--out", str(tmp_path / "z.csv")])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["mean-nu", "--gamma-grid", "nan"], ["mean-nu", "--w", "nan"], ["gap-scan", "--u", "inf"]],
    )
    def test_non_finite_values_exit_code(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        assert main(argv + ["--realizations", "4", "--out", str(out)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_edge_modes_rejects_rings(self, tmp_path, capsys):
        code = main(["edge-modes", "--bc", "periodic", "--out", str(tmp_path / "e.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "open boundaries" in err

    @pytest.mark.parametrize(
        "flags", [["--n", "abc"], ["--gamma-grid", "1:2"], ["--realizations", "1.5"]]
    )
    def test_malformed_flags_exit_code(self, tmp_path, capsys, flags):
        code = main(["mean-nu", *flags, "--out", str(tmp_path / "m.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_failed_run_exit_code(self, tmp_path, capsys):
        # every gamma = 0 realization of the clean critical chain is critical
        out = tmp_path / "m.csv"
        argv = ["mean-nu", "--w", "1.0", "--gamma-grid", "0,0.5", "--realizations", "20"]
        assert main(argv + ["--n", "10", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "non-critical realizations" in err
        assert not out.exists()

    def test_reports_output_path(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        code = main(
            [
                "mean-nu",
                "--n",
                "8",
                "--realizations",
                "8",
                "--gamma-grid",
                "0.2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert str(out) in capsys.readouterr().out
