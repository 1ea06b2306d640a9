import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from swmac.cli import main
from swmac.config import MAX_SAMPLES
from swmac.outage import OutageEvaluationError

CONFIG_TEXT = """
seed = 3
mc_samples = 5000
thetas = -1, 0, 1
rate_start = 0.25
rate_stop = 0.5
rate_step = 0.25
[budget]
p1 = 1
p2 = 5
noise = 1
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(CONFIG_TEXT)
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_outage_with_config(config_file, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["outage", "--config", config_file, "--out", str(out)]) == 0
    parsed = read_csv(out)
    assert parsed[0] == ["budget_id", "theta", "rate", "method", "op", "std_err", "flag"]
    assert len(parsed) == 1 + 1 * 3 * 2 * 3
    assert "wrote 18 rows" in capsys.readouterr().out


def test_outage_with_preset_and_overrides(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "outage",
            "--preset",
            "fig2",
            "--seed",
            "42",
            "--samples",
            "2000",
            "--methods",
            "quadrature",
            "--tol",
            "1e-9",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    parsed = read_csv(out)
    assert len(parsed) == 1 + 2 * 5 * 30 * 1
    assert all(len(row) == 7 for row in parsed)
    assert {row[3] for row in parsed[1:]} == {"quadrature"}


def test_preset_list(capsys):
    assert main(["preset", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig2", "fig3", "fig4"):
        assert name in out


def test_region_subcommand(tmp_path):
    out = tmp_path / "region.csv"
    assert main(["region", "--preset", "fig2", "--r0", "0.5", "--out", str(out)]) == 0
    parsed = read_csv(out)
    assert parsed[0] == ["r1", "r2"]
    assert len(parsed) > 2


def test_region_with_gains(tmp_path):
    out = tmp_path / "region.csv"
    code = main(
        ["region", "--preset", "fig2", "--gains", "1.5,0.5", "--budget-index", "1", "--out", str(out)]
    )
    assert code == 0


def test_sample_subcommand(config_file, tmp_path):
    out = tmp_path / "samples.csv"
    code = main(
        ["sample", "--config", config_file, "--theta", "0.9", "--samples", "1500", "--out", str(out)]
    )
    assert code == 0
    assert len(read_csv(out)) == 1501


def test_sample_count_is_not_the_monte_carlo_setting(config_file, tmp_path):
    # Emitting fewer than 1000 pairs is fine; the mc_samples floor applies
    # to sweep evaluation only.
    out = tmp_path / "samples.csv"
    assert main(["sample", "--config", config_file, "--samples", "500", "--out", str(out)]) == 0
    assert len(read_csv(out)) == 501


def test_compare_subcommand(config_file, tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--config", config_file, "--out", str(out)]) == 0
    assert "points compared: 6" in capsys.readouterr().out
    assert len(read_csv(out)) == 7


def test_compare_calls_the_spans_the_benchmark_traces(config_file, tmp_path, monkeypatch):
    # perfbench/run.py reads sweep.compare_ms and sweep.emit_comparison_csv_us
    # from the spans of sweep.compare_methods and sweep.emit_comparison_csv,
    # which its tracer wraps under these names in the swmac.cli namespace.
    # A compare that stops calling one of them must fail here, not read 0 in
    # the benchmark.
    import swmac.cli as cli_module

    calls = []
    for name in ("compare_methods", "emit_comparison_csv"):
        original = getattr(cli_module, name)
        assert (original.__module__, original.__qualname__) == ("swmac.sweep", name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli_module, name, counted)
    assert main(["compare", "--config", config_file, "--out", str(tmp_path / "c.csv")]) == 0
    assert calls == ["compare_methods", "emit_comparison_csv"]


def test_outage_calls_the_spans_the_benchmark_traces(config_file, tmp_path, monkeypatch):
    # perfbench/run.py reads sweep.row_overhead_us and sweep.emit_csv_us from
    # the spans of sweep.run_outage_sweep and sweep.emit_csv, wrapped under
    # these names in the swmac.cli namespace.
    import swmac.cli as cli_module

    calls = []
    for name in ("run_outage_sweep", "emit_csv"):
        original = getattr(cli_module, name)
        assert (original.__module__, original.__qualname__) == ("swmac.sweep", name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli_module, name, counted)
    assert main(["outage", "--config", config_file, "--out", str(tmp_path / "o.csv")]) == 0
    assert calls == ["run_outage_sweep", "emit_csv"]


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_exit_1_on_missing_config(tmp_path, capsys):
    assert main(["outage", "--config", str(tmp_path / "nope.txt"), "--out", "x.csv"]) == 1
    assert "error:" in capsys.readouterr().err


def test_exit_1_on_invalid_config(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("thetas = 1.5\n[budget]\np1 = 1\np2 = 1\nnoise = 1\n")
    assert main(["outage", "--config", str(bad), "--out", "x.csv"]) == 1


def test_exit_1_on_usage_error(capsys):
    assert main(["outage"]) == 1  # neither --config nor --preset
    assert main(["bogus-command"]) == 1


def test_exit_1_on_region_validation_errors(tmp_path, config_file, capsys):
    out = tmp_path / "r.csv"
    for args in (["--r0", "1e9"], ["--budget-index", "5"], ["--budget-index", "-1"], ["--gains", "1.0"]):
        assert main(["region", "--config", config_file, *args, "--out", str(out)]) == 1
        assert not out.exists()
    # Non-finite gains, and finite ones whose bounds overflow, name the gains.
    common_power = tmp_path / "common.txt"
    common_power.write_text("[budget]\np0 = 0.5\np1 = 1\np2 = 2\nnoise = 1\n")
    for gains, message in (
        ("inf,1", "g1 must be finite and >= 0, got inf"),
        ("1,nan", "g2 must be finite and >= 0, got nan"),
        ("1e308,1e308", "region bounds overflow for gains g1=1e+308, g2=1e+308"),
    ):
        for source in (["--config", str(common_power)], ["--preset", "fig2"]):
            capsys.readouterr()
            assert main(["region", *source, "--gains", gains, "--out", str(out)]) == 1
            assert message in capsys.readouterr().err
            assert not out.exists()


def test_exit_1_on_negative_sample_count_writes_no_file(config_file, tmp_path, capsys):
    out = tmp_path / "samples.csv"
    assert main(["sample", "--config", config_file, "--samples", "-3", "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["outage", "compare", "sample"])
def test_exit_1_on_samples_above_the_cap_writes_no_file(command, config_file, tmp_path, capsys):
    # checked before any draw: at the cap's 1000x a sweep would run for days
    out = tmp_path / "x.csv"
    samples = str(1000 * MAX_SAMPLES)
    assert main([command, "--config", config_file, "--samples", samples, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"MAX_SAMPLES = {MAX_SAMPLES}" in err
    assert not out.exists()


def test_exit_1_on_single_method_compare(config_file, tmp_path):
    code = main(
        ["compare", "--config", config_file, "--methods", "quadrature", "--out", str(tmp_path / "c.csv")]
    )
    assert code == 1


@pytest.mark.parametrize("command", ["outage", "compare"])
@pytest.mark.parametrize("methods", ["", " , "])
def test_exit_1_on_empty_methods_writes_no_file(command, methods, config_file, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main([command, "--config", config_file, "--methods", methods, "--out", str(out)]) == 1
    assert "methods must be nonempty" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "rate_lines",
    [
        "rate_start = 0.1\nrate_stop = inf\nrate_step = 0.1\n",
        "rate_start = 0.1\nrate_stop = 3.0\nrate_step = 1e-9\n",
    ],
    ids=["infinite-stop", "tiny-step"],
)
def test_exit_1_on_unbounded_rate_axis(rate_lines, tmp_path, capsys):
    path = tmp_path / "cfg.txt"
    path.write_text(rate_lines + "[budget]\np1 = 1\np2 = 5\nnoise = 1\n")
    out = tmp_path / "x.csv"
    assert main(["outage", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "text",
    [
        "[budget]\np1 = 1\np2 = 5\nnoise = inf\n",
        "[budget]\np1 = inf\np2 = 5\nnoise = 1\n",
        "[budget]\np1 = 1\np2 = 5\nnoise = nan\n",
        "lambda1 = inf\n[budget]\np1 = 1\np2 = 5\nnoise = 1\n",
        "sigma1_sq = 1e-320\n[budget]\np1 = 1\np2 = 5\nnoise = 1\n",  # lambda1 = inf
        "rate_start = 600\nrate_stop = 600\n[budget]\np1 = 1\np2 = 5\nnoise = 1\n",
        "rate_start = 14\nrate_stop = 14\n[budget]\np1 = 1\np2 = 5\nnoise = 1e300\n",
    ],
    ids=[
        "noise-inf",
        "p1-inf",
        "noise-nan",
        "lambda1-inf",
        "sigma1-subnormal",
        "rate-overflow",  # 2^(2R) overflows
        "gamma-overflow",  # N*(2^(2R) - 1) overflows
    ],
)
def test_exit_1_on_non_finite_inputs(text, tmp_path, capsys):
    path = tmp_path / "cfg.txt"
    path.write_text(text)
    out = tmp_path / "x.csv"
    assert main(["outage", "--config", str(path), "--methods", "quadrature", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not out.exists()


def _src_env():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


# Runs `swmac region` with a membership test that rejects every point, in the
# module named by argv[1]: swmac.sweep (the check on the emitted vertices) or
# swmac.regions (the vertex snapping).
_REJECTING_REGION_RUN = """
import sys
import importlib
import swmac.cli
module = importlib.import_module(sys.argv[1])
module.contains = lambda bounds, point: False
code = swmac.cli.main(["region", "--preset", "fig2", "--r0", "0.5", "--out", sys.argv[2]])
print(__debug__, code)
"""


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["plain", "python-O"])
@pytest.mark.parametrize("module", ["swmac.sweep", "swmac.regions"])
def test_exit_2_when_a_region_vertex_fails_membership(module, optimize, tmp_path):
    out = tmp_path / "region.csv"
    proc = subprocess.run(
        [sys.executable, *optimize, "-c", _REJECTING_REGION_RUN, module, str(out)],
        cwd=tmp_path,
        env=_src_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(not optimize), "2"]
    assert proc.stderr.startswith("evaluation failed: ")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_python_dash_m_runs_the_cli(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "swmac", "preset", "list"],
        cwd=tmp_path,
        env=_src_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("fig2: ")


def test_exit_2_on_evaluator_failure(monkeypatch, config_file, tmp_path, capsys):
    import swmac.cli as cli_module

    def boom(config, workers=1):
        raise OutageEvaluationError("synthetic failure")

    monkeypatch.setattr(cli_module, "run_outage_sweep", boom)
    code = main(["outage", "--config", config_file, "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "evaluation failed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "error,code,prefix",
    [(OutageEvaluationError, 2, "evaluation failed: "), (ValueError, 1, "error: ")],
)
def test_exit_code_of_an_exception_raised_in_a_worker(
    forked_pool_of_two, monkeypatch, config_file, tmp_path, capsys, error, code, prefix
):
    import swmac.sweep

    parent = os.getpid()

    def failing_block(config, t_i, rates):
        if os.getpid() == parent:
            raise AssertionError("a theta block ran in the parent")
        raise error("synthetic worker failure")

    monkeypatch.setattr(swmac.sweep, "_theta_block", failing_block)
    out = tmp_path / "x.csv"
    assert main(["outage", "--config", config_file, "--workers", "0", "--out", str(out)]) == code
    assert f"{prefix}synthetic worker failure" in capsys.readouterr().err
    assert not out.exists()


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


# A closed-form and quadrature sweep of a preset never reaches the adaptive
# fallback, so it must not pay for importing scipy.
_ANALYTIC_SWEEP_RUN = """
import sys
import swmac.cli
code = swmac.cli.main(
    ["outage", "--preset", "fig2", "--methods", "closed-form,quadrature", "--out", sys.argv[1]]
)
print(code, "scipy" in sys.modules)
"""


def test_analytic_preset_sweep_does_not_import_scipy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _ANALYTIC_SWEEP_RUN, str(tmp_path / "sweep.csv")],
        cwd=tmp_path,
        env=_src_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"]


# A pooled compare: two workers, even on a 1-CPU host, draw every Monte Carlo
# block, so the parent needs neither numpy.random nor an executor.  The
# first line shows that importing the CLI loads no process machinery either.
_POOLED_COMPARE_RUN = """
import os
import sys
import swmac.cli
print(*(m in sys.modules for m in ("multiprocessing", "concurrent.futures")))
os.sched_getaffinity = lambda pid: {0, 1}
code = swmac.cli.main(
    ["compare", "--preset", "fig3", "--samples", "20000", "--workers", "0", "--out", sys.argv[1]]
)
print(code, *(m in sys.modules for m in ("multiprocessing", "numpy.random", "concurrent.futures")))
"""


def test_pooled_compare_leaves_the_sampler_and_executor_out_of_the_parent(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _POOLED_COMPARE_RUN, str(tmp_path / "compare.csv")],
        cwd=tmp_path,
        env=_src_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "False False"
    assert lines[-1] == "0 True False False"
