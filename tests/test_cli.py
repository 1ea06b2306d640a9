import csv
import os
import re
import subprocess
import sys
import warnings
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


def test_closed_form_at_fading_rates_near_the_float_limit_warns_nothing(tmp_path, capsys):
    # 2*l2 - P*l1 overflows to NaN: every row is marked, and nothing printed
    config = tmp_path / "huge.cfg"
    config.write_text("lambda1 = 1e308\nlambda2 = 1e308\nmethods = closed-form\n" + CONFIG_TEXT)
    out = tmp_path / "sweep.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["outage", "--config", str(config), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = read_csv(out)[1:]
    assert len(rows) == 6 and {row[-1] for row in rows} == {"out-of-range"}


@pytest.mark.parametrize(
    "p1,p2,expected",
    [
        (1.0, 1e-310, ("0.632120558829", "0.950212931632")),
        (1e-310, 5.0, ("0.181269246922", "0.451188363906")),
    ],
    ids=["upper-limit-overflow", "subnormal-first-weight"],
)
def test_analytic_sweep_on_a_subnormal_weight_warns_nothing(tmp_path, p1, p2, expected):
    # p2 = 1e-310 makes gamma/B overflow: quadrature ends the g2 range at
    # 2*40/lambda2 instead, where NaN panels used to be bisected forever.
    # p1 = 1e-310 overflows c* = (gamma - B*g2)/A, where P[g1 <= c*] = 1.
    # Either way the outage is the other gain's law alone at gamma over its
    # weight, 1 - e^-1 and 1 - e^-3, or 1 - e^-0.2 and 1 - e^-0.6, no numpy
    # warning escapes, and a child that hangs is killed, so the test fails
    # instead of stalling the suite.
    config = tmp_path / "subnormal.cfg"
    config.write_text(
        "thetas = -1, 0.5\nrate_start = 0.5\nrate_stop = 1.0\nrate_step = 0.5\n"
        f"[budget]\np1 = {p1!r}\np2 = {p2!r}\nnoise = 1\n"
    )
    argv = ["outage", "--config", str(config), "--methods", "closed-form,quadrature"]
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "swmac", *argv, "--out", "x.csv"],
        cwd=tmp_path,
        env=_src_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = read_csv(tmp_path / "x.csv")[1:]
    quadrature = [row for row in rows if row[3] == "quadrature"]
    assert {row[-1] for row in quadrature} == {"ok"}
    assert {(row[2], row[4]) for row in quadrature} == set(zip(("0.5", "1"), expected))
    assert len(rows) == 2 * 2 * 2


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


@pytest.mark.parametrize("command", ["outage", "compare", "sample", "region"])
@pytest.mark.parametrize(
    "key,flag,named",
    [
        ("quad_tol = 1e-8", [], "'quad_tol'"),
        ("output = y.csv", [], "'output'"),
        ("", ["--tol", "1e-8"], "--tol"),
    ],
    ids=["quad_tol-key", "output-key", "tol-flag"],
)
def test_exit_1_on_a_tolerance_or_output_setting_writes_no_file(
    command, key, flag, named, tmp_path, monkeypatch, capsys
):
    # quadrature answers to one relative error bound, and --out alone sets
    # the output path: either setting is refused by name, never ignored
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.txt").write_text(key + "\n" + CONFIG_TEXT)
    assert main([command, "--config", "cfg.txt", *flag, "--out", "x.csv"]) == 1
    assert named in capsys.readouterr().err
    assert [path.name for path in tmp_path.iterdir()] == ["cfg.txt"]


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


@pytest.mark.parametrize("seed", ["-5", str(1 << 64)])  # would alias 2**64 - 5 and 0
@pytest.mark.parametrize("source", ["flag", "key"])
@pytest.mark.parametrize("command", ["outage", "sample"])
def test_exit_1_on_a_seed_outside_64_bits_writes_no_file(command, source, seed, tmp_path, capsys):
    config = tmp_path / "cfg.txt"
    argv = [command, "--config", str(config), "--out", str(tmp_path / "x.csv")]
    if source == "flag":
        config.write_text(CONFIG_TEXT)
        argv += ["--seed", seed]
    else:
        config.write_text(CONFIG_TEXT.replace("seed = 3", f"seed = {seed}"))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed must be in [0, 2**64 - 1]" in err
    assert not (tmp_path / "x.csv").exists()


def test_the_largest_64_bit_seed_runs(config_file, tmp_path):
    out = tmp_path / "x.csv"
    argv = ["outage", "--config", config_file, "--seed", str((1 << 64) - 1), "--out", str(out)]
    assert main(argv) == 0
    assert len(read_csv(out)) == 1 + 18


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


def test_the_shared_parser_gives_a_fresh_process_bytes_after_a_failed_parse(
    config_file, tmp_path, capsys
):
    # the parser is built once per process: a call that fails to parse
    # leaves nothing behind that a later call would see
    argv = ["outage", "--config", config_file, "--seed", "9", "--workers", "1"]
    assert main(["outage", "--config", config_file, "--seed", "x"]) == 1
    assert main(["outage", "--nonsense"]) == 1
    assert main([*argv, "--out", str(tmp_path / "reused.csv")]) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "swmac", *argv, "--out", str(tmp_path / "fresh.csv")],
        cwd=tmp_path,
        env=_src_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "reused.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()


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
@pytest.mark.parametrize(
    "command,item,argv",
    [
        pytest.param("outage", "_share_counts", ["--workers", "0"], id="outage"),  # 2 blocks
        pytest.param("sample", "_sample_texts", ["--samples", "10000"], id="sample"),  # 3 blocks
    ],
)
def test_exit_code_of_an_exception_raised_in_a_worker(
    forked_pool_of_two, monkeypatch, config_file, tmp_path, capsys, command, item, argv,
    error, code, prefix,
):
    import swmac.sweep

    parent = os.getpid()

    def failing_item(*args):
        if os.getpid() == parent:
            raise AssertionError("an item ran in the parent")
        raise error("synthetic worker failure")

    monkeypatch.setattr(swmac.sweep, item, failing_item)
    out = tmp_path / "x.csv"
    assert main([command, "--config", config_file, *argv, "--out", str(out)]) == code
    assert f"{prefix}synthetic worker failure" in capsys.readouterr().err
    with pytest.raises(ChildProcessError):  # every worker has been reaped
        os.waitpid(-1, os.WNOHANG)
    # a sweep writes its CSV only once every row is in, and sample renames
    # its temporary file onto the CSV only once every block is in
    assert not out.exists()
    assert not list(tmp_path.glob(".x.csv.*"))


# A pooled command whose workers raise argv[1], KeyboardInterrupt or
# SystemExit(0), from swmac.sweep's argv[2], after the parent has buffered
# a line of standard output; the rest of argv is the command.
_DYING_WORKER_RUN = """
import os
import sys
import swmac.cli
import swmac.sweep
error, item, *argv = sys.argv[1:]
os.sched_getaffinity = lambda pid: {0, 1}
parent = os.getpid()


def dying(*args):
    if os.getpid() == parent:
        raise AssertionError("an item ran in the parent")
    raise {"KeyboardInterrupt": KeyboardInterrupt, "SystemExit": SystemExit}[error](0)


setattr(swmac.sweep, item, dying)
print("buffered in the parent")  # a worker that flushed its stdio would print it again
print(swmac.cli.main(argv))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="workers are forked on Linux only")
@pytest.mark.parametrize("error", ["KeyboardInterrupt", "SystemExit"])
@pytest.mark.parametrize(
    "item,argv",
    [
        pytest.param(
            "_share_counts", ["outage", "--preset", "fig3", "--samples", "10000", "--workers", "0"],
            id="outage",
        ),
        pytest.param("_sample_texts", ["sample", "--preset", "fig3", "--samples", "10000"], id="sample"),
    ],
)
def test_a_worker_stopped_by_an_interrupt_or_exit_names_its_exit_code(tmp_path, error, item, argv):
    proc = subprocess.run(
        [sys.executable, "-c", _DYING_WORKER_RUN, error, item, *argv, "--out", "x.csv"],
        cwd=tmp_path,
        env=_src_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # exit 2, and the worker ran none of its parent's code: the parent's
    # buffered line is printed once, and no output file is written
    assert proc.stdout.splitlines() == ["buffered in the parent", "2"]
    assert re.fullmatch(
        r"evaluation failed: worker \d+ exited with code [1-9]\d* before sending all its results\n",
        proc.stderr,
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv,out",
    [
        pytest.param(
            ["outage", "--preset", "fig3", "--samples", "10000", "--workers", "0"], "missing/x.csv",
            id="outage",
        ),
        pytest.param(
            ["compare", "--preset", "fig3", "--samples", "10000", "--workers", "0"], "missing/x.csv",
            id="compare",
        ),
        pytest.param(["region", "--preset", "fig2"], "missing/x.csv", id="region"),
        pytest.param(["sample", "--preset", "fig2", "--samples", "10000"], "missing/x.csv", id="sample"),
        pytest.param(
            ["sample", "--preset", "fig2", "--samples", "200000"], "dir", id="sample-onto-a-directory"
        ),
    ],
)
def test_exit_1_on_an_unwritable_output_path(forked_pool_of_two, argv, out, tmp_path, capsys):
    (tmp_path / "dir").mkdir()
    out = tmp_path / out
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in err
    # no file and no temporary file was left, and every worker was reaped
    assert [p.name for p in tmp_path.iterdir()] == ["dir"]
    assert list((tmp_path / "dir").iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


# Every subcommand with scipy made unimportable: a pooled sweep, a
# unit-noise quadrature sweep whose larger rates are bisected (argv[1] is
# its config), a compare, a sample, a region and the preset list.  The last
# line gives the exit codes and the number of quadrature rounds run.
_WITHOUT_SCIPY_RUN = """
import os
import sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
import swmac.cli
import swmac.outage
rounds = []
panel_terms = swmac.outage._panel_terms
swmac.outage._panel_terms = lambda *args: rounds.append(1) or panel_terms(*args)
os.sched_getaffinity = lambda pid: {0, 1}
runs = [
    ["outage", "--preset", "fig2", "--samples", "2000", "--workers", "0", "--out", "sweep.csv"],
    ["outage", "--config", sys.argv[1], "--methods", "quadrature", "--out", "unit.csv"],
    ["compare", "--preset", "fig3", "--samples", "2000", "--out", "compare.csv"],
    ["sample", "--preset", "fig2", "--samples", "1000", "--out", "samples.csv"],
    ["region", "--preset", "fig2", "--gains", "1.5,0.5", "--out", "region.csv"],
    ["preset", "list"],
]
codes = [swmac.cli.main(argv) for argv in runs]
print(*codes, len(rounds))
"""

_UNIT_NOISE_QUADRATURE = """
thetas = -1, 0, 1
rate_start = 0.1
rate_stop = 3.0
rate_step = 0.1
[budget]
p1 = 1
p2 = 5
noise = 1
"""


def test_every_subcommand_runs_without_scipy(tmp_path):
    config = tmp_path / "unit.cfg"
    config.write_text(_UNIT_NOISE_QUADRATURE)
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY_RUN, str(config)],
        cwd=tmp_path,
        env=_src_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    *codes, rounds = proc.stdout.split()[-7:]
    assert codes == ["0"] * 6
    # the two quadrature calls of the fig2 sweep take one round each, the
    # compare's one, and the unit-noise sweep's bisects
    assert int(rounds) > 4
    (flags,) = {row[-1] for row in read_csv(tmp_path / "unit.csv")[1:]}
    assert flags == "ok"


# A pooled compare and a pooled sample: two workers, even on a 1-CPU host,
# draw every Monte Carlo block and every block of pairs, so the parent needs
# neither numpy.random nor an executor, and it forks them itself, so it
# loads neither multiprocessing nor the socket and subprocess modules that
# multiprocessing would.  The first line shows that importing the CLI loads
# no process machinery either.
_POOLED_RUN = """
import os
import sys
import swmac.cli
modules = ("multiprocessing", "socket", "subprocess", "numpy.random", "concurrent.futures")
print(*(m in sys.modules for m in modules))
os.sched_getaffinity = lambda pid: {0, 1}
codes = [
    swmac.cli.main(["compare", "--preset", "fig3", "--samples", "20000", "--workers", "0",
                    "--out", sys.argv[1]]),
    swmac.cli.main(["sample", "--preset", "fig2", "--samples", "200000", "--out", sys.argv[2]]),
]
print(*codes, *(m in sys.modules for m in modules))
"""


def test_pooled_compare_leaves_the_sampler_and_executor_out_of_the_parent(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _POOLED_RUN, str(tmp_path / "compare.csv"), str(tmp_path / "s.csv")],
        cwd=tmp_path,
        env=_src_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "False False False False False"
    assert lines[-1] == "0 0 False False False False False"


# An analytic-only sweep: no Monte Carlo share is counted, so the seed is
# never derived and the process never loads numpy.random.
_ANALYTIC_RUN = """
import sys
import swmac.cli
argv = ["outage", "--preset", "fig2", "--methods", "closed-form,quadrature", "--out", sys.argv[1]]
print(swmac.cli.main(argv), "numpy.random" in sys.modules)
"""


def test_an_analytic_sweep_leaves_the_sampler_out_of_the_process(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _ANALYTIC_RUN, str(tmp_path / "analytic.csv")],
        cwd=tmp_path,
        env=_src_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


# A pooled compare under the forkserver start method, after a serial one;
# the last line gives both exit codes and the number of processes forked.
_FORKSERVER_COMPARE_RUN = """
import multiprocessing
import os
import sys
import swmac.cli
multiprocessing.set_start_method("forkserver")
forks = []
fork = os.fork
os.fork = lambda: forks.append(os.getpid()) or fork()
os.sched_getaffinity = lambda pid: {0, 1}
argv = ["compare", "--preset", "fig3", "--seed", "7", "--samples", "20000", "--workers"]
codes = [swmac.cli.main(argv + [w, "--out", out]) for w, out in zip("10", sys.argv[1:])]
print(*codes, len(forks))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="sweeps fork their workers on Linux only")
def test_pooled_compare_forks_its_workers_under_forkserver(tmp_path):
    serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
    proc = subprocess.run(
        [sys.executable, "-c", _FORKSERVER_COMPARE_RUN, str(serial), str(pooled)],
        cwd=tmp_path,
        env=_src_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 0 2"
    assert pooled.read_bytes() == serial.read_bytes()
