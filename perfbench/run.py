"""swmac benchmark: CLI workloads end to end, and per-layer timings from a traced run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload analytic-grid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Every workload runs one ``swmac`` command through ``swmac.cli.main(argv)``
with ``src`` on the path, in this one process and with at most ``nproc``
sweep workers.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reports the per-layer metrics of a separate traced run (see
``tracer.py``).  Either way the outputs pass the correctness gate of
``workloads.py`` or the command exits 1.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it give every metric with its unit and sample
count, and the host facts.  See ``NOTES.md`` for the choice of workloads
and the metric -> layer -> workload map.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 7  # fresh interpreters timed per run for setup_s
IMPORT_PROBES = 3  # fresh interpreters timed per traced run for cli.import_s
MICRO_PAIRS = 1 << 16  # one substream chunk
MICRO_REPEATS = 21
CHILD_TIMEOUT_S = 120


class GateFailure(Exception):
    pass


# -- host-speed calibration --------------------------------------------------
#
# The CPUs of a shared host change speed by +-30 % over seconds as other
# tenants load them, which moves the run-level median of a wall time by
# about 25 % between runs.  Every timed end-to-end interval is therefore
# bracketed by blocks of a fixed calibration job that uses no swmac code
# (pure Python arithmetic, dict and repr work, small numpy kernels: the mix
# the workloads spend their time in), and reported in reference seconds:
#
#     t_ref = t_wall * CAL_REF_S / mean(job time in the block before, block after)
#
# i.e. the time it would take on a host where one calibration job takes
# CAL_REF_S.  A block lasts at least CAL_SHARE of the interval it follows,
# so it samples the host state over a comparable stretch.  The raw wall
# figures are printed alongside.

CAL_REF_S = 0.1
CAL_SHARE = 0.25
_CAL_ARRAY = None


def calibration_job() -> float:
    """Wall seconds of one fixed calibration job."""
    global _CAL_ARRAY
    import numpy as np

    if _CAL_ARRAY is None:
        _CAL_ARRAY = np.random.default_rng(0).random(1 << 14)
    start = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i
    for _ in range(80):
        np.sqrt(_CAL_ARRAY * _CAL_ARRAY + 1.0).sum()
    table = {}
    for i in range(100_000):
        table[str(i)] = repr(i * 0.5)
    return time.perf_counter() - start


def calibration_block(seconds: float) -> float:
    """Mean job time over a block of at least one job lasting about ``seconds``."""
    jobs = [calibration_job()]
    while sum(jobs) + jobs[-1] <= seconds:
        jobs.append(calibration_job())
    return statistics.mean(jobs)


class HostClock:
    """Times intervals in reference seconds, each bracketed by calibration."""

    def __init__(self) -> None:
        self.last_cal = calibration_block(3 * CAL_REF_S)
        self.wall: list[float] = []
        self.cal: list[float] = []

    def timed(self, fn):
        """Run ``fn`` (which returns its own wall seconds); return reference seconds."""
        before = self.last_cal
        wall = fn()
        self.last_cal = calibration_block(CAL_SHARE * wall)
        self.wall.append(wall)
        self.cal.append(self.last_cal)
        return wall * CAL_REF_S / (0.5 * (before + self.last_cal))


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _child(code: str, cwd: Path) -> tuple[float, str]:
    """Run ``code`` in a fresh interpreter; return (wall seconds, stdout)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise GateFailure(f"child process failed ({proc.returncode}): {proc.stderr.strip()}")
    return wall, proc.stdout


class Runner:
    """Runs one prepared workload and keeps its gate tally."""

    def __init__(self, plan: workloads.Plan) -> None:
        import swmac.cli

        self.plan = plan
        self.cli = swmac.cli  # main is looked up per call so a tracer can wrap it
        self.attempted = 0
        self.failed = 0
        self.expected: bytes | None = None
        self.failed_in_expected = 0

    def call(self, argv=None) -> float:
        """One timed ``main(argv)`` call, from the call to the CSV being closed."""
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = self.cli.main(list(argv or self.plan.argv))
            wall = time.perf_counter() - start
        if code != 0:
            raise GateFailure(f"{self.plan.name}: swmac exited with {code}")
        return wall

    def first(self) -> None:
        """The warm-up call; its output is checked row by row."""
        self.call()
        self.expected = self.plan.out.read_bytes()
        attempted, failed = self.plan.check(self.expected.decode())
        self.failed_in_expected = failed
        self.attempted += attempted
        self.failed += failed
        if self.plan.serial_argv:
            # compare-parallel: the parallel CSV must equal a serial run's bytes.
            self.call(self.plan.serial_argv)
            serial = Path(self.plan.serial_argv[-1]).read_bytes()
            if serial != self.expected:
                self.failed += self.plan.rows - failed
                self.failed_in_expected = self.plan.rows

    def verify_repeat(self) -> None:
        """Later calls must write the same bytes as the checked one."""
        self.attempted += self.plan.rows
        if self.plan.out.read_bytes() == self.expected:
            self.failed += self.failed_in_expected
        else:
            self.failed += self.plan.rows


def _measure_setup(plan: workloads.Plan, cwd: Path, probes: int, clock: HostClock) -> list[float]:
    code = (
        "import swmac.cli\n"
        "from swmac.config import load_config, preset_config\n" + plan.config_code + "\n"
    )
    _child(code, cwd)  # untimed: fills the bytecode cache, which users pay once
    return [clock.timed(lambda: _child(code, cwd)[0]) for _ in range(probes)]


def _measure_peak_rss(plan: workloads.Plan, cwd: Path) -> float:
    code = (
        "import contextlib, io, sys\n"
        "import swmac.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = swmac.cli.main({plan.argv!r})\n"
        "if code != 0:\n"
        "    sys.exit(code)\n"
        # VmHWM belongs to this process image; ru_maxrss would also carry
        # the peak of the benchmark process it was started from.
        "for line in open('/proc/self/status'):\n"
        "    if line.startswith('VmHWM:'):\n"
        "        print(line.split()[1])\n"
    )
    _, out = _child(code, cwd)
    return int(out.strip().splitlines()[-1]) / 1024.0  # VmHWM is in KiB


def run_end_to_end(plan: workloads.Plan, cwd: Path, seconds: float, probes: int):
    runner = Runner(plan)
    runner.first()
    clock = HostClock()
    times = []
    deadline = time.perf_counter() + seconds
    while len(times) < 3 or time.perf_counter() < deadline:
        times.append(clock.timed(runner.call))
        runner.verify_repeat()
    wall = list(clock.wall)
    setup_clock = HostClock()
    setup = _measure_setup(plan, cwd, probes, setup_clock)
    rss = _measure_peak_rss(plan, cwd)
    metrics = {
        "rows_per_s": (plan.rows / statistics.median(times), "1/s", len(times)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (rss, "MB", 1),
        "raw.rows_per_s_wall": (plan.rows / statistics.median(wall), "1/s", len(wall)),
        "raw.setup_s_wall": (statistics.median(setup_clock.wall), "s", len(setup)),
        "raw.calibration_s": (statistics.median(clock.cal + setup_clock.cal), "s", len(clock.cal) + len(setup)),
    }
    return metrics, runner


# -- traced run ------------------------------------------------------------


def _copula_micro(repeats: int) -> dict:
    """Per-pair cost of each sampling step, called directly on one chunk."""
    from swmac.copula import (
        DependenceParameter,
        FadingMarginals,
        sample_gain_pairs,
        sample_unit_pairs,
    )
    from swmac.streams import substream

    theta = DependenceParameter(0.5)
    marginals = FadingMarginals(1.0, 1.0)
    n = MICRO_PAIRS
    steps = {
        "draw": lambda rng: rng.random((n, 2)),
        "unit": lambda rng: sample_unit_pairs(theta, n, rng),
        "gain": lambda rng: sample_gain_pairs(theta, marginals, n, rng),
    }
    samples = {k: [] for k in steps}
    for rep in range(repeats):
        for key, step in steps.items():
            rng = substream(rep, 7)
            start = time.perf_counter_ns()
            step(rng)
            samples[key].append((time.perf_counter_ns() - start) / n)
    tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    sample_gain_pairs(theta, marginals, n, substream(0, 7))
    peak = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.stop()
    draw, unit, gain = (statistics.median(samples[k]) for k in ("draw", "unit", "gain"))
    return {
        "copula.draw_ns": (draw, "ns", repeats),
        "copula.unit_pairs_ns": (unit, "ns", repeats),
        "copula.inversion_ns_derived": (unit - draw, "ns", repeats),
        "copula.gain_pairs_ns": (gain, "ns", repeats),
        "copula.exp_transform_ns_derived": (gain - unit, "ns", repeats),
        "copula.temp_bytes_per_pair": (peak / n, "bytes", 1),
    }


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_traced(target: str, seed: int, workdir: Path, seconds: float, tiny: bool):
    """Per-layer metrics from one traced call of every workload, plus the
    tracing overhead (traced minus untraced wall) of ``target``."""
    from tracer import END, LAYER, NAME, START, TRACED_MODULES, Tracer

    from swmac.config import load_config

    tracer = Tracer()
    windows: dict[str, tuple[int, int]] = {}
    runners = {}
    overhead = spans_per_call = None
    speedup = None
    for name, make in workloads.WORKLOADS.items():
        plan = make(workdir, seed, tiny)
        runner = runners[name] = Runner(plan)
        runner.first()
        with tracer.installed():
            first = len(tracer.spans)
            with tracer.span(f"bench.{name}", "bench"):
                runner.call()
            windows[name] = (first, len(tracer.spans))
        runner.verify_repeat()
        if name == "compare-parallel":
            serial, parallel = [], []
            for _ in range(3):
                serial.append(runner.call(plan.serial_argv))
                parallel.append(runner.call())
                runner.verify_repeat()
            speedup = (statistics.median(serial) / statistics.median(parallel), "x", len(serial))
        if name == target:
            plain, traced = [], []
            deadline = time.perf_counter() + seconds
            while len(plain) < 2 or time.perf_counter() < deadline:
                plain.append(runner.call())
                runner.verify_repeat()
                with tracer.installed():
                    mark = len(tracer.spans)
                    traced.append(runner.call())
                    del tracer.spans[mark:]
                runner.verify_repeat()
            overhead = (statistics.median(traced) - statistics.median(plain), "s", len(plain))
            spans_per_call = (windows[name][1] - windows[name][0], "count", 1)

    spans = tracer.spans
    self_ns = tracer.self_times_ns()

    def window(name):
        lo, hi = windows[name]
        return range(lo, hi)

    def durations(workload, span_name):
        return [spans[i][END] - spans[i][START] for i in window(workload) if spans[i][NAME] == span_name]

    def self_sum(workload, span_name):
        return sum(self_ns[i] for i in window(workload) if spans[i][NAME] == span_name)

    m = {}
    grid_plan = runners["analytic-grid"].plan
    mc_plan = runners["mc-sweep"].plan
    sub = durations("mc-sweep", "streams.substream")
    m["streams.substream_us"] = (statistics.median(sub) / 1e3, "us", len(sub))
    m["streams.substreams"] = (len(sub), "count", 1)
    m.update(_copula_micro(3 if tiny else MICRO_REPEATS))
    for key, span_name in (("closed_form", "outage.outage_closed_form"), ("quadrature", "outage.outage_quadrature")):
        d = durations("analytic-grid", span_name)
        m[f"outage.{key}_us_p50"] = (_percentile(d, 0.5) / 1e3, "us", len(d))
        m[f"outage.{key}_us_p99"] = (_percentile(d, 0.99) / 1e3, "us", len(d))
        m[f"outage.{key}_calls"] = (len(d), "count", 1)
    mc_samples = int(mc_plan.argv[mc_plan.argv.index("--samples") + 1]) * mc_plan.rows
    mc_spans = durations("mc-sweep", "outage.outage_monte_carlo")
    m["outage.monte_carlo_ns"] = (sum(mc_spans) / mc_samples, "ns", len(mc_spans))
    m["outage.count_ns_derived"] = (
        self_sum("mc-sweep", "outage.outage_monte_carlo") / mc_samples, "ns", len(mc_spans)
    )
    config_path = grid_plan.argv[grid_plan.argv.index("--config") + 1]
    loads = []
    for _ in range(3 if tiny else MICRO_REPEATS):
        start = time.perf_counter_ns()
        load_config(config_path)
        loads.append((time.perf_counter_ns() - start) / 1e6)
    m["config.load_ms"] = (statistics.median(loads), "ms", len(loads))
    rv = durations("analytic-grid", "config.RateGrid.values")
    m["config.rate_values_us"] = (statistics.median(rv) / 1e3, "us", len(rv))
    m["sweep.row_overhead_us"] = (
        self_sum("analytic-grid", "sweep.run_outage_sweep") / 1e3 / grid_plan.rows, "us", grid_plan.rows
    )
    m["sweep.parallel_speedup"] = speedup
    m["sweep.compare_ms"] = (self_sum("compare-parallel", "sweep.compare_methods") / 1e6, "ms", 1)
    for key, workload, span_name in (
        ("emit_csv_us", "analytic-grid", "sweep.emit_csv"),
        ("emit_comparison_csv_us", "compare-parallel", "sweep.emit_comparison_csv"),
        ("emit_samples_us", "sample-dump", "sweep.emit_samples"),
    ):
        rows = runners[workload].plan.rows
        m[f"sweep.{key}"] = (self_sum(workload, span_name) / 1e3 / rows, "us", rows)
    m["sweep.csv_bytes"] = (sum(len(r.expected) for r in runners.values()), "bytes", len(runners))
    imports = [_child("import swmac.cli", workdir)[0] for _ in range(1 if tiny else IMPORT_PROBES)]
    m["cli.import_s"] = (statistics.median(imports), "s", len(imports))
    for layer in (module.rsplit(".", 1)[-1] for module in TRACED_MODULES):
        total = sum(t for t, s in zip(self_ns, spans) if s[LAYER] == layer)
        m[f"{layer}.self_ms"] = (total / 1e6, "ms", len(runners))
    m["trace.overhead_s"] = overhead
    m["trace.spans"] = spans_per_call

    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{target}.csv")
    return m, list(runners.values())


# -- host facts, reporting, self-test ---------------------------------------


def host_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "note": "CPUs may be shared with other tenants; the benchmark changes no kernel or cgroup setting",
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        if trace:
            metrics, runners = run_traced(name, seed, workdir, seconds, tiny)
        else:
            plan = workloads.WORKLOADS[name](workdir, seed, tiny)
            metrics, runner = run_end_to_end(plan, workdir, seconds, 1 if tiny else SETUP_PROBES)
            runners = [runner]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    return metrics, attempted, failed


def _check_root() -> None:
    if not (SRC / "swmac" / "cli.py").is_file():
        print(f"error: no swmac sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def self_test() -> int:
    """Every workload at a tiny size, both modes; every named metric must
    appear with the unit BENCHMARK.json gives it, and the gate must pass."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for name in workloads.WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            metrics, attempted, failed = run_workload(name, 1, 0.2, trace, tiny=True)
            for entry in spec[section]:
                value, unit, _ = metrics.get(entry["name"], (None, None, None))
                if unit != entry["unit"] or not isinstance(value, (int, float)):
                    problems.append(f"{name}: {entry['name']} = {value!r} {unit!r}")
            if attempted < 1 or failed:
                problems.append(f"{name} trace={int(trace)}: {failed} of {attempted} rows failed")
            print(f"self-test {name} trace={int(trace)}: {len(spec[section])} metrics checked")
    for problem in problems:
        print(f"self-test: {problem}", file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    _check_root()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    print("host " + json.dumps(host_facts()))
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            metrics, attempted, failed = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except GateFailure as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        result["attempted"] += attempted
        result["failed"] += failed
        for key, (value, unit, count) in metrics.items():
            print(f"{name} {key} = {value:.6g} {unit} (n={count})")
            if key.startswith("raw."):
                continue  # context for the reader, not a benchmark metric
            label = key if len(names) == 1 else f"{name}/{key}"
            result["metrics"][label] = {"value": value, "unit": unit}
        print(f"{name} failed_frac = {failed / attempted:.6g} ({failed} of {attempted} rows)")
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
