#!/usr/bin/env python3
"""haarshift benchmark: the solve, verify, mc and apply steps end to end.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload drives `haarshift.cli.main([...])` in this process, the same
code the console script runs, and checks the outputs a user would read.
A run times its set-up (importing the package from `src/`, looking up
the kernels and, for the Monte-Carlo workloads, solving the hilbert table)
in several fresh processes and reports the median, makes one discarded
warm-up pass, then repeats the workload's pass in a closed loop for about
S seconds and reports medians.
With `--trace 1` it then repeats the loop with every layer wrapped in
spans (see spans.py) and reports per-layer numbers instead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it record
the run's health and the workload-specific figures.  See README.md.
"""

import os

# pin BLAS/OpenMP pools before numpy loads, so only haarshift's own pool runs
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import importlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from spans import PER_LAYER, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# set-up samples: SETUP_FIRST before the warm-up, one after every timed pass,
# then more at the end until there are at least SETUP_REPEATS
SETUP_FIRST = 3
SETUP_REPEATS = 7

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "err": "1",
    "peak_rss_mb": "MB",
}

# draw counts and grid sizes; "tiny" is the self-test's size
SIZES = {
    "full": {
        # (kernel, step, max_rel_err gate) per table
        "tables": (
            ("conjugate-poisson", 2.0**-11, 1e-4),
            ("smoothed-truncated", 2.0**-9, 1e-2),
        ),
        "probes": "log:0.001:1000:200",
        "warm_step": 2.0**-8,
        "mc_draws": 1 << 18,
        "apply_draws": 1 << 18,
        # two engine chunks, so the pooled path really runs
        "inv_draws": (1 << 17) + (1 << 14),
    },
    "tiny": {
        "tables": (
            ("conjugate-poisson", 2.0**-8, 1e-2),
            ("smoothed-truncated", 2.0**-8, 1e-2),
        ),
        "probes": "log:0.01:100:20",
        "warm_step": 2.0**-7,
        "mc_draws": 1 << 17,
        "apply_draws": 1 << 15,
        "inv_draws": (1 << 17) + (1 << 10),
    },
}

SEPARATIONS = (0.3, 1.0, 7.0)
APPLY_PROBES = (-1.0, 0.25, 2.0, 5.0)
TAIL_TOL = 1e-4
BAND_SIGMAS = 4.0
# criterion 8: the observed contraction never exceeds 31/33
RATIO_BOUND = 31.0 / 33.0 + 1e-12


class Run:
    """State of one benchmark run: counters, paths and the loaded CLI."""

    def __init__(self, workload, seed, size, corrupt):
        self.seed = seed
        self.size = SIZES[size]
        self.corrupt = corrupt
        self.attempted = 0
        self.failed = 0
        self.bytes_written = 0
        self.tracer = None
        OUT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
        self.cli_module = None
        self.kernels = None
        self.hilbert = None

    def path(self, name):
        return str(self.tmp / name)

    def cli(self, argv, outputs=()):
        """One CLI call in-process; (stdout, wall seconds), stdout None on failure.

        `outputs` are the files the call writes, counted into bytes written.
        """
        self.attempted += 1
        buf = io.StringIO()
        rc = None
        tracing = self.tracer is not None
        start = time.perf_counter()
        try:
            if tracing:
                self.tracer.active = True
            with contextlib.redirect_stdout(buf):
                # looked up per call, so a traced run calls the wrapped main
                rc = self.cli_module.main(argv)
        except Exception:
            traceback.print_exc()
        finally:
            if tracing:
                self.tracer.active = False
        wall = time.perf_counter() - start
        if rc != 0:
            self.failed += 1
            print(f"haarshift {' '.join(argv)}: exit {rc}", file=sys.stderr)
            return None, wall
        text = buf.getvalue()
        self.bytes_written += len(text.encode())
        self.bytes_written += sum(Path(p).stat().st_size for p in outputs if Path(p).exists())
        return text, wall

    def check(self, ok, what):
        """One output check; a miss is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok


# ---------------------------------------------------------------------------
# reading outputs back, independently of the library's readers


def read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def table_sup(base):
    """sup|c| over a written table: its samples and both constant tails."""
    meta = read_json(base + ".json")
    with open(base + ".csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    samples = max(abs(float(row[1])) for row in rows)
    return max(samples, abs(meta["tail_left"]), abs(meta["tail_right"]))


def scale_table(base, factor):
    """Multiply the c column of a written table by factor (self-test hook)."""
    with open(base + ".csv", newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        row[1] = format(float(row[1]) * factor, ".17g")
    with open(base + ".csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def read_apply_csv(path):
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


# ---------------------------------------------------------------------------
# set-up


def load_package():
    """Import haarshift from src/ and look up every kernel; (cli, kernels)."""
    cli = importlib.import_module("haarshift.cli")
    kernels = importlib.import_module("haarshift.kernels")
    for name in kernels.builtin_names():
        kernels.get_kernel(name)
    return cli, kernels


def setup_sample(table):
    """One timed set-up in this fresh process: the import, the kernel lookups
    and, when `table` is a path, the hilbert solve into it.

    Returns (seconds, exit code of the solve).
    """
    start = time.perf_counter()
    cli, _ = load_package()
    rc = 0
    if table is not None:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["solve", "--kernel", "hilbert", "--out", table])
    return time.perf_counter() - start, rc


# a fresh interpreter that imports this file, times one set-up and prints
# [seconds, exit code] as its last line
SETUP_CHILD = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from run import setup_sample
print(json.dumps(setup_sample(sys.argv[3] or None)))
"""


def time_setups(run, table, count):
    """`count` set-ups, one at a time, each in a new interpreter; seconds.

    The machine's speed drifts over seconds by more than the set-up bound,
    so the caller spreads the samples over the whole run and takes their
    median.  Each child is waited for (and killed on timeout) by
    subprocess.run, so none outlives the run.
    """
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(Path(__file__).resolve().parent),
             str(SRC), table or ""],
            capture_output=True, text=True, timeout=120,
        )
        try:
            seconds, rc = json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up process failed with exit {proc.returncode}")
        samples.append(seconds)
        if table is not None:
            run.attempted += 1
            run.failed += rc != 0
    return samples


# ---------------------------------------------------------------------------
# workloads: each has warm_up(run) and one_pass(run) -> pass record


class SolveVerify:
    """solve then verify two tables through CSV/JSON on disk; no draws."""

    threads = 1
    needs_hilbert = False

    def __init__(self):
        self.msup = {}

    def warm_up(self, run):
        base = run.path("warm")
        run.cli(["solve", "--kernel", "conjugate-poisson", "--step",
                 repr(run.size["warm_step"]), "--out", base])
        run.cli(["verify", "--table", base, "--kernel", "conjugate-poisson",
                 "--probes", "log:0.01:100:10", "--out", base + "_verify.json"])
        # criterion 7's sup|m|, as the acceptance gate computes it
        u = np.linspace(-30.0, 30.0, 120_001)
        for name, _, _ in run.size["tables"]:
            spec = run.kernels.get_kernel(name)
            self.msup[name] = float(np.max(np.abs(run.kernels.m_of(spec, u))))

    def one_pass(self, run):
        solve_s = verify_s = 0.0
        errs = {}
        for name, step, gate in run.size["tables"]:
            base = run.path(name)
            _, wall = run.cli(["solve", "--kernel", name, "--step", repr(step),
                               "--out", base], outputs=(base + ".csv", base + ".json"))
            solve_s += wall
            if run.corrupt is not None and Path(base + ".csv").exists():
                scale_table(base, run.corrupt)
            report = base + "_verify.json"
            _, wall = run.cli(["verify", "--table", base, "--kernel", name,
                               "--probes", run.size["probes"], "--out", report],
                              outputs=(report,))
            verify_s += wall
            self.check_table(run, name, base, gate, errs)
        return {"wall_s": solve_s + verify_s, "solve_s": solve_s,
                "verify_s": verify_s, "errs": errs}

    def check_table(self, run, name, base, gate, errs):
        report = read_json(base + "_verify.json")
        meta = read_json(base + ".json")
        err = report["max_rel_err"] if report else math.inf
        errs[name] = err
        run.check(err <= gate, f"{name}: max_rel_err {err:.3e} > {gate:g}")
        try:
            sup_c = table_sup(base)
        except (OSError, ValueError, TypeError, IndexError):
            sup_c = math.inf
        bound = (4.0 / 3.0) * self.msup[name] + 1e-6
        run.check(sup_c <= bound, f"{name}: sup|c| {sup_c:.9f} > {bound:.9f}")
        ratio = meta["max_change_ratio"] if meta else math.inf
        run.check(ratio <= RATIO_BOUND, f"{name}: contraction ratio {ratio!r}")

    def summary(self, passes):
        first = passes[0]["errs"]
        cp, st = (first.get(name, math.inf) for name in ("conjugate-poisson", "smoothed-truncated"))
        return {
            "err": cp,
            "detail": {
                "solve_s": (statistics.median(p["solve_s"] for p in passes), "s"),
                "verify_s": (statistics.median(p["verify_s"] for p in passes), "s"),
                "rel_err.cp": (cp, "1"),
                "rel_err.st": (st, "1"),
            },
        }


def invariance_check(run, table):
    """mc and apply at --threads 1 and 2 must print the same mean and stderr."""
    draws = str(run.size["inv_draws"])
    seed = str(run.seed)
    got = []
    for threads in ("1", "2"):
        out = run.path(f"inv_mc_{threads}.json")
        run.cli(["mc", "--table", table, "--x", "1.0", "--y", "0.0", "--samples", draws,
                 "--seed", seed, "--threads", threads, "--out", out])
        data = read_json(out) or {}
        got.append((data.get("mean"), data.get("stderr")))
    run.check(got[0] == got[1] and None not in got[0],
              f"mc thread invariance: {got[0]} vs {got[1]}")
    got = []
    for threads in ("1", "2"):
        out = run.path(f"inv_apply_{threads}.csv")
        run.cli(["apply", "--table", table, "--kernel", "hilbert", "--x", "2",
                 "--samples", draws, "--seed", seed, "--threads", threads, "--out", out])
        try:
            row = read_apply_csv(out)[0]
            got.append((row["averaged"], row["stderr"]))
        except (OSError, IndexError, KeyError, ValueError):
            got.append(None)
    run.check(got[0] == got[1] and got[0] is not None,
              f"apply thread invariance: {got[0]} vs {got[1]}")


def in_band(mean, stderr, tail, want):
    return (
        mean is not None
        and stderr is not None
        and abs(mean - want) <= BAND_SIGMAS * stderr + tail
    )


class LatticeWorkload:
    """Monte-Carlo workloads on the hilbert table solved in set-up."""

    needs_hilbert = True

    def warm_up(self, run):
        self.one_pass(run)

    def summary(self, passes):
        wall = statistics.median(p["wall_s"] for p in passes)
        return {
            "err": passes[0]["err"],
            "detail": {
                f"{self.prefix}_draws_per_s": (passes[0]["draws"] / wall, "draws/s"),
                f"{self.prefix}_time_to_1e-3_s": (
                    statistics.median(p["time_to"] for p in passes), "s"),
            },
        }


def time_to_1e3(wall, stderr):
    """Wall time scaled to the draws that would bring stderr to 1e-3."""
    return wall * (stderr / 1e-3) ** 2


class McTwoPoint(LatticeWorkload):
    """Three two-point estimates on the hilbert table, one thread."""

    threads = 1
    prefix = "mc"

    def one_pass(self, run):
        draws = run.size["mc_draws"]
        wall_s = time_to = err = 0.0
        for sep in SEPARATIONS:
            out = run.path(f"mc_{sep:g}.json")
            _, wall = run.cli(["mc", "--table", run.hilbert, "--x", repr(sep), "--y", "0.0",
                               "--samples", str(draws), "--seed", str(run.seed),
                               "--threads", str(self.threads), "--out", out],
                              outputs=(out,))
            data = read_json(out) or {}
            mean, stderr, tail = data.get("mean"), data.get("stderr"), data.get("tail_bound", 0.0)
            run.check(in_band(mean, stderr, tail, 1.0 / sep),
                      f"mc x-y={sep:g}: {mean} vs {1.0 / sep} (stderr {stderr})")
            stderr = math.inf if stderr is None else stderr
            wall_s += wall
            time_to += time_to_1e3(wall, stderr)
            err = max(err, stderr * sep)
        return {"wall_s": wall_s, "draws": draws * len(SEPARATIONS), "err": err,
                "time_to": time_to}


class ApplyIndicator(LatticeWorkload):
    """The averaged operator on the indicator of [0, 1] at four probes."""

    threads = 2
    prefix = "apply"

    def one_pass(self, run):
        draws = run.size["apply_draws"]
        out = run.path("apply.csv")
        xs = ",".join(repr(x) for x in APPLY_PROBES)
        _, wall = run.cli(["apply", "--table", run.hilbert, "--kernel", "hilbert",
                           "--f", "indicator", f"--x={xs}", "--samples", str(draws),
                           "--seed", str(run.seed), "--threads", str(self.threads),
                           "--out", out], outputs=(out, out[:-4] + ".json"))
        try:
            rows = read_apply_csv(out)
        except (OSError, ValueError, KeyError):
            rows = []
        time_to = err = 0.0
        for i, x in enumerate(APPLY_PROBES):
            want = math.log(abs(x / (x - 1.0)))
            row = rows[i] if i < len(rows) and rows[i]["x"] == x else {}
            # the CSV has no tail column; --tail-tol bounds the tail by construction
            run.check(in_band(row.get("averaged"), row.get("stderr"), TAIL_TOL, want),
                      f"apply x={x:g}: averaged {row.get('averaged')} vs {want}")
            direct = row.get("direct")
            run.check(direct is not None and abs(direct - want) <= 1e-8,
                      f"apply x={x:g}: direct {direct} vs {want}")
            stderr = row.get("stderr", math.inf)
            # one call serves every probe: each gets an equal share of its wall
            time_to += time_to_1e3(wall / len(APPLY_PROBES), stderr)
            err = max(err, stderr / abs(want))
        return {"wall_s": wall, "draws": draws * len(APPLY_PROBES), "err": err,
                "time_to": time_to}


WORKLOADS = {
    "solve-verify": SolveVerify,
    "mc-twopoint": McTwoPoint,
    "apply-indicator": ApplyIndicator,
}


# ---------------------------------------------------------------------------
# measurement


def read_steal():
    """Machine-wide steal ticks from /proc/stat, or None where unreadable."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except (OSError, ValueError, IndexError):
        return None


def closed_loop(run, workload, seconds, after_pass=None):
    """Repeat the pass until the next one would overrun `seconds`; >= 1 pass.

    `after_pass`, if given, is called untimed after every pass, inside the
    `seconds` budget.
    """
    passes = []
    start = time.perf_counter()
    while True:
        cpu = time.process_time()
        record = workload.one_pass(run)
        record["cpu_s"] = time.process_time() - cpu
        passes.append(record)
        if after_pass is not None:
            after_pass()
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p["wall_s"] for p in passes) > seconds:
            return passes


def run_benchmark(name, seed, seconds, trace, size="full", corrupt=None):
    """Run one workload; returns (result line, health, detail)."""
    run = Run(name, seed, size, corrupt)
    wall0, cpu0, steal0 = time.perf_counter(), time.process_time(), read_steal()
    try:
        workload = WORKLOADS[name]()
        if workload.needs_hilbert:
            run.hilbert = run.path("hilbert")
        setup = time_setups(run, run.hilbert, SETUP_FIRST)
        # later set-ups solve into their own path, so they leave the
        # workload's (possibly corrupted) table alone
        again = run.path("hilbert-again") if workload.needs_hilbert else None
        run.cli_module, run.kernels = load_package()
        if workload.needs_hilbert and corrupt is not None:
            scale_table(run.hilbert, corrupt)

        start = time.perf_counter()
        workload.warm_up(run)
        warm_up_s = time.perf_counter() - start
        bytes_before = run.bytes_written
        passes = closed_loop(run, workload, seconds,
                             after_pass=lambda: setup.extend(time_setups(run, again, 1)))
        setup += time_setups(run, again, max(0, SETUP_REPEATS - len(setup)))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        bytes_per_pass = (run.bytes_written - bytes_before) / len(passes)
        if workload.needs_hilbert:
            # after the peak reading: pool threads leave the heap in a
            # timing-dependent state that would make the peak bimodal
            invariance_check(run, run.hilbert)
        summary = workload.summary(passes)
        wall = statistics.median(p["wall_s"] for p in passes)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "err": summary["err"],
            "peak_rss_mb": peak_rss_mb,
        }
        detail = {k: {"value": v, "unit": u} for k, (v, u) in summary["detail"].items()}
        health_passes = passes

        if trace:
            run.tracer = Tracer(f"{name}-seed{seed}-pid{os.getpid()}-{time.time_ns()}")
            run.tracer.install()
            try:
                traced = closed_loop(run, workload, seconds)
            finally:
                run.tracer.uninstall()
            traced_wall = statistics.median(p["wall_s"] for p in traced)
            layers = layer_metrics(run.tracer.spans, len(traced))
            layers["cli.bytes_written"] = bytes_per_pass
            layers["trace.overhead_s"] = traced_wall - wall
            layers["trace.overhead_frac"] = (traced_wall - wall) / wall
            run.tracer.dump(OUT / f"spans-{name}-seed{seed}.json")
            detail["traced_wall_s"] = {"value": traced_wall, "unit": "s"}
            reported = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
            health_passes = passes + traced
        else:
            reported = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}
    finally:
        shutil.rmtree(run.tmp, ignore_errors=True)

    steal1 = read_steal()
    health = {
        "workload": name,
        "seed": seed,
        "size": size,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": workload.threads,
        "blas_env": {var: os.environ.get(var) for var in BLAS_VARS},
        "warm_up_s_discarded": warm_up_s,
        "setup_samples_s": setup,
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in health_passes],
        "pass_cpu_s": [p["cpu_s"] for p in health_passes],
        "run_wall_s": time.perf_counter() - wall0,
        "run_cpu_s": time.process_time() - cpu0,
        "steal_ticks": None if steal0 is None or steal1 is None else steal1 - steal0,
        "clock_ticks_per_s": os.sysconf("SC_CLK_TCK"),
    }
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": reported,
    }
    return result, health, detail


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="'tiny' shrinks every workload for the self-test")
    parser.add_argument("--corrupt-table", type=float, default=None, metavar="FACTOR",
                        help="self-test hook: scale every solved table's samples")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "haarshift" / "__init__.py").is_file():
        print(f"bench: no haarshift sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, health, detail = run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace),
        size=args.size, corrupt=args.corrupt_table,
    )
    print(json.dumps({"health": health}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
