import contextlib
import csv
import importlib
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mass_term

import haarshift
from haarshift import STREAM_VERSION, __version__, read_table, write_table
from haarshift import cli, dyadic


@pytest.fixture()
def hilbert_base(tmp_path, hilbert_table):
    base = tmp_path / "hilb"
    write_table(hilbert_table, base)
    return str(base)


def test_solve_writes_table(tmp_path, capsys):
    base = tmp_path / "h"
    rc = cli.main(
        ["solve", "--kernel", "hilbert", "--step", str(2.0**-7), "--out", str(base)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "residual_sup=" in out and "sweeps" not in out
    assert base.with_suffix(".csv").exists()
    meta = json.loads(base.with_suffix(".json").read_text())
    assert meta["residual_sup"] <= 1e-7
    assert meta["flags"]["kernel"] == "hilbert"
    assert meta["versions"]["haarshift"] == __version__
    table = read_table(base)
    assert float(np.max(np.abs(table.samples + 8.0 / 3.0))) <= 1e-6


def test_dotted_table_bases_keep_their_last_part(tmp_path, capsys):
    """--out tab.v1 and --out tab.v2 write four files, not one tab.csv and
    tab.json that the second solve overwrites, and verify reads each base's
    own table."""
    for name, kernel in (("tab.v1", "hilbert"), ("tab.v2", "conjugate-poisson")):
        argv = ["solve", "--kernel", kernel, "--step", str(2.0**-7), "--out", str(tmp_path / name)]
        assert cli.main(argv) == 0
    names = sorted(path.name for path in tmp_path.iterdir())
    assert names == ["tab.v1.csv", "tab.v1.json", "tab.v2.csv", "tab.v2.json"]
    for name, kernel in (("tab.v1", "hilbert"), ("tab.v2", "conjugate-poisson")):
        assert read_table(tmp_path / name).kernel_name == kernel
        capsys.readouterr()
        assert cli.main(["verify", "--table", str(tmp_path / name), "--kernel", kernel]) == 0
        assert json.loads(capsys.readouterr().out)["max_rel_err"] <= 1e-3


def test_solve_and_mc_do_not_import_numpy_polynomial(tmp_path):
    """The quadrature rules are made on first use, so a solve and an mc run
    leave numpy.polynomial unimported, which takes milliseconds."""
    base = str(tmp_path / "h")
    script = (
        "import sys; from haarshift import cli; "
        f"cli.main(['solve', '--kernel', 'hilbert', '--out', {base!r}]); "
        f"cli.main(['mc', '--table', {base!r}, '--x', '1', '--y', '0', '--samples', '64']); "
        "print('numpy.polynomial' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(haarshift.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_solve_unknown_kernel(capsys):
    rc = cli.main(["solve", "--kernel", "nosuch"])
    assert rc == 64
    assert "haarshift:" in capsys.readouterr().err


def test_solve_conjugate_poisson_sidecar(tmp_path, capsys):
    base = tmp_path / "cp"
    rc = cli.main(["solve", "--kernel", "conjugate-poisson", "--out", str(base)])
    assert rc == 0
    meta = json.loads(base.with_suffix(".json").read_text())
    # the solve meets --tol, but the stored residual also carries the
    # table's interpolation error, measured near 1.6e-11 at the default step
    assert meta["residual_sup"] <= 1e-4
    # no sweep runs
    assert meta["iterations"] == 0
    assert meta["max_change_ratio"] == 0.0


def test_solve_narrow_window(tmp_path):
    # a window narrower than the default trims the kept source on both sides
    base = tmp_path / "cp6"
    rc = cli.main(
        ["solve", "--kernel", "conjugate-poisson", "--window", "-6", "6", "--out", str(base)]
    )
    assert rc == 0
    table = read_table(base)
    assert (table.u_min, table.u_max) == (-6.0, 6.0)


def test_verify_default_probes(hilbert_base, capsys):
    rc = cli.main(["verify", "--table", hilbert_base, "--kernel", "hilbert"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_rel_err"] <= 1e-6
    assert len(payload["probes"]) == 50
    assert len(payload["flags"]["probes"]) == 50
    assert payload["flags"]["probes"][0] == pytest.approx(1e-3)


@pytest.mark.parametrize(
    "command, probes",
    [("verify", ""), ("verify", ","), ("verify", "log:1:10:0"), ("apply", ","), ("apply", " , ")],
)
def test_verify_empty_probe_list_is_usage_error(hilbert_base, command, probes, capsys):
    # no probe means no comparison: verify would read max_rel_err 0.0, and
    # apply print only its CSV header
    flag = {"verify": "--probes", "apply": "--x"}[command]
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--table", hilbert_base, "--kernel", "hilbert", flag, probes])
    assert exc.value.code == 64
    assert "no probes" in capsys.readouterr().err


@pytest.mark.parametrize("probes", ["nan", "inf", "1,-1", "0"])
def test_verify_probe_off_the_positive_axis_is_numeric_error(hilbert_base, probes, capsys):
    # unchecked, a NaN probe splits quadrature panels until memory runs out
    argv = ["verify", "--table", hilbert_base, "--kernel", "hilbert", "--probes", probes]
    assert cli.main(argv) == 2
    assert "needs 0 < x < inf" in capsys.readouterr().err


def test_verify_deterministic_output(hilbert_base, tmp_path):
    out = tmp_path / "report.json"
    args = [
        "verify",
        "--table",
        hilbert_base,
        "--kernel",
        "hilbert",
        "--probes",
        "0.5,1,2",
        "--out",
        str(out),
    ]
    assert cli.main(args) == 0
    first = out.read_bytes()
    assert cli.main(args) == 0
    assert out.read_bytes() == first


def test_mc_output_and_determinism(hilbert_base, capsys):
    args = [
        "mc",
        "--table",
        hilbert_base,
        "--x",
        "0.9",
        "--y",
        "0.1",
        "--samples",
        "2000",
        "--seed",
        "5",
    ]
    assert cli.main(args) == 0
    first = capsys.readouterr().out
    payload = json.loads(first)
    assert payload["M"] == 2000
    # the per-level record, from the floor up: 2000 floor draws make 20
    # replicates of 100 points, 1415 above them 20 of 70, and every level
    # has its entry
    levels = payload["levels"]
    assert [entry["n"] for entry in levels] == list(range(payload["n_min"], payload["n_max"] + 1))
    assert (levels[0]["draws"], levels[0]["replicates"]) == (2000, 20)
    assert [entry["draws"] for entry in levels[:3]] == [2000, 1400, 1000]
    assert math.fsum(entry["mean"] for entry in levels) == pytest.approx(payload["mean"], rel=1e-12)
    assert math.fsum(e["stderr"] ** 2 for e in levels) == pytest.approx(payload["stderr"] ** 2)
    assert 0 < levels[0]["hits"] <= levels[0]["draws"]
    assert payload["stderr_defined"] is True
    assert payload["versions"]["stream"] == STREAM_VERSION
    assert abs(payload["mean"] - 1.25) < 3 * payload["stderr"] + 1e-3
    assert cli.main(args) == 0
    assert capsys.readouterr().out == first


def test_mc_single_sample(hilbert_base, capsys):
    rc = cli.main(
        ["mc", "--table", hilbert_base, "--x", "0.9", "--y", "0.1", "--samples", "1"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stderr"] is None
    assert payload["stderr_defined"] is False
    records = {(entry["draws"], entry["replicates"], entry["stderr"]) for entry in payload["levels"]}
    assert records == {(1, 1, None)}


def test_mc_rejects_zero_samples(hilbert_base, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(
            ["mc", "--table", hilbert_base, "--x", "1", "--y", "0", "--samples", "0"]
        )
    assert exc.value.code == 64


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_mc_seed_out_of_range_is_usage_error(hilbert_base, seed, capsys):
    # the Philox key takes [0, 2^128); numpy's own error used to exit 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["mc", "--table", hilbert_base, "--x", "1", "--y", "0", "--seed", str(seed)])
    assert exc.value.code == 64
    assert "argument --seed: must be an integer in [0, 2^128)" in capsys.readouterr().err


def test_mc_largest_seed(hilbert_base, capsys):
    argv = ["mc", "--table", hilbert_base, "--x", "1", "--y", "0", "--samples", "10",
            "--seed", str(2**128 - 1)]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 2**128 - 1


def test_mc_diagonal_is_numeric_error(hilbert_base, capsys):
    rc = cli.main(["mc", "--table", hilbert_base, "--x", "0.5", "--y", "0.5"])
    assert rc == 2
    assert "haarshift: the kernel sum is undefined on the diagonal x = y = 0.5" in (
        capsys.readouterr().err)


@pytest.fixture(scope="module")
def scan_base(tmp_path_factory, hilbert_table):
    base = tmp_path_factory.mktemp("scan") / "hilb"
    write_table(hilbert_table, base)
    return str(base)


@pytest.fixture(scope="module")
def cp_scan_base(tmp_path_factory, cp_table):
    base = tmp_path_factory.mktemp("scan") / "cp"
    write_table(cp_table, base)
    return str(base)


def _run(argv):
    """cli.main(argv) with its output captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


# non-finite floats, signed zeros and the ends of the double range
EXTREME_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-300, 1.7e308,
                  -1.7e308]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    separation=st.one_of(
        st.floats(2.0**-40, 1e160),
        st.sampled_from([2.0**-40, math.nextafter(2.0**-40, 0.0), 1e160, 2.0**19, 0.3]),
    ),
    sign=st.sampled_from([-1.0, 1.0]),
    y=st.one_of(
        st.floats(-1e3, 1e3).filter(lambda v: v != 0.0),
        st.sampled_from([5e-324, -1e-300, 1e160, -3e159, 1e300]),
    ),
    samples=st.one_of(st.integers(1, 4096), st.sampled_from([1, 2, 20, 21, 4096])),
)
def test_mc_input_scan(scan_base, separation, sign, y, samples):
    """`mc` over separations from 2^-40 to 1e160 of both signs, points y
    other than 0 and --samples from 1 to 4096 either exits 0 with a finite
    mean and tail bound, and a stderr that is positive whenever some
    level's replicate sums differ (absent only for one draw), or exits 2
    with a message naming the input: the diagonal x = y, or a separation
    below 2^-40, where x = y + separation rounds so."""
    x = y + sign * separation
    rc, out, err = _run(["mc", "--table", scan_base, f"--x={x!r}", f"--y={y!r}",
                         "--samples", str(samples), "--seed", "5"])
    if rc != 0:
        assert rc in (2, 64)
        assert (f"the diagonal x = y = {x!r}" in err
                or f"separation |x - y| = {abs(x - y)!r} is below" in err), err
        return
    payload = json.loads(out)
    assert math.isfinite(payload["mean"]) and math.isfinite(payload["tail_bound"])
    table = read_table(scan_base)
    levels = dyadic.levels_for_distance(abs(x - y), table.sup_norm(), 1e-4)
    tallies = dyadic.accumulate_samples(5, samples, levels, mass_term(table, x, y, levels))
    if samples == 1:
        assert payload["stderr"] is None
    elif any(np.ptp(t.sums) > 0.0 for t in tallies):
        assert payload["stderr"] > 0.0


# a knot of the indicator or the tent, moved by an offset either way
NEAR_KNOTS = st.builds(
    lambda knot, offset, sign: knot + sign * offset,
    st.sampled_from([0.0, 1.0, 2.0]),
    st.sampled_from([0.0, 5e-324, 1e-300, 2.0**-41, 2.0**-40, 2.0**-30, 1e-3]),
    st.sampled_from([-1.0, 1.0]),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    f=st.sampled_from(["indicator", "triangle"]),
    x=st.one_of(st.floats(), st.sampled_from(EXTREME_FLOATS), NEAR_KNOTS,
                NEAR_KNOTS.map(lambda v: math.nextafter(v, math.inf))),
    samples=st.sampled_from([1, 2, 21, 64]),
)
def test_apply_input_scan(scan_base, f, x, samples):
    """`apply` at any float probe, the extreme and non-finite ones and
    points at and near f's knots included, either exits 0 with a finite
    average, direct value and error, and a finite stderr past one draw, or
    exits 2 or 64 with a message that names the probe."""
    rc, out, err = _run(["apply", "--table", scan_base, "--kernel", "hilbert", "--f", f,
                         f"--x={x!r}", "--samples", str(samples), "--seed", "3"])
    if rc != 0:
        assert rc in (2, 64) and f"x = {x!r}" in err, err
        return
    (_, row) = csv.reader(io.StringIO(out))
    probe, averaged, stderr, direct, abs_err = map(float, row)
    assert probe == x
    assert all(map(math.isfinite, (averaged, direct, abs_err)))
    assert math.isnan(stderr) if samples == 1 else math.isfinite(stderr)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    kernel=st.sampled_from(["hilbert", "conjugate-poisson"]),
    probes=st.one_of(
        st.lists(st.one_of(st.floats(), st.sampled_from(EXTREME_FLOATS)), min_size=1, max_size=3)
        .map(lambda xs: ",".join(map(repr, xs))),
        st.lists(st.one_of(st.floats(5e-324, 1.7e308), st.sampled_from([5e-324, 1e-308, 1.7e308])),
                 min_size=1, max_size=3).map(lambda xs: ",".join(map(repr, xs))),
        st.builds(
            lambda a, b, n: f"log:{a!r}:{b!r}:{n}",
            st.sampled_from([1e-300, 1e-3, 1.0, 1e300, 0.0, -1.0, math.inf, math.nan]),
            st.sampled_from([1e-300, 10.0, 1e300, 1.7e308]),
            st.sampled_from([-1, 0, 1, 3, cli.VERIFY_MAX_PROBES + 1, 10**9]),
        ),
        st.sampled_from(["log:1:10:1000000000", "log:1:10", "log:a:1:3", "1,,x"]),
    ),
)
def test_verify_input_scan(scan_base, cp_scan_base, kernel, probes):
    """`verify` at any float probes, or log specs from the extreme to the
    malformed, over more probes than its bound included, either exits 0
    with finite values and errors throughout, or exits 64 naming the
    --probes text, or 2 naming a probe."""
    table = scan_base if kernel == "hilbert" else cp_scan_base
    rc, out, err = _run(["verify", "--table", table, "--kernel", kernel, f"--probes={probes}"])
    if rc == 64:
        assert "argument --probes: " in err and repr(probes) in err, err
        return
    if rc != 0:
        assert rc == 2 and ("x = " in err or "0 < x < inf, got" in err), err
        return
    payload = json.loads(out)
    values = [row[k] for row in payload["probes"] for k in ("x", "K", "Khat", "rel_err")]
    assert all(map(math.isfinite, [*values, payload["max_rel_err"]]))


# the sidecar's fields, those a table must carry first
REQUIRED_FIELDS = ["u_min", "u_max", "step", "tail_left", "tail_right", "residual_sup",
                   "iterations"]
TABLE_DEFECTS = st.one_of(
    st.tuples(st.just("sample"), st.sampled_from(["nan", "NaN", "inf", "-inf", "-1e999"]),
              st.floats(0.0, 1.0)),
    # a share of the CSV kept, or a count of bytes cut from its end
    st.tuples(st.just("cut"), st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                                        st.integers(1, 40))),
    st.tuples(st.just("header"), st.sampled_from(["", "c,u", "u", "U,C", "u;c", "x,c"])),
    st.tuples(st.just("missing"), st.sampled_from([*REQUIRED_FIELDS, "kernel_name",
                                                   "max_change_ratio"])),
    st.tuples(st.just("mistyped"), st.sampled_from([*REQUIRED_FIELDS, "kernel_name"]),
              st.sampled_from([True, None, [1.0], {"v": 1}])),
    st.tuples(st.just("u_max"), st.sampled_from([-2.0, -1.0, 1.0, 0.5, 1e-6])),
    st.tuples(st.just("kernel"), st.sampled_from(["conjugate-poisson", "smoothed-truncated"])),
)


def _malformed(base: str, into: Path, defect: tuple) -> tuple[str, str, str | None]:
    """A copy of the table at `base` in `into` with `defect`: its base, the
    --kernel to run with, and the text the refusal must name, or None
    where the table is whole."""
    rows = Path(base + ".csv").read_bytes()
    meta = json.loads(Path(base + ".json").read_text())
    kind, what, *rest = defect
    kernel, want = "hilbert", None
    if kind == "sample":
        lines = rows.split(b"\r\n")
        lines[1 + int(rest[0] * (len(lines) - 3))] = b"0," + what.encode()
        rows, want = b"\r\n".join(lines), "samples must be finite"
    elif kind == "cut":
        rows = rows[: len(rows) - what if isinstance(what, int) else int(what * len(rows))]
        if len(rows) < 3:
            want = "unexpected table header"
        elif not rows.endswith(b"\n"):
            want = "does not end with a newline (a table cut short"
        else:
            want = "is not the last grid point"
    elif kind == "header":
        rows, want = what.encode() + rows[rows.index(b"\r\n"):], "unexpected table header"
    elif kind == "missing":
        del meta[what]
        want = f"has no field {what!r}" if what in REQUIRED_FIELDS else None
    elif kind == "mistyped":
        meta[what], want = rest[0], f"field {what!r} must be of type"
    elif kind == "u_max":
        meta["u_max"] += what * meta["step"]
        want = "is not the last grid point"
    else:
        kernel = what
        want = f"was solved for kernel 'hilbert', not for --kernel {what!r}"
    (into / "t.csv").write_bytes(rows)
    (into / "t.json").write_text(json.dumps(meta))
    return str(into / "t"), kernel, want


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(["verify", "mc", "apply"]), defect=TABLE_DEFECTS)
def test_malformed_table_scan(scan_base, command, defect):
    """`verify`, `mc` and `apply` on a table with a NaN or infinite sample,
    a CSV cut short anywhere, a wrong header, a sidecar field missing or of
    the wrong type, a u_max that disagrees with the sample count, or a
    kernel other than --kernel, exit 2 with a message that names the
    defect; on a whole table (a default field left out, or a kernel
    mismatch `mc`, which takes no kernel, cannot see) they exit 0 with
    finite output."""
    with tempfile.TemporaryDirectory() as into:
        base, kernel, want = _malformed(scan_base, Path(into), defect)
        if command == "mc":
            want = None if defect[0] == "kernel" else want
            argv = ["mc", "--table", base, "--x", "1", "--y", "0", "--samples", "64"]
        elif command == "verify":
            argv = ["verify", "--table", base, "--kernel", kernel, "--probes", "0.5,2"]
        else:
            argv = ["apply", "--table", base, "--kernel", kernel, "--x", "2", "--samples", "64"]
        rc, out, err = _run(argv)
    if want is not None:
        assert rc == 2 and want in err, (rc, err)
        return
    assert rc == 0, err
    if command == "apply":
        (_, row) = csv.reader(io.StringIO(out))
        assert all(map(math.isfinite, map(float, row)))
    else:
        payload = json.loads(out)
        assert math.isfinite(payload["mean" if command == "mc" else "max_rel_err"])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    kernel=st.sampled_from(["hilbert", "conjugate-poisson"]),
    step=st.one_of(st.floats(2.0**-4, 1e6),
                   st.sampled_from([1e-12, 1e-300, 5e-324, 2.0**-10, 2.0**20, 1e308])),
    window=st.one_of(
        st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
        st.sampled_from([(-1e6, 1e6), (-1e308, 1e308), (-1.7e308, -1e308), (0.0, 0.0),
                         (1.0, -1.0), (-14.0, 14.0), (math.nan, 1.0), (-math.inf, math.inf)]),
    ),
)
def test_solve_input_scan(tmp_path_factory, kernel, step, window):
    """`solve` at any step from the subnormal to 1e308 and any window, the
    empty, reversed, non-finite and too wide included, either exits 0 and
    writes a finite table (which `read_table` checks) with a finite
    residual, or exits 2 or 64 with a message that names the step or the
    window."""
    base = tmp_path_factory.getbasetemp() / "solve-scan"
    rc, _, err = _run(["solve", "--kernel", kernel, f"--step={step!r}", "--window",
                       repr(window[0]), repr(window[1]), "--out", str(base)])
    if rc != 0:
        assert rc in (2, 64) and ("step" in err or "window" in err), err
        return
    table = read_table(base)
    assert math.isfinite(table.residual_sup)


# counts omega_max / step the scan can take, then counts past ADIAG_MAX_COUNT it refuses
SMALL_COUNTS = [0.5, 1.0, 3.0, 1000.0]
HUGE_COUNTS = [cli.ADIAG_MAX_COUNT + 1.0, 1e300, math.inf]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    count=st.sampled_from(SMALL_COUNTS + HUGE_COUNTS),
    step=st.one_of(st.floats(), st.sampled_from(EXTREME_FLOATS)),
)
def test_adiag_input_scan(count, step):
    """`adiag` at any float --step and an --omega-max of a small or a huge
    multiple of it, the extreme and non-finite ones included, either exits
    0 with a finite minimum of |a| and a(0), or exits 2 or 64 with a
    message that names the flag.  (A count at or below 2^29 the scan would
    run for minutes is not drawn.)"""
    omega_max = count * step
    rc, out, err = _run(["adiag", f"--omega-max={omega_max!r}", f"--step={step!r}"])
    if rc != 0:
        assert rc in (2, 64) and ("--omega-max" in err or "--step" in err
                                  or "omega_max / step" in err), err
        return
    assert count in SMALL_COUNTS or omega_max / step <= cli.ADIAG_MAX_COUNT
    smallest, a0 = out.splitlines()
    assert math.isfinite(float(smallest.rsplit(": ", 1)[1]))
    assert math.isfinite(complex(a0.split(" = ")[1].replace("i", "j")).real)


FLAG_VALUES = st.one_of(
    st.floats(), st.sampled_from(EXTREME_FLOATS),
    st.sampled_from(["1e-307", "2e-16", "1e300", "0", "-1", "x", "1,2"]),
).map(lambda v: v if isinstance(v, str) else repr(v))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(flag=st.sampled_from(["--tail-tol", "--seed"]), command=st.sampled_from(["mc", "apply"]),
       value=st.one_of(FLAG_VALUES, st.integers(-(2**130), 2**130).map(str)))
def test_monte_carlo_flag_scan(scan_base, flag, command, value):
    """`mc` and `apply` at any --tail-tol or --seed, floats from the extreme
    to the non-finite, integers beyond the key range and malformed text,
    either exit 0 with a finite mean and stderr, or exit 2 or 64 with a
    message that names the flag or the value."""
    where = ["--x", "0.7", "--y", "0.1"] if command == "mc" else ["--kernel", "hilbert", "--x=2.5"]
    rc, out, err = _run([command, "--table", scan_base, *where, "--samples", "8", f"{flag}={value}"])
    if rc != 0:
        assert rc in (2, 64) and (flag in err or value in err), err
        return
    if command == "mc":
        values = [json.loads(out)["mean"], json.loads(out)["stderr"]]
    else:
        values = list(map(float, list(csv.reader(io.StringIO(out)))[1]))
    assert all(map(math.isfinite, values))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(value=FLAG_VALUES)
def test_verify_rtol_scan(scan_base, value):
    """`verify --rtol` at any value either exits 0 with a finite error, or
    exits 2 or 64 naming --rtol or the value."""
    rc, out, err = _run(["verify", "--table", scan_base, "--kernel", "hilbert", "--probes",
                         "0.5,3", f"--rtol={value}"])
    if rc != 0:
        assert rc in (2, 64) and ("--rtol" in err or "rtol" in err and value in err), err
        return
    assert math.isfinite(json.loads(out)["max_rel_err"])


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(value=FLAG_VALUES)
def test_solve_tol_scan(tmp_path_factory, value):
    """`solve --tol` at any value either exits 0 and writes a finite table,
    or exits 2 or 64 naming --tol or the value."""
    base = tmp_path_factory.getbasetemp() / "tol-scan"
    rc, _, err = _run(["solve", "--kernel", "conjugate-poisson", "--step", "0.0625", "--window",
                       "-2", "2", f"--tol={value}", "--out", str(base)])
    if rc != 0:
        assert rc in (2, 64) and ("--tol" in err or "tol" in err and value in err), err
        return
    assert math.isfinite(read_table(base).residual_sup)


def test_verify_flags_probes_outside_the_window(cp_scan_base):
    """A probe below e^u_min reads c through the left tail, so its error
    measures the window: `verify` flags it in the report and names it on
    stderr, and max_rel_err keeps its meaning (conjugate-poisson at 2^-8,
    window -14 .. 14: 0.2217 at 1e-8 and 1e-7)."""
    rc, out, err = _run(["verify", "--table", cp_scan_base, "--kernel", "conjugate-poisson",
                         "--probes", "1e-8,1e-7,1.0"])
    assert rc == 0
    rows = json.loads(out)["probes"]
    assert [row["outside_window"] for row in rows] == [True, True, False]
    assert json.loads(out)["max_rel_err"] == max(row["rel_err"] for row in rows)
    assert json.loads(out)["max_rel_err"] == pytest.approx(0.2217, abs=1e-4)
    lines = err.splitlines()
    assert len(lines) == 2 and all("measures the table's window" in line for line in lines)
    assert "x = 1e-08" in lines[0] and "x = 1e-07" in lines[1]


def test_numeric_failures_print_their_numbers(hilbert_base, monkeypatch):
    """On exit 2 the CLI prints the numbers a failure carries: an
    OperatorError's jump (x and f's two sides) and a SolverError's point u
    where m failed and m's values there."""
    from haarshift import OperatorError, SolverError, direct_pv, get_kernel, indicator_function

    def jump(*args, **kwargs):
        return direct_pv(get_kernel("hilbert"), indicator_function(), 1.0)

    monkeypatch.setattr(cli, "apply_averaged", jump)
    rc, _, err = _run(["apply", "--table", hilbert_base, "--kernel", "hilbert", "--x", "1"])
    assert rc == 2
    assert err.splitlines()[-1] == "haarshift: x = 1.0, left = 1.0, right = 0.0"
    with pytest.raises(OperatorError) as info:
        jump()
    assert (info.value.x, info.value.left, info.value.right) == (1.0, 1.0, 0.0)

    def unsolvable(name):
        return haarshift.KernelSpec(name=name, k=None, k2=None,
                                    m_eval=lambda u: np.where(u > 3.0, np.inf, 1.0))

    monkeypatch.setattr(cli, "get_kernel", unsolvable)
    rc, _, err = _run(["solve", "--kernel", "hilbert", "--step", "0.0625"])
    assert rc == 2
    *_, message, numbers = err.splitlines()
    assert "source term m is not finite on the padded window, first at u = " in message
    assert numbers.startswith("haarshift: u = 3.") and numbers.endswith("values = [inf]")
    with pytest.raises(SolverError) as info:
        haarshift.solve_c(unsolvable("blows-up"), step=0.0625)
    assert 3.0 < info.value.u <= 3.0625 and info.value.values == [math.inf]


def test_malformed_sidecar_exits_2_without_echoing_the_file(hilbert_base):
    """A sidecar that is not JSON exits 2 with one line: the parser's error
    carries the file's text among its attributes, and only a SolverError's
    or an OperatorError's numbers are printed."""
    sidecar = hilbert_base + ".json"
    with open(sidecar, "a") as fh:
        fh.write("{ not json: sidecar-body-marker")
    rc, _, err = _run(["mc", "--table", hilbert_base, "--x", "1", "--y", "0", "--samples", "10"])
    assert rc == 2
    assert len(err.splitlines()) == 1 and "sidecar-body-marker" not in err


@pytest.mark.parametrize("x", ["1e-310", "9e-13"])
def test_mc_separation_below_two_to_the_minus_40_is_numeric_error(hilbert_base, x, capsys):
    """Nearer than 2^-40 the floor level heads for the subnormal range,
    where the cell arithmetic overflows; at 2^-40 the estimate runs."""
    rc = cli.main(["mc", "--table", hilbert_base, "--x", x, "--y", "0", "--samples", "10"])
    assert rc == 2
    message = f"separation |x - y| = {float(x)!r} is below {2.0**-40!r}"
    assert message in capsys.readouterr().err
    argv = ["mc", "--table", hilbert_base, "--x", repr(2.0**-40), "--y", "0", "--samples", "10"]
    assert cli.main(argv) == 0


@pytest.mark.parametrize("command", ["mc", "apply"])
@pytest.mark.parametrize("tol", ["1e-307", "5e-324"])
def test_tail_tolerance_whose_cells_overflow_is_numeric_error(hilbert_base, command, tol, capsys):
    """A --tail-tol so small that the kept levels' cells reach 2^1022
    exits 2 naming it, before any draw."""
    argv = [command, "--table", hilbert_base, "--x", "2", "--samples", "10", "--tail-tol", tol]
    argv += ["--y", "0"] if command == "mc" else ["--kernel", "hilbert"]
    assert cli.main(argv) == 2
    assert f"tolerance {float(tol)!r} for sup |gamma|" in capsys.readouterr().err


@pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
def test_apply_non_finite_probe_is_numeric_error(hilbert_base, x, capsys):
    argv = ["apply", "--table", hilbert_base, "--kernel", "hilbert", f"--x=2,{x}"]
    assert cli.main([*argv, "--samples", "10"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"probe x = {float(x)!r} is not finite" in err


def test_apply_prints_csv(hilbert_base, capsys):
    rc = cli.main(
        [
            "apply",
            "--table",
            hilbert_base,
            "--kernel",
            "hilbert",
            "--x",
            "2.0,3.0",
            "--samples",
            "3000",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,averaged,stderr,direct,abs_err"
    assert len(lines) == 3
    for line in lines[1:]:
        x, avg, se, direct, err = (float(p) for p in line.split(","))
        assert err == pytest.approx(abs(avg - direct), rel=1e-12)
        assert abs(avg - math.log(x / (x - 1.0))) < 4 * se + 1e-3


def test_apply_writes_files(hilbert_base, tmp_path):
    out = tmp_path / "probes.csv"
    rc = cli.main(
        [
            "apply",
            "--table",
            hilbert_base,
            "--kernel",
            "hilbert",
            "--x",
            "2.0",
            "--samples",
            "500",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert out.read_text().startswith("x,averaged,stderr,direct,abs_err")
    sidecar = json.loads(out.with_suffix(".json").read_text())
    assert sidecar["flags"]["f"] == "indicator"
    assert sidecar["flags"]["seed"] == 0
    assert sidecar["versions"]["stream"] == STREAM_VERSION
    # the per-level record of each probe; the CSV keeps its columns
    (probe,) = sidecar["probes"]
    assert probe["x"] == 2.0 and probe["M"] == 500
    # 500 floor draws evaluate 20 replicates of 25 points
    assert (probe["levels"][0]["draws"], probe["levels"][0]["replicates"]) == (500, 20)
    assert math.fsum(entry["mean"] for entry in probe["levels"]) == pytest.approx(probe["mean"])


def test_apply_sidecar_swaps_a_csv_suffix_or_appends_json(hilbert_base, tmp_path):
    """The sidecar is --out with a trailing .csv swapped for .json, or with
    .json appended: x.csv writes x.json, and run.v1 and run.v2 keep their
    own sidecars."""
    sidecars = {"x.csv": "x.json", "run.v1": "run.v1.json", "run.v2": "run.v2.json"}
    folder = tmp_path / "out"
    folder.mkdir()
    for name in sidecars:
        assert cli.main(["apply", "--table", hilbert_base, "--kernel", "hilbert", "--x", "2.0",
                         "--samples", "50", "--out", str(folder / name)]) == 0
    assert sorted(path.name for path in folder.iterdir()) == sorted([*sidecars, *sidecars.values()])
    for name, sidecar in sidecars.items():
        assert json.loads((folder / sidecar).read_text())["flags"]["out"] == str(folder / name)


def test_benchmark_tracer_runs_on_the_package(tmp_path, monkeypatch):
    """bench/spans.py installs on the loaded package and reaches into it by
    name (ROADMAP item 1): a traced solve, mc and apply --threads 2 exit 0
    and record level-term calls."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer("tests")
    tracer.install()
    try:
        tracer.active = True
        table = str(tmp_path / "h")
        assert cli.main(["solve", "--kernel", "hilbert", "--step", str(2.0**-7),
                         "--out", table]) == 0
        assert cli.main(["mc", "--table", table, "--x", "0.9", "--y", "0.1", "--samples",
                         "2000", "--out", str(tmp_path / "mc.json")]) == 0
        assert cli.main(["apply", "--table", table, "--kernel", "hilbert", "--x", "2.0,-1.0",
                         "--samples", "2000", "--threads", "2",
                         "--out", str(tmp_path / "apply.csv")]) == 0
    finally:
        tracer.active = False
        tracer.uninstall()
        sys.modules.pop("spans", None)
    assert spans.layer_metrics(tracer.spans, 1)["dyadic.term.calls"] > 0


def test_traced_mc_prints_the_untraced_estimate(hilbert_base, tmp_path, monkeypatch):
    """bench/spans.py wraps the mc term as term(n, r, sigma), which passes
    the engine's three arguments through, so a traced mc prints the mean,
    stderr and levels of an untraced one."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    spans = importlib.import_module("spans")
    argv = ["mc", "--table", hilbert_base, "--x", "0.9", "--y", "-0.4", "--samples", "3000",
            "--seed", "8"]
    assert cli.main([*argv, "--out", str(tmp_path / "plain.json")]) == 0
    tracer = spans.Tracer("tests")
    tracer.install()
    try:
        tracer.active = True
        assert cli.main([*argv, "--out", str(tmp_path / "traced.json")]) == 0
    finally:
        tracer.active = False
        tracer.uninstall()
        sys.modules.pop("spans", None)
    plain, traced = (json.loads((tmp_path / f"{name}.json").read_text())
                     for name in ("plain", "traced"))
    assert [plain[k] for k in ("mean", "stderr", "levels")] == [
        traced[k] for k in ("mean", "stderr", "levels")]
    metrics = spans.layer_metrics(tracer.spans, 1)
    assert metrics["dyadic.term.evals"] == sum(level["draws"] for level in plain["levels"])


@pytest.mark.parametrize("command", ["mc", "apply"])
def test_outputs_do_not_depend_on_threads(hilbert_base, tmp_path, command):
    """Fixed-seed outputs are byte-identical at 1, 2 and 4 workers, but for
    the recorded flag, and no worker process outlives the call; 2^17 + 1000
    floor draws make two chunks at the floor."""
    texts = []
    for threads in ("1", "2", "4"):
        out = tmp_path / f"{command}{threads}.csv"
        argv = [command, "--table", hilbert_base, "--samples", str(2**17 + 1000),
                "--seed", "9", "--threads", threads, "--out", str(out)]
        argv += ["--x", "0.9", "--y", "0.1"] if command == "mc" else ["--kernel", "hilbert",
                                                                      "--x", "2.0,-1.0"]
        assert cli.main(argv) == 0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        sidecar = out if command == "mc" else out.with_suffix(".json")
        meta = json.loads(sidecar.read_text())
        assert meta["flags"].pop("threads") == int(threads)
        meta["flags"].pop("out")
        texts.append((json.dumps(meta), out.read_text() if command == "apply" else ""))
    assert texts[0] == texts[1] == texts[2]


def test_apply_requires_probes(hilbert_base):
    with pytest.raises(SystemExit) as exc:
        cli.main(["apply", "--table", hilbert_base, "--kernel", "hilbert"])
    assert exc.value.code == 64


def test_adiag_scan(tmp_path, capsys):
    out = tmp_path / "sym.csv"
    rc = cli.main(
        ["adiag", "--omega-max", "50", "--step", "0.5", "--out", str(out)]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "a(0) = -0.750000" in text
    printed_min = float(text.split(":")[1].split()[0])
    assert printed_min >= 0.75 - 1e-9
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "omega,abs_a"
    assert len(rows) == 202
    mods = {}
    for row in rows[1:]:
        w, m = row.split(",")
        mods[float(w)] = float(m)
    for w, m in mods.items():
        assert m == pytest.approx(mods[-w], abs=1e-12)


def test_adiag_out_over_two_chunks_is_csv_writer_bytes(tmp_path, capsys):
    """A scan of 524,401 frequencies spans two 2^19-row chunks: the file
    has its header once, one row per frequency on the scan grid, and is
    exactly what csv.writer writes for those floats."""
    out = tmp_path / "sym.csv"
    assert cli.main(["adiag", "--omega-max", "2622", "--step", "0.01", "--out", str(out)]) == 0
    data = out.read_bytes()
    header, body = data.split(b"\r\n", 1)
    assert header == b"omega,abs_a" and b"omega" not in body
    values = np.loadtxt(io.StringIO(body.decode()), delimiter=",")
    assert values.shape[0] == 524_401 > 1 << 19
    assert np.array_equal(values[:, 0], (np.arange(524_401) - 262_200) * 0.01)
    assert values[:, 1].min() >= 0.75 - 1e-12
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["omega", "abs_a"])
    writer.writerows((format(w, ".17g"), format(m, ".17g")) for w, m in values.tolist())
    assert data == buf.getvalue().encode()


@pytest.mark.parametrize(
    "argv",
    [
        "adiag --step=0",
        "adiag --step=-0.5",
        "adiag --omega-max=-50",
        "adiag --omega-max=inf",
        "adiag --step=nan",
        "verify --table t --kernel hilbert --rtol=0",
        "verify --table t --kernel hilbert --rtol=-1",
        "solve --kernel hilbert --step=nan",
        "solve --kernel hilbert --step=inf",
        "solve --kernel hilbert --step=0",
        "solve --kernel hilbert --tol=nan",
        "solve --kernel hilbert --tol=-1e-8",
        "mc --table t --x 1 --y 0 --tail-tol=0",
        "mc --table t --x 1 --y 0 --tail-tol=-1",
        "mc --table t --x 1 --y 0 --tail-tol=nan",
        "mc --table t --x 1 --y 0 --tail-tol=inf",
        "apply --table t --kernel hilbert --x 2 --tail-tol=0",
        "apply --table t --kernel hilbert --x 2 --tail-tol=-1",
        "apply --table t --kernel hilbert --x 2 --tail-tol=nan",
        "apply --table t --kernel hilbert --x 2 --tail-tol=inf",
    ],
)
def test_nonpositive_scan_or_tolerance_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv.split())
    assert exc.value.code == 64
    assert "positive" in capsys.readouterr().err


def test_adiag_scan_count_overflow_is_numeric_error(capsys):
    # both flags are positive and finite, their ratio is not
    assert cli.main(["adiag", "--omega-max", "1e200", "--step", "1e-200"]) == 2
    assert "scan count" in capsys.readouterr().err


def _cap_address_space():
    # 1 GB: enough for the interpreter and numpy, far below the 7.5 GB a lost bound asks for
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "argv, code, message",
    [
        ("solve --kernel hilbert --step 1e-12", 2, "8.11e+13 grid points, above the bound 2^22"),
        ("solve --kernel hilbert --window -1e6 1e6", 2, "1.02e+09 grid points, above the bound"),
        ("solve --kernel hilbert --step 1e-300", 2, "8.11e+301 grid points, above the bound"),
        ("verify --table t --kernel hilbert --probes log:1:10:1000000000", 64,
         "argument --probes: 1000000000 probes in 'log:1:10:1000000000', above the bound 2^16"),
    ],
    ids=["solve-step", "solve-window", "solve-step-1e-300", "verify-probes"],
)
def test_array_sizes_are_bounded_before_any_array(tmp_path, argv, code, message):
    """`solve` and `verify` count the grid points and probes they are asked
    for before making an array, and refuse counts past their bounds with a
    message naming the flag and the bound.  The run is a child capped at
    1 GB of address space, so a lost bound fails instead of asking the
    machine for gigabytes."""
    env = dict(os.environ, PYTHONPATH=str(Path(haarshift.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "haarshift.cli", *argv.split(), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=_cap_address_space,
    )
    assert proc.returncode == code, proc.stderr
    assert message in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_adiag_huge_scan_count_is_numeric_error():
    """A finite scan count of 1e15 (2e15 frequencies) is refused at once,
    naming the bound, instead of scanning without end."""
    env = dict(os.environ, PYTHONPATH=str(Path(haarshift.__file__).parents[1]))
    argv = ["adiag", "--omega-max", "1e12", "--step", "1e-3"]
    proc = subprocess.run(
        [sys.executable, "-m", "haarshift.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2
    assert f"bound 2^29 = {cli.ADIAG_MAX_COUNT}" in proc.stderr


@pytest.mark.parametrize("command", ["mc", "apply", "verify"])
def test_sidecar_missing_field_is_numeric_error(hilbert_base, command, capsys):
    sidecar = Path(hilbert_base).with_suffix(".json")
    meta = json.loads(sidecar.read_text())
    del meta["u_min"]
    sidecar.write_text(json.dumps(meta))
    argv = {
        "mc": ["mc", "--table", hilbert_base, "--x", "1", "--y", "0"],
        "apply": ["apply", "--table", hilbert_base, "--kernel", "hilbert", "--x", "2"],
        "verify": ["verify", "--table", hilbert_base, "--kernel", "hilbert"],
    }[command]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "hilb.json has no field 'u_min'" in err


@pytest.mark.parametrize("command", ["mc", "apply", "verify"])
@pytest.mark.parametrize("text", ["[]", "3", '"u_min"', "null"])
def test_sidecar_not_an_object_is_numeric_error(hilbert_base, command, text, capsys):
    Path(hilbert_base).with_suffix(".json").write_text(text)
    argv = {
        "mc": ["mc", "--table", hilbert_base, "--x", "1", "--y", "0"],
        "apply": ["apply", "--table", hilbert_base, "--kernel", "hilbert", "--x", "2"],
        "verify": ["verify", "--table", hilbert_base, "--kernel", "hilbert"],
    }[command]
    assert cli.main(argv) == 2
    assert "hilb.json is not a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("step", 0.0, "step must be positive"),
        ("u_max", math.inf, "u_min <= u_max"),
        ("tail_left", math.nan, "tail_left must be finite"),
        ("step", None, "field 'step' must be of type float"),
        ("u_min", [-14.0], "field 'u_min' must be of type float"),
        ("iterations", None, "field 'iterations' must be of type int"),
        # JSON types are checked, not cast
        ("step", "0.001953125", "field 'step' must be of type float"),
        ("iterations", 2.7, "field 'iterations' must be of type int"),
        ("kernel_name", [1], "field 'kernel_name' must be of type str"),
        ("tail_left", True, "field 'tail_left' must be of type float"),
        # the samples end at 14, not half a step on
        ("u_max", 14.00390625, "is not the last grid point"),
    ],
)
def test_sidecar_bad_field_is_numeric_error(hilbert_base, field, value, message, capsys):
    # unchecked, step 0 and u_max inf end in ZeroDivisionError and
    # OverflowError tracebacks, a NaN tail is read silently, and a field
    # of the wrong JSON type ends in a TypeError traceback
    sidecar = Path(hilbert_base).with_suffix(".json")
    meta = json.loads(sidecar.read_text())
    meta[field] = value
    sidecar.write_text(json.dumps(meta))
    assert cli.main(["mc", "--table", hilbert_base, "--x", "1", "--y", "0"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "apply"])
def test_table_of_another_kernel_is_numeric_error(hilbert_base, command, capsys):
    """A hilbert table checked against conjugate-poisson is refused, both
    kernels named: unchecked, verify reported max_rel_err 1.0 with exit 0."""
    argv = [command, "--table", hilbert_base, "--kernel", "conjugate-poisson"]
    argv += ["--x", "2", "--samples", "64"] if command == "apply" else ["--probes", "1"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "solved for kernel 'hilbert', not for --kernel 'conjugate-poisson'" in err


@pytest.mark.parametrize("command", ["verify", "apply"])
def test_table_with_no_kernel_name_reads_for_any_kernel(hilbert_base, command, capsys):
    sidecar = Path(hilbert_base).with_suffix(".json")
    meta = json.loads(sidecar.read_text())
    meta["kernel_name"] = ""
    sidecar.write_text(json.dumps(meta))
    argv = [command, "--table", hilbert_base, "--kernel", "conjugate-poisson"]
    argv += ["--x", "2", "--samples", "64"] if command == "apply" else ["--probes", "1"]
    assert cli.main(argv) == 0


@pytest.mark.parametrize(
    "text, value", [("-1e-3", -1e-3), ("-2.5E+2", -250.0), ("-.5e1", -5.0), ("-3.", -3.0)]
)
def test_negative_number_with_an_exponent_is_a_value(text, value):
    """argparse's own pattern for a negative number has no exponent, so
    `--x -1e-3` read as an option and failed with "expected one argument"."""
    args = cli.build_parser().parse_args(["mc", "--table", "t", "--x", text, "--y", text])
    assert (args.x, args.y) == (value, value)


def test_mc_and_solve_take_negative_exponents(hilbert_base, tmp_path, capsys):
    argv = ["mc", "--table", hilbert_base, "--x", "-1e-3", "--y", "0", "--samples", "64"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["x"] == -1e-3
    base = tmp_path / "w"
    argv = ["solve", "--kernel", "hilbert", "--window", "-1e1", "1e1", "--step", "0.125",
            "--out", str(base)]
    assert cli.main(argv) == 0
    assert (read_table(base).u_min, read_table(base).u_max) == (-10.0, 10.0)


def test_apply_probe_next_to_a_kink(hilbert_base, capsys):
    """1e-9 from the kink at the triangle's peak, the direct route meets the
    closed form."""
    x = 1.000000001
    argv = ["apply", "--table", hilbert_base, "--kernel", "hilbert", "--f", "triangle",
            "--x", repr(x), "--samples", "500"]
    assert cli.main(argv) == 0
    row = capsys.readouterr().out.strip().splitlines()[1]
    direct = float(row.split(",")[3])

    def phi(y):
        return y * math.log(abs(y))

    assert direct == pytest.approx(phi(x) - 2.0 * phi(x - 1.0) + phi(x - 2.0), abs=1e-12)


def test_verify_rtol_below_epsilon_is_numeric_error(hilbert_base, capsys):
    # a positive rtol below 2^-52 passes the flag check; the reconstruction
    # rejects it at once instead of bisecting without end
    argv = ["verify", "--table", hilbert_base, "--kernel", "hilbert", "--rtol", "1e-300"]
    assert cli.main(argv) == 2
    assert "2^-52" in capsys.readouterr().err


def test_solve_tol_below_epsilon_is_numeric_error(tmp_path, capsys):
    # a positive tol below 2^-52 passes the flag check; the solver rejects
    # it at once, since its padding grows like log(1/tol)
    argv = ["solve", "--kernel", "hilbert", "--tol", "1e-300", "--out", str(tmp_path / "h")]
    assert cli.main(argv) == 2
    assert "2^-52" in capsys.readouterr().err


def test_no_arguments_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 64


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 64


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def _declared_console_script(name: str) -> tuple[str, str]:
    """``(module, func)`` of console script ``name`` in pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert name in scripts
    module, _, func = scripts[name].partition(":")
    assert module and func, scripts[name]
    return module, func


def test_console_script_entrypoint():
    module, func = _declared_console_script("haarshift")
    # the body of the wrapper pip installs, run against the package this
    # process imported, so an uninstalled checkout checks its own code
    src = str(Path(haarshift.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    runs = [([sys.executable, "-c", wrapper, "--version"], env)]
    # where the package is installed, its script on PATH is checked as well
    exe = shutil.which("haarshift")
    if exe is not None:
        runs.append(([exe, "--version"], None))
    for cmd, run_env in runs:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=run_env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert __version__ in proc.stdout
