import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import haarshift
from haarshift import STREAM_VERSION, __version__, read_table, write_table
from haarshift import cli


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
    # table's interpolation error, measured near 4e-6 at the default step
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
    assert "haarshift:" in capsys.readouterr().err


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


def test_apply_out_that_is_its_own_sidecar_is_usage_error(hilbert_base, tmp_path, capsys):
    """The sidecar is the CSV path with suffix .json: an --out ending in
    .json would be overwritten by it, so it is refused before any work."""
    out = tmp_path / "res.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["apply", "--table", hilbert_base, "--kernel", "hilbert", "--x", "2.0",
                  "--samples", "50", "--out", str(out)])
    assert exc.value.code == 64
    assert "is also the path of its JSON sidecar" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["mc", "apply"])
def test_outputs_do_not_depend_on_threads(hilbert_base, tmp_path, command):
    """Fixed-seed outputs are byte-identical at 1 and 2 threads, but for the
    recorded flag; 2^17 + 1000 floor draws make two chunks at the floor."""
    texts = []
    for threads in ("1", "2"):
        out = tmp_path / f"{command}{threads}.csv"
        argv = [command, "--table", hilbert_base, "--samples", str(2**17 + 1000),
                "--seed", "9", "--threads", threads, "--out", str(out)]
        argv += ["--x", "0.9", "--y", "0.1"] if command == "mc" else ["--kernel", "hilbert",
                                                                      "--x", "2.0,-1.0"]
        assert cli.main(argv) == 0
        sidecar = out if command == "mc" else out.with_suffix(".json")
        meta = json.loads(sidecar.read_text())
        assert meta["flags"].pop("threads") == int(threads)
        meta["flags"].pop("out")
        texts.append((json.dumps(meta), out.read_text() if command == "apply" else ""))
    assert texts[0] == texts[1]


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
