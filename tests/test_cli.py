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


def test_verify_default_probes(hilbert_base, capsys):
    rc = cli.main(["verify", "--table", hilbert_base, "--kernel", "hilbert"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_rel_err"] <= 1e-6
    assert len(payload["probes"]) == 50
    assert len(payload["flags"]["probes"]) == 50
    assert payload["flags"]["probes"][0] == pytest.approx(1e-3)


def test_verify_empty_probe_list(hilbert_base, capsys):
    rc = cli.main(
        ["verify", "--table", hilbert_base, "--kernel", "hilbert", "--probes", ""]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["probes"] == []
    assert payload["max_rel_err"] == 0.0


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


def test_mc_rejects_zero_samples(hilbert_base, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(
            ["mc", "--table", hilbert_base, "--x", "1", "--y", "0", "--samples", "0"]
        )
    assert exc.value.code == 64


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
    ],
)
def test_nonpositive_scan_or_tolerance_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv.split())
    assert exc.value.code == 64
    assert "positive" in capsys.readouterr().err


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
