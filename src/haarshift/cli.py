"""Command-line front end: solve, verify, mc, apply, adiag.

Exit codes: 0 success, 2 numerical failure, 64 usage error (including an
unknown kernel name).  All outputs are deterministic given the flags; JSON
sidecars carry the full flag set, seed, library versions and the
Monte-Carlo draw-stream version so a result can be reproduced from its
metadata alone.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import platform
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dyadic import STREAM_VERSION
from .kernels import builtin_names, get_kernel
from .operators import (
    OperatorError,
    apply_averaged,
    direct_pv,
    indicator_function,
    triangle_function,
)
from .reconstruct import compare_report, mc_estimate
from .solver import (
    RECURSION,
    SolverError,
    a_of_omega,
    json_text,
    modulus_chunks,
    read_table,
    solve_c,
    write_csv,
    write_table,
)

USAGE_EXIT = 64
NUMERIC_EXIT = 2

# largest omega_max / step `adiag` scans: 2^30 + 1 frequencies, minutes of work
ADIAG_MAX_COUNT = 1 << 29
# most probes `verify` takes (4 s, 0.28 GB), 328 times the benchmark's largest verify
VERIFY_MAX_PROBES = 1 << 16


class _Parser(argparse.ArgumentParser):
    """argparse with the BSD convention for usage errors, and negative
    numbers with an exponent (-1e-3) read as values, not options."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 1 << 128:
        raise argparse.ArgumentTypeError("must be an integer in [0, 2^128)")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError("must be a positive finite number")
    return value


def _float_list(text: str) -> list[float]:
    """A comma-separated list of probe points, not empty."""
    try:
        probes = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")
    if not probes:
        raise argparse.ArgumentTypeError(f"no probes in {text!r}")
    return probes


def _probe_spec(text: str) -> np.ndarray:
    """Either 'log:A:B:N' (N log-spaced points, A and B positive and finite,
    N at most VERIFY_MAX_PROBES before any array is made) or a comma list,
    not empty."""
    if not text.startswith("log:"):
        return np.asarray(_float_list(text))
    try:
        _, a, b, n = text.split(":")
        ends, count = [math.log10(_positive_float(v)) for v in (a, b)], int(n)
    except (ValueError, TypeError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(f"bad probe spec {text!r}")
    if count > VERIFY_MAX_PROBES:
        raise argparse.ArgumentTypeError(
            f"{count} probes in {text!r}, above the bound 2^16 = {VERIFY_MAX_PROBES}")
    if count < 1:
        raise argparse.ArgumentTypeError(f"no probes in {text!r}")
    return np.logspace(*ends, count)


def _table_for(args: argparse.Namespace):
    """The table at --table, refused when its sidecar names a kernel other
    than --kernel; a sidecar with no kernel name reads for any."""
    table = read_table(args.table)
    if table.kernel_name and table.kernel_name != args.kernel:
        raise ValueError(
            f"table {args.table} was solved for kernel {table.kernel_name!r}, "
            f"not for --kernel {args.kernel!r}"
        )
    return table


def _provenance(args: argparse.Namespace) -> dict:
    return {
        "flags": {k: v for k, v in vars(args).items() if k != "func" and not k.startswith("_")},
        "versions": {
            "haarshift": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "stream": STREAM_VERSION,
        },
    }


def _emit(payload: dict, out: str | Path | None) -> None:
    text = json_text(payload)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_solve(args) -> int:
    spec = get_kernel(args.kernel)
    table = solve_c(
        spec,
        window=(args.window[0], args.window[1]),
        step=args.step,
        tol=args.tol,
    )
    base = args.out or f"{args.kernel}_table"
    csv_path, json_path = write_table(table, base, extra=_provenance(args))
    print(
        f"{args.kernel}: residual_sup={table.residual_sup:.3e}, "
        f"sup|c|={table.sup_norm():.6f}"
    )
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _cmd_verify(args) -> int:
    spec = get_kernel(args.kernel)
    table = _table_for(args)
    # near 0 a K of order 1/x overflows, and a non-finite error is refused below
    with np.errstate(over="ignore"):
        payload = compare_report(spec, table, args.probes, rtol=args.rtol)
    for row in payload["probes"]:
        if not math.isfinite(row["rel_err"]):
            raise ValueError("probe x = {x!r}: K = {K!r}, Khat = {Khat!r}, rel_err {rel_err!r}"
                             .format(**row))
        if row["outside_window"]:
            print(f"haarshift: probe x = {row['x']!r} lies outside [e^u_min, e^u_max] = "
                  f"[{math.exp(table.u_min):.6g}, {math.exp(table.u_max):.6g}]: its rel_err "
                  "measures the table's window, not the table", file=sys.stderr)
    payload.update(_provenance(args))
    _emit(payload, args.out)
    return 0


def _cmd_mc(args) -> int:
    table = read_table(args.table)
    est = mc_estimate(
        table,
        args.x,
        args.y,
        num_samples=args.samples,
        tol_tail=args.tail_tol,
        seed=args.seed,
        threads=args.threads,
    )
    payload = est.to_dict()
    payload["y"] = args.y
    payload.update(_provenance(args))
    _emit(payload, args.out)
    return 0


def _cmd_apply(args) -> int:
    spec = get_kernel(args.kernel)
    table = _table_for(args)
    f = indicator_function() if args.f == "indicator" else triangle_function()
    rows = apply_averaged(
        table,
        f,
        args.x,
        num_samples=args.samples,
        seed=args.seed,
        tol_tail=args.tail_tol,
        threads=args.threads,
    )
    x, mean, stderr = np.array([(row.x, row.mean, row.stderr) for row in rows]).T
    direct = np.array([direct_pv(spec, f, probe) for probe in x])
    header = ("x", "averaged", "stderr", "direct", "abs_err")
    columns = (x, mean, stderr, direct, np.abs(mean - direct))
    if args.out:
        with open(args.out, "w", newline="") as fh:
            write_csv(fh, header, *columns)
        sidecar = {"probes": [row.to_dict() for row in rows], **_provenance(args)}
        _emit(sidecar, args.out.removesuffix(".csv") + ".json")
    else:
        write_csv(sys.stdout, header, *columns, newline="\n")
    return 0


def _cmd_adiag(args) -> int:
    if not math.isfinite(args.omega_max * max(shift for shift, _ in RECURSION)):
        raise ValueError(f"--omega-max {args.omega_max!r} overflows a(omega)'s phases omega shift")
    count = args.omega_max / args.step
    if not count <= ADIAG_MAX_COUNT:
        raise ValueError(
            f"scan count omega_max / step = {count:g} is above the bound 2^29 = {ADIAG_MAX_COUNT}"
        )
    count = int(round(count))
    best = math.inf
    header = ("omega", "abs_a")
    with open(args.out, "w", newline="") if args.out else contextlib.nullcontext() as fh:
        for omega, mod in modulus_chunks(2 * count + 1, lambda k: (k - count) * args.step):
            best = min(best, float(mod.min()))
            if fh:
                write_csv(fh, header, omega, mod)
                header = ()
    a0 = a_of_omega(0.0)
    print(f"min |a(omega)| over [{-args.omega_max:g}, {args.omega_max:g}] "
          f"step {args.step:g}: {best:.9f}")
    print(f"a(0) = {a0.real:+.6f}{a0.imag:+.6f}i")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="haarshift",
        description="Coefficient solver and verification harness for "
        "representing odd convolution kernels as averaged lattice shift "
        "operators.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    # flags shared by several subcommands, each declared once
    kernel = _Parser(add_help=False)
    kernel.add_argument("--kernel", required=True, help=f"one of: {', '.join(builtin_names())}")
    table = _Parser(add_help=False)
    table.add_argument("--table", required=True, help="table base path from `solve`")
    monte_carlo = _Parser(add_help=False, parents=[table])
    monte_carlo.add_argument("--samples", type=_positive_int, default=100000,
                             help="draws at the floor level: sigma points, at each of "
                             "which mc and apply integrate the dilation exactly; each level "
                             "above takes about 1/sqrt(2) as many as the one below")
    monte_carlo.add_argument("--seed", type=_seed, default=0)
    monte_carlo.add_argument("--tail-tol", type=_positive_float, default=1e-4)
    monte_carlo.add_argument("--threads", type=_positive_int, default=1,
                             help="engine worker processes: N > 1 forks N - 1 (no more "
                             "than the cores); outputs are byte-identical at any N")

    p = sub.add_parser("solve", parents=[kernel], help="solve the coefficient recursion")
    p.add_argument("--window", nargs=2, type=float, default=[-14.0, 14.0],
                   metavar=("U0", "U1"))
    p.add_argument("--step", type=_positive_float, default=2.0**-9)
    p.add_argument("--tol", type=_positive_float, default=1e-8)
    p.add_argument("--out", help="output base path (writes BASE.csv and BASE.json)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", parents=[table, kernel],
                       help="reconstruct the kernel and compare")
    p.add_argument("--probes", type=_probe_spec, default="log:0.001:1000:50",
                   help="'log:A:B:N' or comma-separated values")
    p.add_argument("--rtol", type=_positive_float, default=1e-8)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("mc", parents=[monte_carlo], help="Monte-Carlo two-point estimate")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("apply", parents=[monte_carlo, kernel],
                       help="averaged operator vs direct convolution")
    p.add_argument("--f", choices=["indicator", "triangle"], default="indicator")
    p.add_argument("--x", type=_float_list, required=True,
                   help="comma-separated probe points")
    p.add_argument("--out", help="CSV path; the JSON provenance sidecar is this path "
                   "with a trailing .csv swapped for .json, or with .json appended")
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("adiag", help="scan the modulus of the recursion symbol")
    p.add_argument("--omega-max", type=_positive_float, default=1e4)
    p.add_argument("--step", type=_positive_float, default=1e-2)
    p.add_argument("--out", help="CSV of (omega, |a|)")
    p.set_defaults(func=_cmd_adiag)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyError as exc:
        print(f"haarshift: {exc.args[0]}", file=sys.stderr)
        return USAGE_EXIT
    except (SolverError, OperatorError, ValueError, OSError) as exc:
        print(f"haarshift: {exc}", file=sys.stderr)
        # the numbers a SolverError or OperatorError carries
        numbers = [f"{k} = {v!r}" for k, v in vars(exc).items() if v is not None]
        if isinstance(exc, (SolverError, OperatorError)) and numbers:
            print("haarshift: " + ", ".join(numbers), file=sys.stderr)
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
