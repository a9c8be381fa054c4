"""Command-line interface.

Subcommands: spectrum | riesz | bounds | verify | table | figure.
Global flags (valid on every subcommand): --output <path>,
--full-precision.  Argparse owns the shape of the arguments: each
subcommand's ``--format`` chooses among the formats it writes, the first
by default (``_add_format``), and a spectrum source (--box, --ball,
--load) and a ``riesz`` mode (--z, --means, --legendre) are each one
required group of exclusive flags.  The commands own their meaning: a
flag that the chosen mode does not read exits 2 (``_read_only_with``), as
does ``bounds --list`` or ``--eval``, which write one JSON object, with
``--format csv``.

Output is deterministic: identical invocations produce byte-identical
bytes, numbers are rendered with 6 significant figures by default and 17
digits under --full-precision, and files are written atomically.  Only the
``verify`` subcommand encodes mathematical content in its exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import math
import os
import sys
import tempfile
from functools import partial

from . import bounds, riesz, spectra, specfun, verify
from .errors import ResourceLimitError, RieszBoundsError

#: most Bessel zeros one ``bounds --bessel-zeros`` export may find, counted
#: by ``specfun.chain_zeros`` below each chain's bound on its zeros asked;
#: 10^5 zeros of one scanned root take about 8 s, of a batched chain 1.5 s
MAX_EXPORT_ZEROS = 10**5


def _fmt(full_precision: bool):
    digits = "{:.17g}" if full_precision else "{:.6g}"
    return lambda x: digits.format(x)


def _write_error(output: str, exc: OSError) -> RieszBoundsError:
    return RieszBoundsError(
        f"cannot write {output}: {exc.strerror or exc}")


@contextlib.contextmanager
def _output_file(output: str | None):
    """Stdout, or a temporary file that replaces the output path only once
    everything has been written to it; RieszBoundsError names an output
    path that cannot be created or replaced."""
    if output is None:
        yield sys.stdout
        return
    directory = os.path.dirname(os.path.abspath(output))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rieszbounds-")
    except OSError as exc:
        raise _write_error(output, exc) from exc
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        try:
            os.replace(tmp, output)
        except OSError as exc:
            raise _write_error(output, exc) from exc
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(text: str, output: str | None) -> None:
    """Write to stdout, or atomically to the output path."""
    with _output_file(output) as fh:
        fh.write(text)


def _rows_to_csv(header, rows, fmt):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            c if isinstance(c, str) else fmt(c) for c in row))
    return "\n".join(lines) + "\n"


def _rows_to_json(header, rows, fmt):
    payload = {"columns": list(header),
               "rows": [[c if isinstance(c, str) else float(fmt(c))
                         for c in row] for row in rows]}
    return json.dumps(payload, indent=2) + "\n"


def _emit_rows(args, header, rows):
    fmt = _fmt(args.full_precision)
    if args.format == "json":
        _emit(_rows_to_json(header, rows, fmt), args.output)
    else:
        _emit(_rows_to_csv(header, rows, fmt), args.output)


# ---------------------------------------------------------------------------
# spectrum sources shared by several subcommands

def _add_domain_flags(p):
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--box", nargs="+", type=float, metavar="L",
                        help="box side lengths")
    source.add_argument("--ball", action="store_true", help="ball domain")
    source.add_argument("--load", metavar="PATH", help="load a spectrum file")
    p.add_argument("--dim", type=int, help="ball dimension")
    p.add_argument("--radius", type=float, help="ball radius (default 1.0)")
    p.add_argument("--lambda-max", type=float,
                   help="completeness threshold for generated spectra")


def _read_only_with(mode: str, args, *names: str) -> None:
    """RieszBoundsError naming the first flag of ``names`` (``args``
    attributes) that was given, as only ``mode`` reads it: a mode rejects
    the flags it does not read."""
    for name in names:
        if getattr(args, name) is not None:
            raise RieszBoundsError(
                f"--{name.replace('_', '-')} is read only with {mode}")


def _spectrum_from_args(args) -> spectra.Spectrum:
    if not args.ball:
        _read_only_with("--ball", args, "dim", "radius")
    if args.load is not None:
        _read_only_with("--box or --ball", args, "lambda_max")
        return spectra.load_spectrum(args.load)
    if args.lambda_max is None:
        raise RieszBoundsError("--lambda-max is required for generation")
    if args.box:
        return spectra.box_spectrum(args.box, args.lambda_max)
    if args.dim is None:
        raise RieszBoundsError("--ball requires --dim")
    radius = 1.0 if args.radius is None else args.radius
    return spectra.ball_spectrum(args.dim, radius, args.lambda_max)


# ---------------------------------------------------------------------------
# subcommands

def cmd_spectrum(args) -> int:
    spec = _spectrum_from_args(args)
    write = {"text": spectra._write_text, "json": spectra._write_json,
             "csv": partial(spectra._write_csv,
                            full_precision=args.full_precision)}[args.format]
    with _output_file(args.output) as fh:
        write(spec, fh)
    return 0


def cmd_riesz(args) -> int:
    if args.z is None:
        _read_only_with("--z", args, "sigma")
    spec = _spectrum_from_args(args)
    if args.legendre is not None:
        rows = [[w, riesz.legendre_R1(spec, w)] for w in args.legendre]
        _emit_rows(args, ["w", "legendre_R1"], rows)
        return 0
    if args.means is not None:
        m = riesz.means(spec, args.means)
        rows = [[m.k, m.mean, m.mean_sq, m.geometric, m.harmonic]]
        _emit_rows(args, ["k", "mean", "mean_sq", "geometric", "harmonic"],
                   rows)
        return 0
    sigma = 1.0 if args.sigma is None else args.sigma
    rows = []
    for z in args.z:
        ev = riesz.riesz_mean(spec, sigma, z)
        rows.append([sigma, z, ev.value, ev.contributing])
    _emit_rows(args, ["sigma", "z", "riesz_mean", "contributing"], rows)
    return 0


def _bound_arg(item: str):
    """Parse one ``--arg KEY=VALUE`` into (key, finite int or float)."""
    key, sep, val = item.partition("=")
    try:
        if not sep or not key:
            raise ValueError("expected KEY=VALUE")
        num = float(val) if "." in val or "e" in val.lower() else int(val)
        if not math.isfinite(num):
            raise ValueError("value must be finite")
    except (ValueError, OverflowError) as exc:
        raise RieszBoundsError(f"bad --arg {item!r}: {exc}") from None
    return key, num


def cmd_bounds(args) -> int:
    if args.bessel_zeros is None and args.format == "csv":
        mode = "--list" if args.eval is None else "--eval"
        raise RieszBoundsError(
            f"--format csv: bounds {mode} writes one JSON object")
    if args.eval is None:
        _read_only_with("--eval", args, "arg")
    if args.bessel_zeros is None:
        _read_only_with("--bessel-zeros", args, "zero_count")
    else:
        try:
            orders = [float(v) for v in args.bessel_zeros.split(",")]
        except ValueError as exc:
            raise RieszBoundsError(
                f"bad --bessel-zeros {args.bessel_zeros!r}: {exc}") from None
        count = 10 if args.zero_count is None else args.zero_count
        if count < 1:
            raise RieszBoundsError(f"--zero-count must be >= 1, got {count}")
        need = specfun.chain_zeros(orders, count)
        if need > MAX_EXPORT_ZEROS:
            raise ResourceLimitError(
                f"--zero-count {count} for {len(orders)} order(s) "
                f"may find {need} zeros with their chains, which exceeds cap "
                f"{MAX_EXPORT_ZEROS} zeros")
        rows = []
        for nu in orders:
            # zero ``count`` fills the chain; the zeros up to it are cached
            last = specfun.bessel_zero(nu, count).value
            zeros = specfun.bessel_zeros(nu, math.nextafter(last, math.inf))
            rows += ([nu, p, value] for p, value in enumerate(zeros, 1))
        _emit_rows(args, ["nu", "p", "zero"], rows)
        return 0
    if args.eval is not None:
        bound_id = args.eval
        bound = bounds.CATALOG.get(bound_id)
        if bound is None:
            raise RieszBoundsError(
                f"unknown bound id {bound_id!r} (see 'bounds --list')")
        kwargs = {}
        for item in args.arg or ():
            key, num = _bound_arg(item)
            if key in kwargs:
                raise RieszBoundsError(f"repeated --arg {key!r}")
            kwargs[key] = num
        try:
            inspect.signature(bound.fn).bind(**kwargs)
        except TypeError as exc:
            raise RieszBoundsError(
                f"bad arguments for bound {bound_id!r}: {exc}") from None
        value = bounds.evaluate(bound_id, **kwargs)
        fmt = _fmt(args.full_precision)
        payload = {"id": bound_id, "args": kwargs, "value": float(fmt(value))}
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
        return 0
    # default: --list
    _emit(json.dumps(bounds.catalog_dump(), indent=2) + "\n", args.output)
    return 0


def cmd_verify(args) -> int:
    cfg = verify.VerifyConfig(
        z_points=args.z_points, z_max=args.z_max, seed=args.seed,
        inject_corruption=args.inject_corruption)
    verify.check_config(cfg)
    if args.spectrum:
        # a spectrum's label is its file name; one label must not hide
        # another spectrum
        paths = {}
        for path in args.spectrum:
            label = os.path.basename(path)
            if label in paths:
                raise RieszBoundsError(
                    f"spectra {paths[label]} and {path} share the label "
                    f"{label!r}")
            paths[label] = path
        specs = {label: spectra.load_spectrum(path)
                 for label, path in paths.items()}
    else:
        specs = verify.default_spectra()
    report = verify.run_suite(specs, cfg)
    if args.format == "json":
        _emit(json.dumps(report.to_json_dict(), indent=2) + "\n",
              args.output)
    else:
        _emit(report.to_text(), args.output)
    return 0 if report.all_passed else 1


TABLE1_COLUMNS = (
    ("eq_3_4_j1", bounds.simple_p9),
    ("cy_av", bounds.cy_av),
    ("her2", bounds.her2),
    ("ab94_avg", bounds.ab94_avg),
    ("fk_weyl_avg", bounds.fk_weyl_avg),
)

#: the dimensions of the comparison tables
TABLE_DIMS = range(2, 8)


def _table2_k(d: int) -> int:
    return int(math.floor((d + 1) * (1 + d / 2) / (1 + d / 4))) + 1


def table_rows(table_id: str):
    """Row data for the three comparison tables."""
    if table_id == "table1":
        header = ["d", "k"] + [name for name, _ in TABLE1_COLUMNS]
        rows = [[str(d), "127"] + [fn(d, 127) for _, fn in TABLE1_COLUMNS]
                for d in TABLE_DIMS]
        return header, rows
    if table_id == "table2":
        header = ["d", "k", "abhh_over_fk_weyl_avg",
                  "cheng_yang2_avg_over_fk_weyl_avg"]
        rows = []
        for d in TABLE_DIMS:
            k = _table2_k(d)
            ref = bounds.fk_weyl_avg(d, k)
            rows.append([str(d), str(k), bounds.abhh(d, k) / ref,
                         bounds.cheng_yang2_avg(d, k) / ref])
        return header, rows
    if table_id == "table3":
        header = ["d", "eq_3_4_j1_over_fk_weyl_avg",
                  "cy_av_over_fk_weyl_avg"]
        rows = []
        for d in TABLE_DIMS:
            ref = bounds.fk_coeff(d) / (1 + 2 / d)
            rows.append([str(d), bounds.simple_p9_coeff(d) / ref,
                         bounds.cy_av_coeff(d) / ref])
        return header, rows
    raise RieszBoundsError(f"unknown table id {table_id!r}")


def figure_rows(fig_id: str):
    """Curve data for the three figures, at the paper's ranges."""
    if fig_id == "fig1":
        header = ["d", "eq_3_4_j1_coeff", "cy_av_coeff"]
        rows = [[str(d), bounds.simple_p9_coeff(d), bounds.cy_av_coeff(d)]
                for d in TABLE_DIMS]
        return header, rows
    if fig_id == "fig2":
        d = 4
        header = ["k"] + [name for name, _ in TABLE1_COLUMNS]
        rows = [[str(k)] + [fn(d, k) for _, fn in TABLE1_COLUMNS]
                for k in range(2, 128)]
        return header, rows
    if fig_id == "fig3":
        d = 3
        header = ["k", "ab94", "cheng_yang"]
        rows = [[str(2 ** m), bounds.ab94(d, m),
                 bounds.cheng_yang(d, 2 ** m)]
                for m in range(8)]
        return header, rows
    raise RieszBoundsError(f"unknown figure id {fig_id!r}")


def cmd_rows(args) -> int:
    """``table`` and ``figure``: the rows of one artifact."""
    header, rows = args.rows(args.id)
    _emit_rows(args, header, rows)
    return 0


# ---------------------------------------------------------------------------

def _add_format(p, formats, default):
    """Give subcommand ``p`` its ``--format``, one of ``formats``; none
    given reads ``default``, or for ``bounds`` (None) the mode's."""
    p.add_argument("--format", choices=formats, default=default,
                   help=f"output format (default {default})" if default
                   else "output format (default csv for --bessel-zeros; "
                        "--list and --eval write json)")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", metavar="PATH",
                        help="write output to PATH (atomic) instead of stdout")
    common.add_argument("--full-precision", action="store_true",
                        help="render numbers with 17 digits instead of 6")

    ap = argparse.ArgumentParser(
        prog="rieszbounds",
        description="Riesz means and universal eigenvalue bounds for "
                    "Dirichlet Laplacian spectra")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[common],
                       help="generate or convert a spectrum")
    _add_domain_flags(p)
    _add_format(p, ("text", "csv", "json"), "text")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("riesz", parents=[common],
                       help="evaluate Riesz means, averages, or the "
                            "Legendre transform")
    _add_domain_flags(p)
    p.add_argument("--sigma", type=float,
                   help="Riesz order for --z (default 1.0)")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--z", nargs="+", type=float)
    mode.add_argument("--means", type=int, metavar="K",
                      help="report eigenvalue averages at index K")
    mode.add_argument("--legendre", nargs="+", type=float, metavar="W",
                      help="Legendre transform of the first-order mean at W")
    _add_format(p, ("csv", "json"), "csv")
    p.set_defaults(fn=cmd_riesz)

    p = sub.add_parser("bounds", parents=[common],
                       help="list or evaluate catalog bounds")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--list", action="store_true",
                      help="dump the bound catalog as JSON (default)")
    mode.add_argument("--eval", metavar="ID", help="evaluate one bound")
    mode.add_argument("--bessel-zeros", metavar="NU[,NU...]",
                      help="export Bessel zeros j_{nu,p} for the given "
                           "orders")
    p.add_argument("--arg", action="append", metavar="KEY=VALUE",
                   help="bound arguments for --eval")
    p.add_argument("--zero-count", type=int,
                   help="zeros per order for --bessel-zeros (default 10)")
    _add_format(p, ("csv", "json"), None)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("verify", parents=[common],
                       help="run the inequality verification suite")
    p.add_argument("--spectrum", action="append", metavar="PATH",
                   help="spectrum file (repeatable; default: built-in set)")
    p.add_argument("--z-points", type=int, default=200)
    p.add_argument("--z-max", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject-corruption", action="store_true",
                   help="corrupt the spectra first (must make the suite fail)")
    _add_format(p, ("text", "json"), "text")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("table", parents=[common],
                       help="reproduce a comparison table")
    p.add_argument("id", choices=("table1", "table2", "table3"))
    _add_format(p, ("csv", "json"), "csv")
    p.set_defaults(fn=cmd_rows, rows=table_rows)

    p = sub.add_parser("figure", parents=[common],
                       help="emit curve data for a figure")
    p.add_argument("id", choices=("fig1", "fig2", "fig3"))
    _add_format(p, ("csv", "json"), "csv")
    p.set_defaults(fn=cmd_rows, rows=figure_rows)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except RieszBoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
