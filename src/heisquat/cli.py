"""Command-line driver: counting runs, equidistribution reports, constant
tables, geometry self-tests and oracle comparisons.

Subcommands: count, equidist, constants, geom-selftest, oracle.  Exact
rationals are serialized as strings "p/q"; decimals only appear in
clearly labeled display fields.  Identical configurations produce
byte-identical JSON regardless of the thread count.

Each subcommand imports only the modules it runs: `constants` loads
heisquat.constants, heisquat.lattices and heisquat.quadrature and no
numpy; `geom-selftest` adds heisquat.hyperbolic; the scan commands
(count, equidist, oracle) load the orders and heisquat.counting.

The process pool (--threads, and the oracle's pool over right cosets) is
the only parallelism.  It starts only when the orbit law predicts enough
work to repay its start-up (counting._POOL_MIN_ROWS, 5e5 rows: count
reaches it at s = 26 on d3 and s = 31 on Hurwitz, equidist at s = 20 and
21, oracle, at counting._ORACLE_ROWS_PER_ORBIT rows per orbit, at s = 7
on Hurwitz and 8 on d3), so a small run with --threads 2, or oracle --s 5,
stays in one process.  main pins numpy's BLAS
to one thread before a subcommand imports numpy, since the scan is integer
work that never calls BLAS and an idle BLAS worker thread only takes CPU
from the scan and the pool.  An OPENBLAS_NUM_THREADS already set in the
environment is kept.

count and equidist report `scanned k/N` (values of c), oracle `scanned
k/N` (right cosets of c, after its scan), on stderr while they run, when
stderr is a terminal; stdout is the same either way.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from . import constants as K

if TYPE_CHECKING:
    from .orders import Order

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

CACHE_ENV = "HEIS_MERTENS_CACHE"


def builtin_order(name: str) -> Order:
    """heisquat.orders.builtin_order, with the orders imported on first use."""
    from . import orders
    return orders.builtin_order(name)


def _load_order(name: str) -> Order:
    from . import orders
    try:
        if name.lower() in orders.BUILTIN_ORDERS:
            return builtin_order(name)
        if not os.path.exists(name):
            raise orders.OrderError(f"no such order or order-spec file: {name}")
        return orders.load_order_spec(name)
    # ValueError covers OrderError, JSONDecodeError and UnicodeDecodeError
    except (OSError, ValueError) as exc:
        raise SystemExit(_usage_error(f"invalid order: {exc}"))


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_USAGE


def _parse_s(text: str) -> Fraction:
    """A rational s with 0 < s <= the supported limit, else exit 2."""
    from .counting import _S_LIMIT
    try:
        s = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SystemExit(_usage_error(f"bad s value '{text}'"))
    if not 0 < s <= _S_LIMIT:
        raise SystemExit(_usage_error(f"s = {text} is outside (0, {_S_LIMIT}]"))
    return s


def _parse_grid(text: str):
    return [_parse_s(part) for part in text.split(",")]


def _emit(payload: dict, out: str, fmt: str, csv_rows=None):
    blob = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    if fmt == "csv" and csv_rows is not None:
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in csv_rows:
            writer.writerow(row)
        blob = buf.getvalue()
    if out == "-":
        sys.stdout.write(blob)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(blob)


def _checkpoint_path(args, order: Order):
    """The count checkpoint of order at args.scale under --cache (or
    $HEIS_MERTENS_CACHE), or None without one; its key is computed only
    here, since hashing it loads OpenSSL."""
    base = getattr(args, "cache", None) or os.environ.get(CACHE_ENV)
    if not base:
        return None
    from .counting import checkpoint_key
    path = os.path.join(base, f"count_{checkpoint_key(order, args.scale)}.jsonl")
    try:
        os.makedirs(base, exist_ok=True)
        # opened (and created) before the work, as --out is
        open(path, "a+b").close()
    except OSError as exc:
        raise SystemExit(_usage_error(f"cache {exc.filename} is not usable: {exc.strerror}"))
    return path


def _progress():
    """A scan_summary or brute_force_counts progress callback that rewrites
    one `scanned k/N` line on stderr, or None when stderr is not a
    terminal."""
    if not sys.stderr.isatty():
        return None

    def report(done: int, total: int) -> None:
        sys.stderr.write(f"\rscanned {done}/{total}" + ("\n" if done == total else ""))
        sys.stderr.flush()
    return report


def cmd_count(args) -> int:
    from . import counting as C
    order = _load_order(args.order)
    grid = _parse_grid(args.s_grid)
    if any(a >= b for a, b in zip(grid, grid[1:])):
        return _usage_error("s grid must be strictly ascending")
    if args.scale < 1:
        return _usage_error("scale must be >= 1")
    summ = C.scan_summary(order, grid, scale=args.scale,
                          checkpoint_path=_checkpoint_path(args, order),
                          threads=args.threads, progress=_progress())
    payload = C.count_table(order, summ.counts).to_json_dict()
    csv_rows = [("s", "count", "ratio")]
    for row, ratio in zip(payload["rows"], payload["ratios"]):
        csv_rows.append((row["s"], row["count"], ratio))
    _emit(payload, args.out, args.format, csv_rows)
    return EXIT_OK


def cmd_equidist(args) -> int:
    from . import counting as C
    order = _load_order(args.order)
    s = _parse_s(args.s)
    if s < 1:  # n(c) >= 1 for every c != 0, so there is no sample
        return _usage_error("equidist needs s >= 1")
    summ = C.scan_summary(order, [], [s], threads=args.threads, progress=_progress())
    rep = C.histogram_report(s, summ.hists[s])
    payload = rep.to_json_dict()
    csv_rows = [("cell", "observed", "expected")]
    for idx, (o, e) in enumerate(zip(rep.observed, rep.expected)):
        csv_rows.append((idx, o, f"{e:.12g}"))
    _emit(payload, args.out, args.format, csv_rows)
    return EXIT_OK


def cmd_constants(args) -> int:
    if args.n < 2:
        return _usage_error("n must be >= 2")
    # str() of a longer int raises; 2^(4n+1) alone has more than n digits
    limit = sys.get_int_max_str_digits()
    if limit and (args.n > limit or K.report_digits(args.n) > limit):
        return _usage_error(
            f"n = {args.n} is too large: the report's largest exact number, "
            f"2^(4n+1) (2n+1)!/n, would exceed the {limit}-digit limit of "
            "integer strings")
    try:
        d = K.ArithmeticData(args.da, args.units, args.ha)
    except ValueError as exc:
        return _usage_error(str(exc))
    try:
        payload = K.constants_report(d, n=args.n,
                                     with_quadrature=not args.no_quadrature)
    except OverflowError:
        # a float integrand out of range says nothing of the closed forms
        return _usage_error(
            f"the quadrature checks overflow a float at n = {args.n}; "
            "--no-quadrature prints the exact report")
    except ValueError as exc:
        # a quadrature off its closed form: a failed check
        print(f"error: constants check failed: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    _emit(payload, args.out, "json")
    return EXIT_OK


def cmd_geom_selftest(args) -> int:
    from . import hyperbolic as G
    rep = G.geom_selftest()
    payload = {k: (bool(v) if isinstance(v, bool) else float(v))
               for k, v in rep.items()}
    _emit(payload, args.out, "json")
    return EXIT_OK if rep["pass"] else EXIT_MISMATCH


def cmd_oracle(args) -> int:
    from . import counting as C
    order = _load_order(args.order)
    smax = _parse_s(args.s)
    if smax.denominator != 1:
        return _usage_error(f"oracle needs an integer s, not {args.s}")
    levels = range(1, int(smax) + 1)
    psi = C.scan_summary(order, levels).counts
    oracle = C.brute_force_counts(order, levels, progress=_progress())
    rows = []
    ok = True
    for s in levels:
        rows.append({"s": s, "psi": psi[s], "oracle": oracle[s],
                     "match": psi[s] == oracle[s]})
        ok &= psi[s] == oracle[s]
    _emit({"order": order.name, "rows": rows, "all_match": ok}, args.out, "json")
    return EXIT_OK if ok else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="heisquat",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, order=True):
        if order:
            p.add_argument("--order", default="hurwitz",
                           help="builtin name (hurwitz, d3 or a3, d5, d7, d11, d13) "
                                "or order-spec JSON path")
        p.add_argument("--out", default="-", help="output path ('-' = stdout)")

    def scan_options(p):
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("count", help="counting run over an s grid")
    common(p)
    scan_options(p)
    p.add_argument("--s-grid", required=True,
                   help="comma separated strictly ascending s values")
    p.add_argument("--scale", type=int, default=1,
                   help="congruence scale: alpha, c restricted to scale*O")
    p.add_argument("--cache", help=f"checkpoint dir (or ${CACHE_ENV})")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("equidist", help="128-cell equidistribution histogram")
    common(p)
    scan_options(p)
    p.add_argument("--s", required=True)
    p.set_defaults(func=cmd_equidist)

    p = sub.add_parser("constants", help="closed-form constant table")
    common(p, order=False)
    p.add_argument("--da", type=int, required=True)
    p.add_argument("--units", type=int, required=True)
    p.add_argument("--ha", type=int, default=None)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--no-quadrature", action="store_true")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("geom-selftest", help="geometry kernel residual report")
    common(p, order=False)
    p.set_defaults(func=cmd_geom_selftest)

    p = sub.add_parser("oracle", help="scan_summary counts vs brute-force oracle")
    common(p)
    p.add_argument("--s", required=True, help="check all integer s up to this")
    p.set_defaults(func=cmd_oracle)
    return ap


def main(argv=None) -> int:
    # read once, when numpy first loads OpenBLAS; pool workers inherit it
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    if getattr(args, "threads", 1) < 1:
        return _usage_error("threads must be >= 1")
    if args.out != "-":
        # opened (and created) before the work, as a shell redirection would
        try:
            open(args.out, "a").close()
        except OSError as exc:
            return _usage_error(f"cannot write --out {args.out}: {exc.strerror}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
