"""Command-line driver: counting runs, equidistribution reports, constant
tables, geometry self-tests and oracle comparisons.

Subcommands: count, equidist, constants, geom-selftest, oracle.  Exact
rationals are serialized as strings "p/q"; decimals only appear in
clearly labeled display fields.  Identical configurations produce
byte-identical JSON regardless of the thread count.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from fractions import Fraction

from . import constants as K
from . import counting as C
from . import hyperbolic as G
from .orders import Order, OrderError, builtin_order, load_order_spec

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

CACHE_ENV = "HEIS_MERTENS_CACHE"


def _load_order(name: str) -> Order:
    try:
        if name.lower() in ("hurwitz", "d3", "a3"):
            return builtin_order(name)
        if not os.path.exists(name):
            raise OrderError(f"no such order or order-spec file: {name}")
        return load_order_spec(name)
    except (OrderError, OSError, json.JSONDecodeError) as exc:
        raise SystemExit(_usage_error(f"invalid order: {exc}"))


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_USAGE


def _parse_s(text: str) -> Fraction:
    """A rational s with 0 < s <= the supported limit, else exit 2."""
    try:
        s = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SystemExit(_usage_error(f"bad s value '{text}'"))
    if not 0 < s <= C._S_LIMIT:
        raise SystemExit(_usage_error(f"s = {text} is outside (0, {C._S_LIMIT}]"))
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


def _checkpoint_path(args, tag: str):
    base = getattr(args, "cache", None) or os.environ.get(CACHE_ENV)
    if not base:
        return None
    try:
        os.makedirs(base, exist_ok=True)
    except OSError as exc:
        raise SystemExit(_usage_error(f"cache {base} is not a usable directory: "
                                      f"{exc.strerror}"))
    return os.path.join(base, tag + ".jsonl")


def cmd_count(args) -> int:
    order = _load_order(args.order)
    grid = _parse_grid(args.s_grid) if args.s_max is None else [_parse_s(args.s_max)]
    if any(a >= b for a, b in zip(grid, grid[1:])):
        return _usage_error("s grid must be strictly ascending")
    if args.scale < 1:
        return _usage_error("scale must be >= 1")
    d = K.ArithmeticData(order.D_A, len(order.units))
    ref = K.mertens_constant(d)
    ckpt = _checkpoint_path(args, f"count_{C.checkpoint_key(order, args.scale)}")
    table = C.count_table(order, grid, scale=args.scale,
                          reference_constant=ref.value(),
                          reference_symbolic=str(ref),
                          checkpoint_path=ckpt, threads=args.threads)
    payload = table.to_json_dict()
    csv_rows = [("s", "count", "ratio")]
    for (s, cnt), ratio in zip(table.rows, table.ratios or [None] * len(table.rows)):
        csv_rows.append((C._frac_str(s), cnt,
                         "" if ratio is None else f"{ratio:.12g}"))
    _emit(payload, args.out, args.format, csv_rows)
    return EXIT_OK


def cmd_equidist(args) -> int:
    order = _load_order(args.order)
    s = _parse_s(args.s)
    if s < 1:  # n(c) >= 1 for every c != 0, so there is no sample
        return _usage_error("equidist needs s >= 1")
    rep = C.equidist_histogram(order, s, threads=args.threads)
    payload = rep.to_json_dict()
    csv_rows = [("cell", "observed", "expected")]
    for idx, (o, e) in enumerate(zip(rep.observed, rep.expected)):
        csv_rows.append((idx, o, f"{e:.12g}"))
    _emit(payload, args.out, args.format, csv_rows)
    return EXIT_OK


def cmd_constants(args) -> int:
    if args.n < 2:
        return _usage_error("n must be >= 2")
    try:
        d = K.ArithmeticData(args.da, args.units, args.ha)
    except ValueError as exc:
        return _usage_error(str(exc))
    try:
        payload = K.constants_report(d, n=args.n,
                                     with_quadrature=not args.no_quadrature)
    except (ValueError, OverflowError) as exc:
        # a quadrature off its closed form or overflowing: a failed check
        print(f"error: constants check failed: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    _emit(payload, args.out, "json")
    return EXIT_OK


def cmd_geom_selftest(args) -> int:
    if not 0 < args.tol_limit < math.inf:
        return _usage_error("tol-limit must be finite and > 0")
    rep = G.geom_selftest(tol_limit=args.tol_limit)
    payload = {k: (bool(v) if isinstance(v, bool) else float(v))
               for k, v in rep.items()}
    _emit(payload, args.out, "json")
    return EXIT_OK if rep["pass"] else EXIT_MISMATCH


def cmd_oracle(args) -> int:
    order = _load_order(args.order)
    smax = _parse_s(args.s)
    if smax.denominator != 1:
        return _usage_error(f"oracle needs an integer s, not {args.s}")
    levels = range(1, int(smax) + 1)
    psi = C.scan_summary(order, levels).counts
    oracle = C.brute_force_counts(order, levels)
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
                           help="builtin name (hurwitz, d3) or order-spec JSON path")
        p.add_argument("--out", default="-", help="output path ('-' = stdout)")

    def scan_options(p):
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("count", help="counting run over an s grid")
    common(p)
    scan_options(p)
    levels = p.add_mutually_exclusive_group(required=True)
    levels.add_argument("--s-grid", help="comma separated strictly ascending s values")
    levels.add_argument("--s-max", help="single s value")
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
    p.add_argument("--tol-limit", type=float, default=1e-6)
    p.set_defaults(func=cmd_geom_selftest)

    p = sub.add_parser("oracle", help="psi_count vs brute-force oracle")
    common(p)
    p.add_argument("--s", required=True, help="check all integer s up to this")
    p.set_defaults(func=cmd_oracle)
    return ap


def main(argv=None) -> int:
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
