"""Layer suite of the traced run: each heisquat module's public functions,
called and timed from outside, with every result checked.

The sizes are fixed.  The scan runs at s = 16, the largest s of the count
workloads, so its c list and per-c times are theirs.  scan_summary, the
pool and the checkpoint run at s = 12, which keeps a traced run under a
minute; at s = 16 they would add about 20 s on two cores.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time

from spans import self_times

SCAN_S = 16
SUMMARY_GRID = (4, 8, 12)
ORACLE_S = 5
REPEATS = 5          # for calls that take milliseconds


def _cpu_s() -> float:
    """User + system CPU of this process and its reaped children."""
    own, kids = (resource.getrusage(w) for w in
                 (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _ref_counts(reference, filename):
    rows = json.loads((reference / filename).read_text())["rows"]
    return {int(r["s"]): r["count"] for r in rows}


def measure(tracer, seed, work, reference, src):
    """Return ({metric: (value, unit)}, every result correct)."""
    m = {}
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    _, secs = tracer.call("import heisquat.cli", "setup", __import__, "heisquat.cli")
    m["setup.import_s"] = (secs, "s")
    from heisquat import constants, counting, hyperbolic, orders
    from heisquat.heisenberg import FundamentalDomain
    tracer.install()
    call = tracer.call
    ok = True

    def median_time(name, layer, fn, *args):
        times = [call(name, layer, fn, *args)[1] for _ in range(REPEATS)]
        return statistics.median(times)

    # orders: loading with the builtin cache cleared, and the c list
    def load_both():
        orders._BUILTIN_CACHE.clear()
        return [orders.builtin_order(n) for n in ("hurwitz", "d3")]
    m["orders.load_s"] = (median_time("orders.builtin_order", "orders", load_both), "s")
    both = dict(zip(("hurwitz", "d3"), load_both()))
    c_lists = {}
    enum_s = 0.0
    for name, order in both.items():
        c_lists[name], secs = call("orders.enumerate_by_norm", "orders",
                                   orders.enumerate_by_norm, order, SCAN_S)
        enum_s += secs
    m["orders.enumerate_s"] = (enum_s, "s")
    m["orders.c_count"] = (sum(len(c) for c in c_lists.values()), "count")

    m["heisenberg.fd_s"] = (sum(
        median_time("heisenberg.FundamentalDomain", "heisenberg", FundamentalDomain, o)
        for o in both.values()), "s")

    # counting, scan: per-c times from the public generator
    per_c, top_decile, scanned, orbits = [], 0.0, 0, 0
    refs = {"hurwitz": _ref_counts(reference, "count_hurwitz.json"),
            "d3": _ref_counts(reference, "count_d3.json")}

    def scan_all(order):
        times, total = [], 0
        last = time.perf_counter()
        for rec in counting.scan(order, SCAN_S):
            now = time.perf_counter()
            times.append(now - last)
            total += rec.count
            last = now
        return times, total

    for name, order in both.items():
        (times, total), _ = call("counting.scan", "counting", scan_all, order)
        ok &= total == refs[name][SCAN_S] and len(times) == len(c_lists[name])
        # scan yields c by ascending n(c): the last tenth has the largest n(c)
        tenth = -(-len(times) // 10)
        top_decile += sum(times[-tenth:])
        per_c += times
        scanned += len(times)
        orbits += total
    scan_s = sum(per_c)
    pct = statistics.quantiles([t * 1e3 for t in per_c], n=100)
    m.update({
        "counting.c_scanned": (scanned, "count"),
        "counting.orbits": (orbits, "count"),
        "counting.scan_s": (scan_s, "s"),
        "counting.orbits_per_s": (orbits / scan_s, "1/s"),
        "counting.per_c_ms.p50": (pct[49], "ms"),
        "counting.per_c_ms.p99": (pct[98], "ms"),
        "counting.per_c_ms.max": (max(per_c) * 1e3, "ms"),
        "counting.top_decile_share": (top_decile / scan_s, "ratio"),
    })

    # counting, scan_summary serial, then pool and checkpoint on d3
    summ, secs = call("counting.scan_summary", "counting", counting.scan_summary,
                      both["hurwitz"], SUMMARY_GRID)
    m["counting.summary_s"] = (secs, "s")
    ok &= all(summ.counts[s] == refs["hurwitz"][s] for s in SUMMARY_GRID)
    ckpt = work / "ckpt.jsonl"
    ckpt.unlink(missing_ok=True)
    runs = {}
    for label, kwargs in (("serial", {}),
                          ("pool", {"threads": 2, "checkpoint_path": str(ckpt)}),
                          ("resume", {"threads": 2, "checkpoint_path": str(ckpt)})):
        cpu0 = _cpu_s()
        summ, wall = call(f"counting.scan_summary {label}", "counting",
                          counting.scan_summary, both["d3"], SUMMARY_GRID, **kwargs)
        runs[label] = (wall, _cpu_s() - cpu0)
        ok &= all(summ.counts[s] == refs["d3"][s] for s in SUMMARY_GRID)
        if label == "pool":
            m["counting.ckpt_bytes"] = (ckpt.stat().st_size, "bytes")
    ckpt.unlink(missing_ok=True)
    m["counting.pool_speedup"] = (runs["serial"][0] / runs["pool"][0], "x")
    m["counting.pool_cpu_overhead_s"] = (runs["pool"][1] - runs["serial"][1], "s")
    m["counting.resume_s"] = (runs["resume"][0], "s")

    # counting, oracle against the fast path
    oracle_rows = json.loads((reference / "oracle_hurwitz.json").read_text())["rows"]
    oracle_s = psi_s = 0.0
    for row in oracle_rows[:ORACLE_S]:
        got, secs = call("counting.brute_force_psi", "counting",
                         counting.brute_force_psi, both["hurwitz"], row["s"])
        oracle_s += secs
        (psi, _), secs = call("counting.psi_count", "counting", counting.psi_count,
                              both["hurwitz"], row["s"], with_triples=False)
        psi_s += secs
        ok &= got == row["oracle"] and psi == row["psi"]
    m["counting.oracle_s"] = (oracle_s, "s")
    m["counting.psi_count_s"] = (psi_s, "s")

    # lattices: every call the suite made through the wrapped lookup sites
    m["lattices.calls"] = (sum(s[3] == "lattices" for s in tracer.spans), "count")
    m["lattices.busy_s"] = (self_times(tracer.rows())["lattices"], "s")

    # hyperbolic: the seeded self-test; dist and busemann are wrapped
    first = len(tracer.spans)
    report, secs = call("hyperbolic.geom_selftest", "hyperbolic",
                        hyperbolic.geom_selftest, seed=seed)
    m["hyperbolic.selftest_s"] = (secs, "s")
    m["hyperbolic.selftest_pass"] = (int(report["pass"]), "count")
    for fn in ("dist", "busemann"):
        spans = [s for s in tracer.spans[first:] if s[2] == f"hyperbolic.{fn}"]
        m[f"hyperbolic.{fn}_calls"] = (len(spans), "count")
        m[f"hyperbolic.{fn}_s"] = (sum(s[5] - s[4] for s in spans), "s")

    # constants: the two CLI reports and the quadrature suite
    m["constants.report_s"] = (sum(
        median_time("constants.constants_report", "constants", constants.constants_report,
                    constants.ArithmeticData(da, units))
        for da, units in ((2, 24), (3, 12))), "s")
    m["constants.quadrature_s"] = (median_time(
        "constants.zeta_and_integrals", "constants", constants.zeta_and_integrals), "s")
    return m, ok
