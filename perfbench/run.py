"""heisquat benchmark: real CLI runs as workloads, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a key of WORKLOADS, or "all" to run every workload in turn.  A
workload is a fixed sequence of `heisquat` CLI commands, each run as a
child process through launch.py, one after another: a closed loop with one
client.

--trace 0 repeats the sequence until S seconds have passed, and at least
three times, and reports the end-to-end metrics as medians over the
repetitions.  --trace 1 runs the
sequence once untraced and once traced, then the layer suite (layers.py),
and reports the per-layer metrics; the spans go to perfbench/out/.

Every command's output goes through the correctness gate (output_ok)
against perfbench/reference/, which make_reference.py writes.  The counting
commands are exact and deterministic and take no seed; the seed is recorded
in the run manifest and feeds geom_selftest in the layer suite.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 2, with no such line, when
the program's source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
WORK = BENCH / ".work"        # per-run scratch, removed when the run ends
OUT = BENCH / "out"           # trace files
RUN_LIMIT_S = 170             # children still running past this are killed
CACHE = "{cache}"             # a fresh checkpoint directory per repetition
MIN_REPS = 3                  # a median needs three, even past --seconds
GRID = "4,8,12,16"


@dataclass(frozen=True)
class Step:
    argv: tuple
    ref: str = ""   # file in REFERENCE the output is checked against


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "count_hurwitz_serial": (
        Step(("count", "--order", "hurwitz", "--s-grid", GRID), "count_hurwitz.json"),),
    # a cold pooled run that writes the checkpoint, then a resume from it
    "count_d3_pool_ckpt": (
        Step(("count", "--order", "d3", "--s-grid", GRID, "--threads", "2",
              "--cache", CACHE), "count_d3.json"),) * 2,
    "oracle_hurwitz": (
        Step(("oracle", "--order", "hurwitz", "--s", "5"), "oracle_hurwitz.json"),),
    "geom_constants": (
        Step(("geom-selftest",)),
        Step(("constants", "--da", "2", "--units", "24"), "constants_da2_u24.json"),
        Step(("constants", "--da", "3", "--units", "12"), "constants_da3_u12.json")),
}

# The serial commands whose outputs are the references.
REFERENCE_COMMANDS = {
    "count_hurwitz.json": ("count", "--order", "hurwitz", "--s-grid", GRID),
    "count_d3.json": ("count", "--order", "d3", "--s-grid", GRID),
    "oracle_hurwitz.json": ("oracle", "--order", "hurwitz", "--s", "5"),
    "constants_da2_u24.json": ("constants", "--da", "2", "--units", "24"),
    "constants_da3_u12.json": ("constants", "--da", "3", "--units", "12"),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Child:
    code: int
    out: bytes
    wall: float      # spawn to reap
    setup: float     # spawn to `import heisquat.cli` done
    cpu: float       # user + system of the child and its reaped descendants
    rss_mb: float    # largest RSS of the child or any reaped descendant


def child_env() -> dict:
    # HEIS_MERTENS_CACHE would let a stale checkpoint turn a cold run into a resume.
    env = {k: v for k, v in os.environ.items() if k != "HEIS_MERTENS_CACHE"}
    env["PYTHONPATH"] = str(SRC)
    # bytecode is not written, so nothing lands in src/; heisquat's own
    # modules compile on each start (about 50 ms of the import)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _kill_group(pid: int):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv, work: Path, deadline: float, trace_file=None) -> Child:
    """Run one CLI command through launch.py and reap it with its usage."""
    mark = work / "mark"
    mark.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "launch.py"), str(mark),
           str(trace_file or "-"), *argv]
    with open(work / "stdout", "wb+") as out, open(work / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                cwd=ROOT, env=child_env(), start_new_session=True)
        killer = threading.Timer(max(0.0, deadline - start), _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        data = out.read()
    imported = float(mark.read_text()) if mark.exists() else end
    return Child(proc.returncode, data, end - start, imported - start,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


# ---------------------------------------------------------------------------
# correctness gate


def output_ok(step: Step, code: int, out: bytes) -> bool:
    """Exit code 0 and the output the reference demands."""
    if code != 0:
        return False
    try:
        if step.argv[0] == "geom-selftest":
            return json.loads(out)["pass"] is True
        ref = (REFERENCE / step.ref).read_bytes()
        if step.argv[0] == "oracle":
            got = json.loads(out)
            return got["all_match"] is True and got["rows"] == json.loads(ref)["rows"]
    except (ValueError, KeyError, TypeError):
        return False
    return out == ref


def corrupt(out: bytes) -> bytes:
    """The output with its first digit changed, to show the gate catches it."""
    for i, b in enumerate(out):
        if 48 <= b <= 57:
            return out[:i] + bytes([48 + (b - 47) % 10]) + out[i + 1:]
    return out + b"0"


# ---------------------------------------------------------------------------
# one repetition of a workload


@dataclass
class Rep:
    wall: float
    setup: float
    cpu: float
    rss_mb: float
    ok: bool


def run_once(name: str, work: Path, deadline: float, trace_dir=None,
             corrupt_last=False) -> Rep:
    steps = WORKLOADS[name]
    cache = work / "cache"
    shutil.rmtree(cache, ignore_errors=True)
    children, ok = [], True
    for i, step in enumerate(steps):
        argv = [str(cache) if a == CACHE else a for a in step.argv]
        trace_file = trace_dir / f"{name}-{i}.jsonl" if trace_dir else None
        child = run_child(argv, work, deadline, trace_file)
        out = corrupt(child.out) if corrupt_last and i == len(steps) - 1 else child.out
        ok = output_ok(step, child.code, out) and ok
        children.append(child)
    shutil.rmtree(cache, ignore_errors=True)
    return Rep(sum(c.wall for c in children), sum(c.setup for c in children),
               sum(c.cpu for c in children), max(c.rss_mb for c in children), ok)


# ---------------------------------------------------------------------------
# runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def untraced(name: str, seconds: float, work: Path, deadline: float, corrupt_last: bool):
    """Repeat the workload for `seconds`, and at least MIN_REPS times;
    return (metrics, attempted, failed)."""
    run_child(("--help",), work, deadline)   # fills page and bytecode caches; not counted
    reps = []
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
        reps.append(run_once(name, work, deadline, corrupt_last=corrupt_last))
    samples = {"wall_s": [r.wall for r in reps], "setup_s": [r.setup for r in reps],
               "cpu_s": [r.cpu for r in reps], "peak_rss_mb": [r.rss_mb for r in reps]}
    failed = sum(not r.ok for r in reps)
    print(f"workload {name}: {len(reps)} repetitions, medians over repetitions")
    metrics = {}
    for key, vals in samples.items():
        unit = END_TO_END_UNITS[key]
        med, (q1, q3) = statistics.median(vals), quartiles(vals)
        print(f"  {key:<12} {med:10.4f} {unit:<3} (q1 {q1:.4f}, q3 {q3:.4f}, n={len(vals)})")
        metrics[key] = {"value": med, "unit": unit}
    print(f"  {'fail_rate':<12} {failed / len(reps):10.4f} ratio ({failed} of {len(reps)} "
          "repetitions failed the gate)")
    return metrics, len(reps), failed


def traced(name: str, seed: int, work: Path, deadline: float, head: dict):
    """One untraced and one traced repetition, then the layer suite."""
    import layers
    from spans import FIELDS, Tracer, load, self_times

    run_child(("--help",), work, deadline)
    plain = run_once(name, work, deadline)
    trace_dir = work / "spans"
    trace_dir.mkdir()
    with_spans = run_once(name, work, deadline, trace_dir=trace_dir)
    workload_spans = [s for f in sorted(trace_dir.iterdir()) for s in load(f)]

    tracer = Tracer()
    values, suite_ok = layers.measure(tracer, seed, work, REFERENCE, SRC)
    values["trace.overhead_s"] = (with_spans.wall - plain.wall, "s")
    for layer, secs in self_times(workload_spans).items():
        values[f"self_s.{layer}"] = (secs, "s")

    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"manifest": head, "fields": ["part", *FIELDS]}) + "\n")
        for part, rows in (("workload", workload_spans), ("suite", tracer.rows())):
            for row in rows:
                fh.write(json.dumps([part, *row]) + "\n")
    print(f"workload {name}: traced run, spans in {path.relative_to(ROOT)}")
    for key, (value, unit) in values.items():
        print(f"  {key:<30} {value:14.6g} {unit}")
    results = (plain.ok, with_spans.ok, suite_ok)
    return ({k: {"value": v, "unit": u} for k, (v, u) in values.items()},
            len(results), sum(not ok for ok in results))


# ---------------------------------------------------------------------------
# manifest


def _git(*args):
    proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def manifest(seed: int, load_at_start) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    sha = dirty = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        sha = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    return {"git_sha": sha, "git_dirty": dirty, "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"), "seed": seed,
            "loadavg_at_start": list(load_at_start)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true",
                    help="change one digit of each repetition's last output before "
                         "the gate, to show that it counts as a failure")
    args = ap.parse_args(argv)

    load_at_start = os.getloadavg()
    missing = [p for p in [SRC / "heisquat" / "cli.py",
                           *(REFERENCE / f for f in REFERENCE_COMMANDS)] if not p.is_file()]
    if missing:
        print(f"error: missing {', '.join(str(p) for p in missing)}", file=sys.stderr)
        return 2
    head = manifest(args.seed, load_at_start)
    print("manifest " + json.dumps(head, sort_keys=True))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = WORK / str(os.getpid())
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            deadline = time.perf_counter() + RUN_LIMIT_S
            if args.trace:
                got, n, f = traced(name, args.seed, work, deadline, head)
            else:
                got, n, f = untraced(name, args.seconds, work, deadline, args.corrupt)
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in got.items()})
            attempted, failed = attempted + n, failed + f
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
