import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import heisquat
from heisquat import counting
from heisquat.cli import main

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"

RUN = [sys.executable, "-m", "heisquat.cli"]

# subprocesses import the package these tests import, also when pytest put
# it on sys.path through its pythonpath setting and not PYTHONPATH
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(Path(heisquat.__file__).parents[1]), os.environ.get("PYTHONPATH")])))


# seconds; a subprocess that stalls fails its test instead of the suite
TIMEOUT = 300


def run_cli(args, timeout=TIMEOUT, **kw):
    return subprocess.run(RUN + args, capture_output=True, text=True, env=ENV,
                          timeout=timeout, **kw)


def test_count_basic(tmp_path):
    out = tmp_path / "count.json"
    rc = main(["count", "--order", "hurwitz", "--s-grid", "1,2,4",
               "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["rows"][0] == {"s": "1", "count": 24}
    assert data["rows"][1]["count"] == 96
    assert data["reference_symbolic"] == "54*pi^-8"


def test_count_smax_below_one(tmp_path):
    out = tmp_path / "c.json"
    rc = main(["count", "--order", "hurwitz", "--s-grid", "1/2", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["rows"] == [{"s": "1/2", "count": 0}]


def _run_python(code, env=ENV):
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=TIMEOUT)


def test_import_leaves_scipy_unloaded():
    # importing the CLI loads neither scipy nor the quadrature module,
    # which only the constants checks use
    proc = _run_python("import sys, heisquat.cli; print('scipy' in sys.modules, "
                       "'heisquat.quadrature' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False\n"
    # the quadrature checks of constants run with scipy blocked
    proc = _run_python("import sys; sys.modules['scipy'] = None\n"
                       "from heisquat.cli import main\n"
                       "sys.exit(main(['constants', '--da', '2', '--units', '24']))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (REFERENCE / "constants_da2_u24.json").read_text()


def test_import_loads_no_numpy_and_no_scan_or_geometry_module():
    proc = _run_python(
        "import os, sys\n"
        "env = dict(os.environ)\n"
        "import heisquat.cli\n"
        "print(sorted(m for m in ('numpy', 'heisquat.counting', 'heisquat.hyperbolic',\n"
        "    'heisquat.orders', 'heisquat.heisenberg', 'heisquat.orbitlaw')\n"
        "    if m in sys.modules), dict(os.environ) == env)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] True\n"


# a count in a child, then the child's OS threads and BLAS setting
_COUNT_THEN_THREADS = (
    "import os\n"
    "from heisquat.cli import main\n"
    "rc = main(['count', '--order', 'hurwitz', '--s-grid', '4', '--out', os.devnull])\n"
    "print(rc, len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs /proc/self/task and at least 2 usable CPUs")
def test_count_runs_on_one_os_thread():
    # with more than one CPU, OpenBLAS would start a worker thread per
    # extra CPU when numpy loads; the CLI pins it to one
    env = {k: v for k, v in ENV.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = _run_python(_COUNT_THEN_THREADS, env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 1 1\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task")
def test_count_keeps_a_preset_blas_thread_count():
    proc = _run_python(_COUNT_THEN_THREADS, dict(ENV, OPENBLAS_NUM_THREADS="3"))
    assert proc.returncode == 0, proc.stderr
    rc, _, blas_threads = proc.stdout.split()
    assert (rc, blas_threads) == ("0", "3")


@pytest.mark.parametrize("args, reference", [
    (["--da", "2", "--units", "24"], "constants_da2_u24.json"),
    (["--da", "3", "--units", "12"], "constants_da3_u12.json"),
])
def test_constants_runs_with_numpy_blocked(args, reference):
    proc = _run_python("import sys; sys.modules['numpy'] = None\n"
                       "from heisquat.cli import main\n"
                       f"sys.exit(main(['constants', *{args!r}]))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (REFERENCE / reference).read_text()


def test_geom_selftest_runs_with_the_scan_modules_blocked():
    proc = _run_python("import sys\n"
                       "sys.modules['heisquat.counting'] = None\n"
                       "sys.modules['heisquat.orders'] = None\n"
                       "from heisquat.cli import main\n"
                       "sys.exit(main(['geom-selftest']))")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["pass"] is True


@pytest.mark.parametrize("argv", [
    ["count", "--order", "hurwitz", "--s-grid", "4,8"],
    ["equidist", "--s", "4"],
    ["oracle", "--s", "2"],
])
def test_scan_commands_without_a_cache_run_with_hashlib_blocked(argv):
    # hashlib loads OpenSSL; only a checkpoint's key needs it
    proc = _run_python("import sys; sys.modules['hashlib'] = None\n"
                       "from heisquat.cli import main\n"
                       f"sys.exit(main({argv!r}))")
    assert proc.returncode == 0, proc.stderr
    usual = run_cli(argv)
    assert usual.returncode == 0, usual.stderr
    assert proc.stdout == usual.stdout


def test_checkpoint_line_is_key_then_the_record(tmp_path):
    from heisquat.counting import checkpoint_key
    from heisquat.orders import builtin_order
    cache = tmp_path / "cache"
    assert main(["count", "--order", "d3", "--s-grid", "4", "--cache", str(cache),
                 "--out", str(tmp_path / "c.json")]) == 0
    key = checkpoint_key(builtin_order("d3"))
    (ckpt,) = cache.iterdir()
    assert ckpt.name == f"count_{key}.jsonl"
    first = json.loads(ckpt.read_text().splitlines()[0])
    assert list(first) == ["key", "c", "nc", "count", "hist"]
    assert (first["key"], first["c"], first["nc"], first["count"]) == (key, [-1, 0, 0, 0], 1, 12)
    assert first["hist"] == [12] + [0] * 127


def test_every_trace_site_resolves_after_importing_the_cli():
    # the traced benchmark child wraps each (module, attr) of WRAP_SITES
    # after `import heisquat.cli`; a name moved away breaks every traced run
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", REFERENCE.parent / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    import heisquat.cli  # noqa: F401
    for module, attr, _ in spans.WRAP_SITES:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


@pytest.mark.parametrize("argv", [
    ["count", "--order", "d3", "--s-grid", "1,2,4", "--format", "csv"],
    ["equidist", "--order", "hurwitz", "--s", "4"],
    ["oracle", "--order", "hurwitz", "--s", "2"],
], ids=["count", "equidist", "oracle"])
def test_each_scan_command_calls_scan_summary_once(argv, monkeypatch, capsys):
    # the command holds its scan result and builds its report from it
    calls = []
    summary = counting.scan_summary
    monkeypatch.setattr(counting, "scan_summary",
                        lambda *args, **kwargs: calls.append(args) or summary(*args, **kwargs))
    assert main(argv) == 0
    assert len(calls) == 1 and capsys.readouterr().out


def test_count_missing_order_file_exit2():
    proc = run_cli(["count", "--order", "/nonexistent/order.json", "--s-grid", "1"])
    assert proc.returncode == 2
    assert "invalid order" in proc.stderr


def test_count_flag_conflicts():
    proc = run_cli(["count", "--order", "hurwitz"])
    assert proc.returncode == 2
    proc = run_cli(["count", "--order", "hurwitz", "--s-grid", "4,2,1"])
    assert proc.returncode == 2


def test_count_byte_identical_and_thread_independent(tmp_path, monkeypatch, pool_runs):
    # s = 8 gives 26 coset representatives, pooled at any predicted work
    monkeypatch.setattr(counting, "_POOL_MIN_ROWS", 0)
    outs = []
    for idx, threads in enumerate(("1", "2", "1")):
        out = tmp_path / f"c{idx}.json"
        rc = main(["count", "--order", "hurwitz", "--s-grid", "1,2,3,8",
                   "--threads", threads, "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert pool_runs == [2]
    assert outs[0] == outs[1] == outs[2]


class _FakeTTY(io.StringIO):
    def isatty(self):
        return True


@pytest.mark.parametrize("args, total", [
    # 13 double cosets of d3 up to s = 8; 26 right cosets of Hurwitz up to
    # 8; the oracle checks the 6 right cosets of Hurwitz up to 3, after a
    # scan that reports nothing
    (["count", "--order", "d3", "--s-grid", "4,8"], 13),
    (["equidist", "--order", "hurwitz", "--s", "8"], 26),
    (["oracle", "--order", "hurwitz", "--s", "3"], 6),
], ids=["count", "equidist", "oracle"])
def test_scan_progress_goes_to_a_terminal_only(args, total, capsys, monkeypatch):
    assert main(args) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    tty = _FakeTTY()
    monkeypatch.setattr(sys, "stderr", tty)
    assert main(args) == 0
    assert capsys.readouterr().out == plain.out
    reports = tty.getvalue().split("\r")
    assert reports[0] == "" and reports[-1] == f"scanned {total}/{total}\n"
    assert reports[1:-1] == [f"scanned {k}/{total}" for k in range(1, total)]


def test_count_csv_roundtrip(tmp_path):
    js = tmp_path / "c.json"
    cs = tmp_path / "c.csv"
    main(["count", "--order", "hurwitz", "--s-grid", "1,2", "--out", str(js)])
    main(["count", "--order", "hurwitz", "--s-grid", "1,2", "--format", "csv",
          "--out", str(cs)])
    data = json.loads(js.read_text())
    lines = [l.split(",") for l in cs.read_text().strip().splitlines()]
    assert lines[0][:2] == ["s", "count"]
    got = {row[0]: int(row[1]) for row in lines[1:]}
    assert got == {r["s"]: r["count"] for r in data["rows"]}


def test_count_checkpoint_resume(tmp_path):
    cache = tmp_path / "cache"
    args = ["count", "--order", "hurwitz", "--s-grid", "1,2", "--cache",
            str(cache)]
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(args + ["--out", str(out1)]) == 0
    ckpts = list(cache.glob("*.jsonl"))
    assert len(ckpts) == 1 and ckpts[0].read_text().strip()
    assert main(args + ["--out", str(out2)]) == 0  # resumes from checkpoint
    assert out1.read_bytes() == out2.read_bytes()


def test_checkpoint_not_shared_by_orders_with_one_name(tmp_path):
    # the d3 order under the name of a Hurwitz spec run before it in the
    # same cache directory must not resume from the Hurwitz records
    from heisquat.orders import builtin_order, order_spec_dict
    cache = tmp_path / "cache"
    rows = {}
    for builtin in ("hurwitz", "d3"):
        spec = dict(order_spec_dict(builtin_order(builtin)), name="hurwitz_lookalike")
        path = tmp_path / f"{builtin}.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / f"{builtin}_out.json"
        assert main(["count", "--order", str(path), "--s-grid", "1,2,3",
                     "--cache", str(cache), "--out", str(out)]) == 0
        rows[builtin] = [r["count"] for r in json.loads(out.read_text())["rows"]]
    assert rows == {"hurwitz": [24, 96, 2592], "d3": [12, 264, 360]}
    assert len(list(cache.glob("*.jsonl"))) == 2


@pytest.mark.parametrize("shift", [24 * (2 ** 70 - 1), 24], ids=["to-24x2^70", "by-24"])
def test_checkpoint_line_off_the_orbit_law_is_rescanned(shift, tmp_path):
    # a line whose count and hist[0] are moved together passes the form
    # checks; the law |O^x| f(c) rejects it and its c is scanned again
    cache = tmp_path / "cache"
    args = ["count", "--order", "hurwitz", "--s-grid", "1", "--cache", str(cache)]
    fresh, resumed = tmp_path / "fresh.json", tmp_path / "resumed.json"
    assert main(args + ["--out", str(fresh)]) == 0
    (ckpt,) = cache.glob("*.jsonl")
    rec = json.loads(ckpt.read_text())
    assert rec["count"] == 24
    rec["count"] += shift
    rec["hist"][0] += shift
    ckpt.write_text(json.dumps(rec) + "\n")
    assert main(args + ["--out", str(resumed)]) == 0
    assert resumed.read_bytes() == fresh.read_bytes()
    assert [json.loads(line)["count"] for line in ckpt.read_text().splitlines()] == [
        24 + shift, 24]


def test_scan_count_off_the_orbit_law_exits_1():
    # a fault in the primitivity test that keeps one imprimitive triple
    # puts a scanned count off the law: the run stops and names the c
    proc = _run_python(
        "import sys\n"
        "from heisquat import counting\n"
        "real = counting._primitive_mask\n"
        "def leaky(*args):\n"
        "    keep = real(*args)\n"
        "    keep[(~keep).nonzero()[0][:1]] = True\n"
        "    return keep\n"
        "counting._primitive_mask = leaky\n"
        "from heisquat.cli import main\n"
        "sys.exit(main(['count', '--s-grid', '4']))\n")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "c = (-2, 0, 1, 1) is off the orbit law" in proc.stderr


def test_cache_env_var(tmp_path, monkeypatch):
    cache = tmp_path / "envcache"
    monkeypatch.setenv("HEIS_MERTENS_CACHE", str(cache))
    out = tmp_path / "c.json"
    assert main(["count", "--order", "hurwitz", "--s-grid", "1", "--out",
                 str(out)]) == 0
    assert list(cache.glob("*.jsonl"))


def test_equidist(tmp_path):
    out = tmp_path / "eq.json"
    rc = main(["equidist", "--order", "hurwitz", "--s", "4", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["cells"] == 128
    assert sum(data["observed"]) == data["total"] == 3264


def test_constants_table(tmp_path):
    out = tmp_path / "k.json"
    rc = main(["constants", "--da", "2", "--units", "24", "--no-quadrature",
               "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "1/23040" in text
    assert json.loads(text)["assembly_identity_holds"] is True


def test_failed_quadrature_exits_1_without_traceback(monkeypatch, capsys):
    # a quadrature that misses its closed form is a failed check
    monkeypatch.setattr("heisquat.quadrature.quad", lambda *args: (0.5, 0.0))
    rc, out, err = _exit_code_and_output(["constants", "--da", "2", "--units", "24"],
                                         capsys)
    assert rc == 1
    assert out == ""
    assert err.startswith("error: constants check failed: residue_integral")
    assert err.count("\n") == 1


@pytest.mark.parametrize("n", [2, 3, 13, 14, 50, 200, 654])
def test_constants_n_checks_its_integrals_or_exits_2(n, capsys):
    # from n = 14 on a float integrand overflows: a usage error, not a failed check
    argv = ["constants", "--da", "2", "--units", "24", "--n", str(n)]
    rc, out, err = _exit_code_and_output(argv, capsys)
    if rc == 0:
        # 1e-4 is the relative tolerance of zeta_and_integrals
        residuals = [e["residual"] for e in json.loads(out)["integrals"].values()]
        assert max(residuals) < 1e-4
    else:
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--no-quadrature" in err
    rc, out, _ = _exit_code_and_output(argv + ["--no-quadrature"], capsys)
    assert rc == 0 and json.loads(out)["assembly_identity_holds"] is True


def test_constants_bad_da():
    proc = run_cli(["constants", "--da", "4", "--units", "24"])
    assert proc.returncode == 2


def test_geom_selftest(tmp_path):
    out = tmp_path / "g.json"
    rc = main(["geom-selftest", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["pass"] is True


def test_oracle(tmp_path):
    out = tmp_path / "o.json"
    rc = main(["oracle", "--order", "hurwitz", "--s", "2", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["all_match"] is True
    assert data["rows"][0]["psi"] == 24


def test_oracle_s5_matches_the_benchmark_reference(capsys):
    assert main(["oracle", "--order", "hurwitz", "--s", "5"]) == 0
    expected = (REFERENCE / "oracle_hurwitz.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("name", ["hurwitz", "d3"])
def test_count_matches_the_benchmark_references(name, capsys):
    assert main(["count", "--order", name, "--s-grid", "4,8,12,16"]) == 0
    expected = (REFERENCE / f"count_{name}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("alias, name", [("A3", "d3"), ("a3", "d3"), ("HURWITZ", "hurwitz")])
def test_builtin_order_names_ignore_case_and_a3_is_d3(alias, name, capsys):
    outs = []
    for order in (alias, name):
        assert main(["count", "--order", order, "--s-grid", "2,4"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv", [
    ["oracle", "--s", "2.5"],
    ["oracle", "--s", "0"],
    ["oracle", "--s", "-1"],
    ["equidist", "--s", "abc"],
    ["equidist", "--s", "0"],
    ["equidist", "--s", "1/2"],
    ["count", "--s-grid", "1", "--threads", "0"],
    ["count", "--s-grid", "0,2"],
    ["count", "--s-grid", ","],
    ["count", "--s-grid", "abc"],
    ["count", "--s-grid", "20000"],
    ["oracle", "--s", "1", "--format", "csv"],
    ["constants", "--da", "2", "--units", "24", "--threads", "3"],
    ["geom-selftest", "--format", "csv"],
    ["constants", "--da", "2", "--units", "24", "--n", "1"],
    ["constants", "--da", "2", "--units", "24", "--n", "0"],
    ["constants", "--da", "2", "--units", "24", "--n", "-3"],
    ["constants", "--da", "2", "--units", "24", "--n", "1", "--no-quadrature"],
    ["constants", "--da", "2", "--units", "24", "--ha", "0"],
    ["constants", "--da", "2", "--units", "24", "--ha", "-2"],
    ["count", "--s-grid", "2,2"],
    ["count", "--s-grid", "2,4,4,8"],
    ["count", "--s-max", "16"],  # the flag is gone: --s-grid is the one way in
    # the flag is gone: the self-test's thresholds are constants
    ["geom-selftest", "--tol-limit", "-1"],
    ["geom-selftest", "--tol-limit", "nan"],
    ["count", "--s-grid", "1,,2"],
    ["count", "--s-grid", "1,2,"],
    ["count", "--s-grid", ",1"],
    ["constants", "--da", "2", "--units", "24", "--n", "655"],
    ["constants", "--da", "2", "--units", "24", "--n", "655", "--no-quadrature"],
    ["constants", "--da", "2", "--units", "24", "--n", "1000000"],
    ["constants", "--da", "2", "--units", "24", "--n", "1000000", "--no-quadrature"],
])
def test_bad_input_exits_2(argv, capsys):
    rc, out, err = _exit_code_and_output(argv, capsys)
    assert rc == 2
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("da, units, ha", [
    (2, 5, None), (2, 12, None), (5, 4, None), (7, 6, None), (13, 4, None), (11, 4, 1)])
def test_constants_refuses_a_unit_count_no_maximal_order_has(da, units, ha, capsys):
    argv = ["constants", "--da", str(da), "--units", str(units)]
    rc, out, err = _exit_code_and_output(argv + (["--ha", str(ha)] if ha else []), capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def _exit_code_and_output(argv, capsys):
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    out, err = capsys.readouterr()
    return rc, out, err


@pytest.mark.parametrize("argv", [
    ["count", "--s-grid", "16"],
    ["equidist", "--s", "16"],
    ["oracle", "--s", "5"],
    ["constants", "--da", "2", "--units", "24"],
    ["geom-selftest"],
])
def test_unwritable_out_exits_2_before_the_work(argv, tmp_path, capsys):
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        rc, stdout, err = _exit_code_and_output(argv + ["--out", str(out)], capsys)
        assert rc == 2
        assert stdout == ""
        assert err.startswith("error:") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_cache_that_is_not_a_directory_exits_2(tmp_path, monkeypatch, capsys):
    from heisquat.counting import checkpoint_key
    from heisquat.orders import builtin_order
    blocker = tmp_path / "file"
    blocker.write_text("")
    # a cache directory whose checkpoint file is a directory: not openable
    cache = tmp_path / "cache"
    (cache / f"count_{checkpoint_key(builtin_order('hurwitz'))}.jsonl").mkdir(parents=True)
    argv = ["count", "--s-grid", "2", "--out", str(tmp_path / "c.json")]
    for env, extra in ((None, ["--cache", str(blocker)]), (str(blocker), []),
                       (None, ["--cache", str(cache)])):
        if env:
            monkeypatch.setenv("HEIS_MERTENS_CACHE", env)
        rc, stdout, err = _exit_code_and_output(argv + extra, capsys)
        assert rc == 2
        assert stdout == ""
        assert err.startswith("error:") and err.count("\n") == 1
    assert blocker.read_text() == ""


LIPSCHITZ_BASIS = [[[int(i == j), 1] for j in range(4)] for i in range(4)]

# the Hurwitz order, with row1 += 10^4 row0 and then row2 += 10^4 row1:
# maximal, but its structure constants do not fit in int64
SKEWED_HURWITZ_BASIS = [
    [[1, 2], [1, 2], [1, 2], [1, 2]],
    [[5000, 1], [5001, 1], [5000, 1], [5000, 1]],
    [[50000000, 1], [50010000, 1], [50000001, 1], [50000000, 1]],
    [[0, 1], [0, 1], [0, 1], [1, 1]],
]


@pytest.mark.parametrize("spec", [
    5,
    {"name": "x", "a": -1, "b": -1, "basis": 5},
    {"name": "x", "a": -1, "b": 1, "basis": LIPSCHITZ_BASIS},
    {"name": "lipschitz", "a": -1, "b": -1, "basis": LIPSCHITZ_BASIS},
    {"name": "x", "a": -1, "b": -1,
     "basis": [[[float(i == j), 1] for j in range(4)] for i in range(4)]},
    pytest.param({"name": "skewed", "a": -1, "b": -1, "basis": SKEWED_HURWITZ_BASIS},
                 id="int64-overflow"),
    pytest.param(b"\xff\xfe{}", id="not-utf8"),
])
def test_malformed_order_spec_exits_2(spec, tmp_path, capsys):
    path = tmp_path / "spec.json"
    if isinstance(spec, bytes):
        path.write_bytes(spec)
    else:
        path.write_text(json.dumps(spec))
    try:
        rc = main(["count", "--order", str(path), "--s-grid", "2"])
    except SystemExit as exc:
        rc = exc.code
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert "invalid order" in err


MERSENNE_61 = 2 ** 61 - 1  # prime: trial division would run to 1.5e9


@pytest.mark.parametrize("argv, error", [
    (["constants", "--da", str(MERSENNE_61), "--units", "2", "--no-quadrature"], None),
    (["count", "--order", "BIG", "--s-grid", "2"], "not maximal"),
    (["constants", "--da", str((2 ** 31 - 1) * MERSENNE_61), "--units", "2"], "at or above"),
])
def test_a_large_prime_is_factored_at_once(argv, error, tmp_path):
    # BIG is the Lipschitz basis over (-1, -(2^61 - 1)), which is not
    # maximal; a D_A at or above the Miller-Rabin bound is refused
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"name": "big", "a": -1, "b": -MERSENNE_61,
                               "basis": LIPSCHITZ_BASIS}))
    proc = run_cli([str(big) if a == "BIG" else a for a in argv], timeout=60)
    if error is None:
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["D_A"] == MERSENNE_61
    else:
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert error in proc.stderr


def test_order_spec_via_file(tmp_path):
    from heisquat.orders import builtin_order
    hur = builtin_order("hurwitz")
    spec = {"name": "filehurwitz", "a": -1, "b": -1,
            "basis": [[[x.numerator, x.denominator] for x in row]
                      for row in hur.basis]}
    path = tmp_path / "hur.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "c.json"
    rc = main(["count", "--order", str(path), "--s-grid", "1", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["rows"][0]["count"] == 24
    # a builtin name and the path of its packaged spec go through one loader
    packaged = Path(heisquat.__file__).parent / "data" / "order_hurwitz.json"
    outs = [tmp_path / "by_name.json", tmp_path / "by_path.json"]
    for order, dest in zip(("hurwitz", str(packaged)), outs):
        assert main(["count", "--order", order, "--s-grid", "4,8", "--out", str(dest)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
