import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import heisquat
from heisquat.cli import main

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"

RUN = [sys.executable, "-m", "heisquat.cli"]

# subprocesses import the package these tests import, also when pytest put
# it on sys.path through its pythonpath setting and not PYTHONPATH
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(Path(heisquat.__file__).parents[1]), os.environ.get("PYTHONPATH")])))


def run_cli(args, **kw):
    return subprocess.run(RUN + args, capture_output=True, text=True, env=ENV, **kw)


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
    rc = main(["count", "--order", "hurwitz", "--s-max", "1/2", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["rows"] == [{"s": "1/2", "count": 0}]


def test_import_leaves_scipy_unloaded():
    # only the quadrature checks of constants need scipy, and they import it
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, heisquat.cli; print('scipy' in sys.modules)"],
                          capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_count_missing_order_file_exit2():
    proc = run_cli(["count", "--order", "/nonexistent/order.json", "--s-max", "1"])
    assert proc.returncode == 2
    assert "invalid order" in proc.stderr


def test_count_flag_conflicts():
    proc = run_cli(["count", "--order", "hurwitz"])
    assert proc.returncode == 2
    proc = run_cli(["count", "--order", "hurwitz", "--s-grid", "4,2,1"])
    assert proc.returncode == 2


def test_count_byte_identical_and_thread_independent(tmp_path, pool_runs):
    # s = 8 gives 26 coset representatives, enough for the pool
    outs = []
    for idx, threads in enumerate(("1", "2", "1")):
        out = tmp_path / f"c{idx}.json"
        rc = main(["count", "--order", "hurwitz", "--s-grid", "1,2,3,8",
                   "--threads", threads, "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert pool_runs == [2]
    assert outs[0] == outs[1] == outs[2]


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


def test_failed_quadrature_exits_1_without_traceback():
    # the quadrature integrands overflow a float from n = 14 on
    proc = run_cli(["constants", "--da", "2", "--units", "24", "--n", "14"])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "error" in proc.stderr and "Traceback" not in proc.stderr
    proc = run_cli(["constants", "--da", "2", "--units", "24", "--n", "14",
                    "--no-quadrature"])
    assert proc.returncode == 0


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
    ["count", "--s-max", "abc"],
    ["count", "--s-max", "20000"],
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
    ["count", "--s-grid", "1,2", "--s-max", "16"],
    ["geom-selftest", "--tol-limit", "-1"],
    ["geom-selftest", "--tol-limit", "nan"],
    ["count", "--s-grid", "1,,2"],
    ["count", "--s-grid", "1,2,"],
    ["count", "--s-grid", ",1"],
])
def test_bad_input_exits_2(argv, capsys):
    rc, out, err = _exit_code_and_output(argv, capsys)
    assert rc == 2
    assert out == ""
    assert "error" in err


def _exit_code_and_output(argv, capsys):
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    out, err = capsys.readouterr()
    return rc, out, err


@pytest.mark.parametrize("argv", [
    ["count", "--s-max", "16"],
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
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = ["count", "--s-max", "2", "--out", str(tmp_path / "c.json")]
    for env, extra in ((None, ["--cache", str(blocker)]), (str(blocker), [])):
        if env:
            monkeypatch.setenv("HEIS_MERTENS_CACHE", env)
        rc, stdout, err = _exit_code_and_output(argv + extra, capsys)
        assert rc == 2
        assert stdout == ""
        assert err.startswith("error:") and err.count("\n") == 1
    assert blocker.read_text() == ""


LIPSCHITZ_BASIS = [[[int(i == j), 1] for j in range(4)] for i in range(4)]


@pytest.mark.parametrize("spec", [
    5,
    {"name": "x", "a": -1, "b": -1, "basis": 5},
    {"name": "x", "a": -1, "b": 1, "basis": LIPSCHITZ_BASIS},
    {"name": "lipschitz", "a": -1, "b": -1, "basis": LIPSCHITZ_BASIS},
    {"name": "x", "a": -1, "b": -1,
     "basis": [[[float(i == j), 1] for j in range(4)] for i in range(4)]},
])
def test_malformed_order_spec_exits_2(spec, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    try:
        rc = main(["count", "--order", str(path), "--s-max", "2"])
    except SystemExit as exc:
        rc = exc.code
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert "invalid order" in err


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
