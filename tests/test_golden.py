"""The bytes of the commands' output against tests/golden/.

Each case runs cli.main in process and compares its stdout, and a
checkpoint it writes, with one file each, named by the case's arguments.
`PYTHONPATH=src python tests/golden/regenerate.py` rewrites the files from
the current code: running it is a deliberate output change.
"""

import contextlib
import io
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from heisquat import counting
from heisquat.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

_PIZER = ("d5", "d7", "d11", "d13")


def _count(order, grid, *more):
    return ("count", "--order", order, "--s-grid", grid, *more)


# (argv, pooled).  A pooled case sets _POOL_MIN_ROWS to 0, so a pool starts
# whenever more than one CPU is usable; the pooled oracle shares its file
# with the serial one.  A case that ends in --cache gets a fresh directory.
CASES = [
    *[(_count(name, "4,8,16,32"), False) for name in ("hurwitz", "d3")],
    *[(_count(name, "4,8,16"), False) for name in _PIZER],
    (_count("d3", "4,8,16,32", "--threads", "2"), True),
    (_count("hurwitz", "4,8,16,32", "--scale", "2"), False),
    (_count("hurwitz", "4,8,16,32", "--format", "csv"), False),
    (("equidist", "--s", "16"), False),
    (("equidist", "--s", "16", "--format", "csv"), False),
    (("oracle", "--order", "hurwitz", "--s", "5"), False),
    *[(("oracle", "--order", name, "--s", "4"), False) for name in ("d3", *_PIZER)],
    (("oracle", "--order", "hurwitz", "--s", "5"), True),
    (_count("d3", "4,8,12,16", "--cache"), False),
]


def golden_name(argv) -> str:
    """The file stem of a case: its arguments joined by '_', without the
    leading dashes."""
    return "_".join(arg.lstrip("-") for arg in argv)


def run_case(argv, pooled: bool) -> dict:
    """{golden file name: bytes} of one case: its stdout (.json, or .csv
    under --format csv) and the checkpoint it writes (.jsonl), if any."""
    stem = golden_name(argv)
    min_rows = 0 if pooled else counting._POOL_MIN_ROWS
    with tempfile.TemporaryDirectory() as cache, \
            mock.patch.object(counting, "_POOL_MIN_ROWS", min_rows), \
            contextlib.redirect_stdout(io.StringIO()) as out:
        assert main([*argv, cache] if argv[-1] == "--cache" else list(argv)) == 0
        written = sorted(Path(cache).iterdir())
        assert len(written) == (argv[-1] == "--cache")
        files = {f"{stem}.jsonl": path.read_bytes() for path in written}
    files[stem + (".csv" if "csv" in argv else ".json")] = out.getvalue().encode("utf-8")
    return files


@pytest.mark.parametrize("argv, pooled", CASES,
                         ids=[golden_name(argv) + "-pool" * pooled for argv, pooled in CASES])
def test_output_bytes_equal_the_golden_files(argv, pooled):
    for name, data in run_case(argv, pooled).items():
        assert data == (GOLDEN / name).read_bytes(), name


def test_every_golden_file_belongs_to_a_case():
    stems = {golden_name(argv) for argv, _ in CASES}
    data = {path.name for path in GOLDEN.iterdir() if path.is_file() and path.suffix != ".py"}
    assert data and {name.rsplit(".", 1)[0] for name in data} == stems
