"""Golden outputs: the TSV of every scenario, pinned byte for byte.

Determinism tests only compare a run with itself; these compare against
files made once, so a change to the random stream or to the physics cannot
pass as "still deterministic". The fixtures in ``tests/golden/`` belong to
the stream named in ``tests/golden/rng_stream.txt``. After a deliberate
stream or physics change, regenerate them and bump ``kernels.RNG_STREAM``
when the stream changed:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from eprsim.cli import main
from eprsim.kernels import RNG_STREAM

GOLDEN = Path(__file__).resolve().parent / "golden"
STREAM_FILE = GOLDEN / "rng_stream.txt"
SEED = "20201231"

# Fixture name -> CLI arguments. Together they cover the five scenarios,
# every model code, random ordering (the ordering slot) and both
# experiments of the discrimination table.
CASES = {
    "chsh-scan-qm-random": [
        "chsh-scan", "--model", "qm", "--ordering", "random", "--trials", "5000"
    ],
    "chsh-scan-lhv-malus": ["chsh-scan", "--model", "lhv-malus", "--trials", "5000"],
    "malus-check": ["malus-check", "--trials", "5000"],
    "qwp-test-qm-random": ["qwp-test", "--model", "qm", "--ordering", "random", "--trials", "5000"],
    "order-test-ndv-nonlocal": ["order-test", "--model", "ndv-nonlocal", "--trials", "10000"],
    "model-matrix": ["model-matrix", "--trials", "5000"],
}


def render(name: str) -> bytes:
    """The case's TSV as printed to stdout (an --out path would be echoed)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main([*CASES[name], "--seed", SEED, "--format", "tsv"])
    assert code == 0
    return buffer.getvalue().encode()


def test_fixtures_belong_to_the_current_stream():
    assert STREAM_FILE.read_text().strip() == RNG_STREAM


@pytest.mark.parametrize("name", sorted(CASES))
def test_tsv_matches_golden(name):
    assert render(name) == (GOLDEN / f"{name}.tsv").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        (GOLDEN / f"{case}.tsv").write_bytes(render(case))
    STREAM_FILE.write_text(RNG_STREAM + "\n")
    print(f"wrote {len(CASES)} fixtures for {RNG_STREAM} to {GOLDEN}")
