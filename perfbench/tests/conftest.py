"""Import the program from the checkout's ``src/`` and the benchmark modules."""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


@pytest.fixture(scope="session")
def small_circuit():
    import repro

    return repro.generate_circuit(n_neurons=6, seed=11)
