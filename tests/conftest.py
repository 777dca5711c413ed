"""Shared test settings and helpers.

Hypothesis draws its examples from a fixed seed and keeps no example
database, so every run on every machine tests the same inputs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

SRC = Path(__file__).resolve().parents[1] / "src"
CHILD_MEMORY = 1 << 30

# Run first in every capped child: a MemoryError there ends the child,
# not the machine running the tests.
_CAP = (
    "import resource\n"
    f"resource.setrlimit(resource.RLIMIT_AS, ({CHILD_MEMORY}, {CHILD_MEMORY}))\n"
)


@pytest.fixture
def capped_child():
    """Run a Python snippet in a child process under a 1 GiB address-space
    cap; ``args`` become its ``sys.argv[1:]``. A child still running after
    ``timeout`` seconds is killed and the test fails with TimeoutExpired.
    Returns the finished process, its output captured as text."""

    def run(code: str, *args: str, timeout: float) -> subprocess.CompletedProcess:
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-c", _CAP + code, *args],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=timeout,
        )

    return run
