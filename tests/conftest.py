"""Tier-1's own environment: no PRIMEWHEEL_* variable, and this checkout's src/ first on
PYTHONPATH, for the tests and every process they start, whatever the calling shell set."""

import os
from pathlib import Path

import pytest

import primewheel


@pytest.fixture(scope="session", autouse=True)
def own_environment():
    # Session scope puts it in force before module-scoped fixtures start children.
    src = str(Path(primewheel.__file__).resolve().parents[1])
    with pytest.MonkeyPatch.context() as mp:
        for name in [k for k in os.environ if k.startswith("PRIMEWHEEL_")]:
            mp.delenv(name)
        mp.setenv("PYTHONPATH", src, prepend=os.pathsep)
        yield
