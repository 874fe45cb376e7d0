import os

import numpy as np
import pytest

# pyproject's pythonpath puts src/ on this process's path only; the tests
# that start a fresh interpreter need it in the environment as well
_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def gen():
    return np.random.default_rng(20240817)
