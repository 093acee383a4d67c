import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
if os.path.abspath(SRC) not in (os.path.abspath(p) for p in sys.path):
    sys.path.insert(0, os.path.abspath(SRC))

# One profile for every property: a fixed example sequence and no example
# database, so the properties run the same way on every machine and leave no
# files behind. A property may lower max_examples and nothing else.
settings.register_profile(
    "masktrack", max_examples=200, deadline=None, derandomize=True, database=None
)
settings.load_profile("masktrack")


HERE = Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    """A RuntimeWarning (an overflow, a division by zero, an invalid value)
    fails every test under ``tests/``: the package's numpy arithmetic is
    exact or raises its own errors, so such a warning marks a fault."""
    for item in items:
        if HERE in Path(item.path).resolve().parents:
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"))
