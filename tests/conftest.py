import os
import sys

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
