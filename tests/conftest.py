import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hktlie.cli import MAX_RANK  # noqa: E402  (needs the path above)
from hktlie.rootsys import MIN_RANK  # noqa: E402

#: every algebra the test suite certifies end to end, with its canonical padding
CATALOG = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6), ("A", 7),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4),
    ("D", 3), ("D", 4), ("D", 5),
]

#: every family and rank the command line accepts, from the lowest supported
#: rank up to its cap
CLI_RANGE = [(f, r) for f, cap in MAX_RANK.items() for r in range(MIN_RANK[f], cap + 1)]

#: algebras above the command-line rank caps that the library still builds,
#: the `highrank` benchmark set
ABOVE_CAPS = [("A", 9), ("A", 10), ("B", 6), ("C", 6), ("D", 7)]


@pytest.fixture(scope="session")
def catalog_algebras():
    return list(CATALOG)
