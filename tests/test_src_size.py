"""``tools/src_size.py``, the gauge of the library's size: its count of
code lines and of the public names."""
import sys
from pathlib import Path

import paprsim

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import src_size  # noqa: E402

SOURCE = '''"""A module docstring,
on two lines."""
import math  # a comment after code


def area(r):
    """A function docstring."""
    # a comment on its own line

    return math.pi * (
        r * r)
'''


def test_code_lines_count_only_the_code():
    # The import, the def, and the return over its two lines: 4 of 11.
    assert SOURCE.count("\n") == 11
    assert src_size.code_lines(SOURCE) == 4


def test_all_names_counts_the_public_names():
    assert src_size.all_names(src_size.SRC) == len(paprsim.__all__)
