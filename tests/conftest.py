import numpy as np
import pytest

from symhess import TransformGivens


@pytest.fixture
def one_plane_records():
    """Split a TransformGivens record into one-plane records, k = n down to
    k0: the order of the one-by-one Givens sweep."""
    def split(t):
        return [TransformGivens(t.k0 + i, t.c[i:i + 1], t.s[i:i + 1], t.n)
                for i in range(t.c.size - 1, -1, -1)]
    return split
