"""Test-only oracle for the family counts: C(l, n) by enumerating the
size-n subsets of {1, ..., l}.  It shares no code with the shear's running
binomials nor with the `math.comb` of the command-line report."""

from functools import lru_cache
from itertools import combinations


@lru_cache(maxsize=None)
def subset_count(l: int, n: int) -> int:
    """The number of size-n subsets of {1, ..., l}; 0 unless 0 <= n <= l."""
    if n < 0 or n > l:
        return 0
    return sum(1 for _ in combinations(range(1, l + 1), n))
