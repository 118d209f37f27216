"""
Inputs of the three workloads and the benchmark's own computations that the
program's outputs are checked against.  Nothing here imports adlv: shapes,
duals, stratum dimensions, lambda_b and Kostka numbers are computed from
their definitions.
"""

from __future__ import annotations

import functools
import itertools
import math
import random

WORKLOADS = ("equivalence", "cyclicity", "report")

# (n, largest mu_1) slices of the shape sweeps
EQUIVALENCE_SLICES = ((2, 3), (3, 3), (4, 3), (5, 3), (6, 2))
# shapes on which s_adm is also compared with the reference route (filtering
# the full admissible set); about 1 s per pass, outside the timed region
REFERENCE_SLICES = ((2, 3), (3, 3), (4, 3), (5, 2))
CYCLICITY_SLICES = ((2, 5), (3, 5), (4, 5), (5, 5), (6, 3), (7, 3))

# one adlv command per entry, each run in a fresh process
REPORT_COMMANDS = (
    ("compare", "--mu", "2,1,0,0,0"),
    ("compare", "--mu", "2,1,1,1,1,0,0"),
    ("compare", "--mu", "1,1,0,0,0,0,0,0,0"),
    ("compare", "--mu", "3,2,1,1,0"),
    ("compare", "--mu", "2,1,0,0,0,0,0"),
    ("compare", "--max-n", "5", "--max-mu1", "2", "--format", "csv"),
)

# a few seconds in all, for the harness self-check
TINY = {
    "equivalence": ((2, 2), (3, 2), (4, 2)),
    "reference": ((2, 2), (3, 2), (4, 2)),
    "cyclicity": ((2, 3), (3, 3), (4, 3), (5, 2)),
    "report": (("compare", "--mu", "2,1,0,0,0"),
               ("compare", "--mu", "1,1,0,0,0"),
               ("compare", "--max-n", "3", "--max-mu1", "2", "--format", "csv")),
}


def shapes(n: int, mu1_max: int) -> list[tuple[int, ...]]:
    """Dominant mu with mu(n) = 0, 1 <= mu(1) <= mu1_max, sum coprime to n."""
    out = []
    for parts in itertools.product(range(mu1_max + 1), repeat=n - 1):
        mu = parts + (0,)
        if mu[0] >= 1 and all(a >= b for a, b in zip(mu, mu[1:])) \
                and math.gcd(sum(mu), n) == 1:
            out.append(mu)
    return out


def slice_shapes(slices) -> list[tuple[int, ...]]:
    return [mu for n, top in slices for mu in shapes(n, top)]


def sweep_inputs(workload: str, seed: int, tiny: bool = False) -> list[tuple[int, ...]]:
    """The shapes of one pass, in the order given by the seed."""
    slices = {"equivalence": EQUIVALENCE_SLICES, "cyclicity": CYCLICITY_SLICES}[workload]
    out = slice_shapes(TINY[workload] if tiny else slices)
    random.Random(seed).shuffle(out)
    return out


def reference_shapes(tiny: bool = False) -> set[tuple[int, ...]]:
    return set(slice_shapes(TINY["reference"] if tiny else REFERENCE_SLICES))


def report_inputs(seed: int, tiny: bool = False) -> list[tuple[str, ...]]:
    out = list(TINY["report"] if tiny else REPORT_COMMANDS)
    random.Random(seed).shuffle(out)
    return out


# ---------------------------------------------------------------------------
# independent computations
# ---------------------------------------------------------------------------

def dual(mu: tuple[int, ...]) -> tuple[int, ...]:
    """mu* = (mu(1), mu(1) - mu(n-1), ..., mu(1) - mu(2), 0)."""
    n, d = len(mu), mu[0]
    return (d,) + tuple(d - mu[n - i] for i in range(2, n)) + (0,)


def top_dim(mu: tuple[int, ...]) -> int:
    """dim X_mu(tau^m) = (<2 rho, mu> - (n - 1)) / 2."""
    n = len(mu)
    two_rho = sum((n - 1 - 2 * i) * v for i, v in enumerate(mu))
    return (two_rho - (n - 1)) // 2


def lambda_b(m: int, n: int) -> tuple[int, ...]:
    return tuple((i * m) // n - ((i - 1) * m) // n for i in range(1, n + 1))


def kostka(shape: tuple[int, ...], content: tuple[int, ...]) -> int:
    """
    Semi-standard tableaux of the given shape and content: the entries equal
    to k form a horizontal strip on top of the tableau of entries < k, so
    peel strips off from the largest entry down.
    """
    shape = tuple(v for v in shape if v)
    content = tuple(content)

    @functools.lru_cache(maxsize=None)
    def count(sh: tuple[int, ...], k: int) -> int:
        if k == 0:
            return 1 if not sh else 0
        total = 0
        for inner in _strip_removals(sh, content[k - 1]):
            total += count(inner, k - 1)
        return total

    return count(shape, len(content))


def _strip_removals(sh: tuple[int, ...], size: int):
    """Shapes nu inside sh with sh / nu a horizontal strip of the given size."""
    rows = len(sh)

    def rec(i: int, left: int, prefix: tuple[int, ...]):
        if i == rows:
            if left == 0:
                yield tuple(v for v in prefix if v)
            return
        floor = sh[i + 1] if i + 1 < rows else 0
        for take in range(0, min(left, sh[i] - floor) + 1):
            yield from rec(i + 1, left - take, prefix + (sh[i] - take,))

    yield from rec(0, size, ())


def parse_mu(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))
