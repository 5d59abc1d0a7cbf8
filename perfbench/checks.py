"""Correctness checks.

Every check is one attempted operation; a check that does not hold is one
failed operation.  The benchmark reports both counts, so a run that got
faster by computing something else shows as failed work, not as a gain.
"""

from __future__ import annotations

import csv
import math
import random
import sys
from typing import Sequence

from launcher import CliRun

GRAM_REL_TOL = 1e-9
ORACLE_LAMBDA = 0.5


class Checks:
    """Attempted and failed operation counts; failures are logged to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok


def read_cli_accuracies(path: str) -> list[float]:
    """Per-repeat accuracies from a ``classify --out`` CSV."""
    with open(path, newline="") as fh:
        return [float(row["accuracy"]) for row in csv.DictReader(fh)]


def check_cli(checks: Checks, run: CliRun, out_csv: str, library: Sequence[float]) -> None:
    """The CLI exited 0 and its per-repeat accuracies equal the library's."""
    if not checks.check(run.returncode == 0, f"CLI exit code {run.returncode}"):
        return
    got = read_cli_accuracies(out_csv)
    checks.check(
        got == list(library), f"CLI accuracies {got} differ from library {list(library)}"
    )


def gram_sample(n_members: int, seed: int, size: int = 6) -> tuple[list[int], list[int]]:
    """Seeded rows and columns for the oracle sample: ``rows x rows`` takes
    the symmetric Gram path, ``others x rows`` the rectangular one."""
    rng = random.Random(f"oracle:{seed}")
    picked = rng.sample(range(n_members), min(n_members, 2 * size))
    return sorted(picked[:size]), sorted(picked[size:])


def check_gram_entries(
    checks: Checks,
    computed: Sequence[Sequence[float]],
    expected: Sequence[Sequence[float]],
    label: str,
) -> None:
    """One check per entry: equal within a relative ``GRAM_REL_TOL``."""
    for a, (got_row, want_row) in enumerate(zip(computed, expected)):
        for b, (got, want) in enumerate(zip(got_row, want_row)):
            checks.check(
                math.isclose(got, want, rel_tol=GRAM_REL_TOL, abs_tol=0.0),
                f"{label}[{a},{b}] = {got!r}, oracle {want!r}",
            )


def check_gram_oracle(checks: Checks, dataset, annotated, seed: int) -> None:
    """A seeded sample of Gram entries under exponential weights
    (lambda = 0.5) against ``kernel_brute``, the string-signature oracle."""
    from dagkernel import exponential_weights, gram, kernel_brute

    rows, others = gram_sample(len(dataset), seed)
    weights = exponential_weights(annotated.dag, ORACLE_LAMBDA)

    def oracle(i: int, j: int) -> float:
        return kernel_brute(
            dataset.trees[i], dataset.trees[j], dataset.mode,
            lambda sub: ORACLE_LAMBDA ** sub.height(),
        )

    for label, left in (("gram_sym", rows), ("gram_rect", others)):
        computed = gram(annotated, weights, left, rows)
        expected = [[oracle(i, j) for j in rows] for i in left]
        check_gram_entries(checks, computed.tolist(), expected, label)
