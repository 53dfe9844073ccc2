"""Enumeration budget handling.

A single knob caps every combinatorial enumeration in the package
(colorings, partitions, witness sets, grid-cell assignments). The default
is 10**6 items; the HYPERTEST_BUDGET environment variable or an explicit
argument overrides it. Exceeding the budget raises :class:`BudgetError`,
never a silent truncation. :func:`exact_or_heuristic` is the one place a
refusal turns into a heuristic fallback, and it reports which side ran.
"""

from __future__ import annotations

import os
from typing import Callable, TypeVar

__all__ = [
    "DEFAULT_BUDGET",
    "ENV_VAR",
    "BudgetError",
    "current_budget",
    "check_budget",
    "exact_or_heuristic",
]

_T = TypeVar("_T")

DEFAULT_BUDGET = 10**6
ENV_VAR = "HYPERTEST_BUDGET"


class BudgetError(RuntimeError):
    """An enumeration would exceed the configured budget.

    Attributes
    ----------
    stage : str
        Which enumeration refused to run.
    needed : int
        Number of items the enumeration would visit.
    budget : int
        The budget in force when the refusal happened.
    """

    def __init__(self, stage: str, needed: int, budget: int):
        self.stage = stage
        self.needed = needed
        self.budget = budget
        super().__init__(
            f"{stage}: enumeration needs {needed} items but the budget is {budget} "
            f"(raise it via the {ENV_VAR} environment variable or a budget argument)"
        )


def current_budget(override: int | None = None) -> int:
    """The enumeration budget in force.

    Explicit ``override`` wins, then the HYPERTEST_BUDGET environment
    variable, then :data:`DEFAULT_BUDGET`.
    """
    if override is not None:
        if override <= 0:
            raise ValueError("budget must be positive")
        return int(override)
    raw = os.environ.get(ENV_VAR)
    if raw is not None and raw.strip():
        try:
            value = int(raw)
        except ValueError as exc:
            raise ValueError(f"{ENV_VAR} must be an integer, got {raw!r}") from exc
        if value <= 0:
            raise ValueError(f"{ENV_VAR} must be positive, got {value}")
        return value
    return DEFAULT_BUDGET


def check_budget(stage: str, needed: int, override: int | None = None) -> None:
    """Raise :class:`BudgetError` when ``needed`` exceeds the budget."""
    budget = current_budget(override)
    if needed > budget:
        raise BudgetError(stage, needed, budget)


def exact_or_heuristic(
    mode: str, exact: Callable[[], _T], heuristic: Callable[[], _T]
) -> tuple[_T, str]:
    """Run the computation ``mode`` asks for; return its result and what ran.

    "exact" and "heuristic" run that callable. "auto" runs ``exact`` and
    falls back to ``heuristic`` only when ``exact`` raises
    :class:`BudgetError`; any other exception propagates. The second
    item is "exact" or "heuristic", the side that produced the result.
    """
    if mode == "exact":
        return exact(), "exact"
    if mode == "heuristic":
        return heuristic(), "heuristic"
    if mode != "auto":
        raise ValueError(f"unknown mode {mode!r}")
    try:
        return exact(), "exact"
    except BudgetError:
        return heuristic(), "heuristic"
