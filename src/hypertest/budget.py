"""Enumeration budget handling.

A single knob caps every combinatorial enumeration in the package
(colorings, partitions, witness sets, grid-cell assignments). The budget
in force is the innermost :func:`limit` scope, else the HYPERTEST_BUDGET
environment variable, else 10**6 items. Exceeding it raises
:class:`BudgetError`, never a silent truncation. :func:`exact_or_heuristic`
is the one place a refusal turns into a heuristic fallback, and it reports
which side ran.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator, TypeVar

__all__ = [
    "DEFAULT_BUDGET",
    "ENV_VAR",
    "BudgetError",
    "limit",
    "current_budget",
    "check_budget",
    "check_power_budget",
    "exact_or_heuristic",
]

_T = TypeVar("_T")

DEFAULT_BUDGET = 10**6
ENV_VAR = "HYPERTEST_BUDGET"

# bit length up to which check_power_budget builds a power to count it
_POWER_BITS = 2**16

_scoped: ContextVar[int | None] = ContextVar("hypertest_budget", default=None)


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
            f"{stage}: enumeration needs {_count_text(needed)} items but the budget is "
            f"{budget} (raise it via the {ENV_VAR} environment variable, --budget or "
            "budget.limit)"
        )


def _count_text(n: int) -> str:
    """``n`` in decimal, or its power of two past Python's int-to-str digit limit."""
    try:
        return str(n)
    except ValueError:
        return f"at least 2^{n.bit_length() - 1}"


@contextmanager
def limit(n: int | None) -> Iterator[None]:
    """Set the budget to ``n`` inside the ``with`` block.

    ``None`` leaves the budget in force unchanged; the outer value is
    restored on exit, also when the block raises.
    """
    if n is None:
        yield
        return
    if n <= 0:
        raise ValueError("budget must be positive")
    token = _scoped.set(int(n))
    try:
        yield
    finally:
        _scoped.reset(token)


def current_budget() -> int:
    """The enumeration budget in force.

    The innermost :func:`limit` wins, then the HYPERTEST_BUDGET
    environment variable, then :data:`DEFAULT_BUDGET`.
    """
    scoped = _scoped.get()
    if scoped is not None:
        return scoped
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


def check_budget(stage: str, needed: int) -> None:
    """Raise :class:`BudgetError` when ``needed`` exceeds the budget."""
    budget = current_budget()
    if needed > budget:
        raise BudgetError(stage, needed, budget)


def check_power_budget(stage: str, base: int, exponent: int) -> None:
    """:func:`check_budget` for ``base ** exponent`` items, sized before the power is built.

    ``base ** exponent`` is at least 2^((bit length of base - 1) * exponent).
    When that bound passes both ``_POWER_BITS`` and the budget's bit length,
    the power is refused unbuilt, with the count 2^that-many-bits, a lower
    bound (its text reads "at least 2^..."); so a huge exponent is refused at
    once. Every other power is built and checked as it is.
    """
    budget = current_budget()
    bits = max(_POWER_BITS, budget.bit_length())
    if (base.bit_length() - 1) * exponent > bits:
        raise BudgetError(stage, 1 << bits, budget)
    check_budget(stage, base ** exponent)


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
