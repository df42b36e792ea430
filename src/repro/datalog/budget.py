"""Cooperative solve budgets for the Theorem 4.4 pipeline.

The paper's guarantee is linear-time evaluation *for structures of
bounded treewidth*; outside that envelope MSO evaluation is
intractable, so a serving layer facing arbitrary inputs needs a way to
bound what one solve may consume without killing the worker that runs
it.  A :class:`SolveBudget` declares the caps, :meth:`SolveBudget.start`
arms a :class:`BudgetMeter`, and the fixpoint loops of
:func:`repro.datalog.grounding.ground_program_streamed` and
:class:`repro.datalog.horn.StreamingHorn` call :meth:`BudgetMeter.check`
cooperatively -- once per grounding round / every few thousand derived
atoms, never per tuple -- raising :class:`BudgetExceeded` (with the
partially-consumed budget attached) instead of dying by OOM kill or
wall-clock runaway.

The checks are *cooperative*: a single pathological extensional join
step can still overshoot between checkpoints.  The hard backstop is the
service layer's deadline enforcement (overdue workers are terminated
and the request fails with ``DeadlineExceeded``); the budget is the
graceful path that keeps the worker -- and its resident solvers --
alive.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

__all__ = ["BudgetExceeded", "BudgetMeter", "SolveBudget"]

try:  # resource is POSIX-only; memory caps degrade to no-ops elsewhere
    import resource
except ImportError:  # pragma: no cover - non-POSIX
    resource = None

#: ``ru_maxrss`` unit: kilobytes on Linux, bytes on macOS
_RSS_TO_MB = 1.0 / (1024.0 * 1024.0) if sys.platform == "darwin" else 1.0 / 1024.0


def _peak_rss_mb() -> float | None:
    """Peak resident set size of this process in MB (``None`` where
    unavailable).  Peak -- not current -- which is exactly the quantity
    a "this worker must not exceed X MB" cap is about."""
    if resource is None:  # pragma: no cover - non-POSIX
        return None
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * _RSS_TO_MB


class BudgetExceeded(RuntimeError):
    """A solve overran its :class:`SolveBudget`.

    Raised *cooperatively* from a fixpoint-loop checkpoint -- the
    process is healthy, the partial work is simply abandoned.
    ``dimension`` names the cap that tripped (``"seconds"``,
    ``"ground_rules"`` or ``"memory_mb"``), ``limit`` its configured
    value, and ``consumed`` the measured consumption *at the
    checkpoint* across all dimensions (the partially-consumed budget).
    """

    def __init__(
        self,
        message: str,
        *,
        dimension: str = "unknown",
        limit: float | int | None = None,
        consumed: dict | None = None,
    ):
        super().__init__(message)
        self.dimension = dimension
        self.limit = limit
        self.consumed = consumed if consumed is not None else {}


@dataclass(frozen=True)
class SolveBudget:
    """Per-solve resource caps, enforced cooperatively.

    Any subset of the caps may be set; ``None`` means unlimited.
    ``max_seconds`` is wall-clock from :meth:`start`;
    ``max_ground_rules`` caps the instantiated ground program
    (:attr:`repro.datalog.grounding.GroundingStats.ground_rules`);
    ``max_memory_mb`` caps the *peak RSS of the solving process* --
    a worker-level guard, so set it above the process baseline.

    The budget object itself is immutable (and cheap to pickle across
    the service's process boundary); per-solve state lives in the
    :class:`BudgetMeter` that :meth:`start` returns.
    """

    max_seconds: float | None = None
    max_ground_rules: int | None = None
    max_memory_mb: float | None = None

    def __post_init__(self):
        for name in ("max_seconds", "max_ground_rules", "max_memory_mb"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")

    @property
    def unlimited(self) -> bool:
        return (
            self.max_seconds is None
            and self.max_ground_rules is None
            and self.max_memory_mb is None
        )

    def start(self) -> "BudgetMeter":
        """Arm a meter: the clock starts now."""
        return BudgetMeter(self)


class BudgetMeter:
    """One solve's running consumption against a :class:`SolveBudget`.

    ``check(ground_rules=...)`` raises :class:`BudgetExceeded` when a
    cap is tripped; callers that don't track ground rules (the Horn
    propagation loop) call ``check()`` bare and only the time/memory
    caps apply.  ``snapshot()`` reports consumption without raising.
    """

    __slots__ = ("budget", "started", "ground_rules")

    def __init__(self, budget: SolveBudget):
        self.budget = budget
        self.started = time.monotonic()
        self.ground_rules = 0

    def snapshot(self) -> dict:
        """Consumption so far, one entry per measured dimension."""
        consumed = {
            "seconds": round(time.monotonic() - self.started, 6),
            "ground_rules": self.ground_rules,
        }
        rss = _peak_rss_mb()
        if rss is not None:
            consumed["memory_mb"] = round(rss, 3)
        return consumed

    def _trip(self, dimension: str, limit, consumed_value) -> None:
        raise BudgetExceeded(
            f"solve budget exceeded: {dimension} {consumed_value} "
            f"over the limit of {limit}",
            dimension=dimension,
            limit=limit,
            consumed=self.snapshot(),
        )

    def check(self, ground_rules: int | None = None) -> None:
        """Raise :class:`BudgetExceeded` if any armed cap is tripped."""
        budget = self.budget
        if ground_rules is not None:
            self.ground_rules = ground_rules
        if budget.max_seconds is not None:
            elapsed = time.monotonic() - self.started
            if elapsed > budget.max_seconds:
                self._trip("seconds", budget.max_seconds, round(elapsed, 6))
        if (
            budget.max_ground_rules is not None
            and self.ground_rules > budget.max_ground_rules
        ):
            self._trip(
                "ground_rules", budget.max_ground_rules, self.ground_rules
            )
        if budget.max_memory_mb is not None:
            rss = _peak_rss_mb()
            if rss is not None and rss > budget.max_memory_mb:
                self._trip("memory_mb", budget.max_memory_mb, round(rss, 3))


def as_meter(budget) -> BudgetMeter | None:
    """Normalize a budget argument: ``None`` passes through, a
    :class:`SolveBudget` is armed now, an armed :class:`BudgetMeter`
    is used as-is (so one meter can span decompose -> encode -> solve)."""
    if budget is None:
        return None
    if isinstance(budget, SolveBudget):
        return None if budget.unlimited else budget.start()
    if isinstance(budget, BudgetMeter):
        return budget
    raise TypeError(
        f"expected SolveBudget, BudgetMeter or None, got {type(budget).__name__}"
    )
