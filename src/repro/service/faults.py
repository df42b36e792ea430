"""Deterministic fault injection for :mod:`repro.service`.

The service's fault-tolerance claims (crash recovery, retry caps,
poison quarantine, deadline enforcement) are only testable if failures
can be *provoked on demand, deterministically*.  This module is the
harness: a :class:`FaultPlan` -- built from a spec string and passed
to :class:`~repro.service.SolverService` as ``faults=`` -- arms faults
at named sites inside the service, and the service consults
:meth:`FaultPlan.trigger` at each site.  Nothing else arms a plan: a
service built without ``faults=`` injects nothing.

Spec grammar (``;``-separated specs, whitespace ignored)::

    ACTION@SITE[:DELAYms][*TIMES][+SKIP]

* ``ACTION`` -- one of ``crash`` (worker calls ``os._exit``), ``slow``
  (sleep ``DELAY`` before proceeding), ``drop`` (worker computes the
  shard but never sends the result), ``stall`` (parent-side thread
  sleeps ``DELAY`` at the site);
* ``SITE`` -- a named hook point (see :data:`SITES`): ``worker.solve``
  and ``worker.result`` fire inside worker processes,
  ``scheduler.dispatch`` and ``collector.result`` inside the parent's
  service threads;
* ``:DELAYms`` -- the sleep for ``slow``/``stall`` (required for
  those, forbidden for ``crash``/``drop``);
* ``*TIMES`` -- how many arrivals trigger the fault (default 1;
  ``*inf`` = every arrival);
* ``+SKIP`` -- how many arrivals pass through untouched first
  (default 0).

Example: ``crash@worker.solve+1; slow@worker.solve:50ms*3`` crashes
the worker on its second solve, and makes three solves 50ms slower.

Determinism: each spec keeps an arrival counter per *process* --
arrival ``SKIP+1`` through ``SKIP+TIMES`` trigger, all others pass.
Worker-side counters therefore reset when a crashed worker is
respawned (the replacement's first solve is arrival 1 again), which is
exactly what a "this worker crashes once" scenario needs.  Counters
are lock-protected, so concurrent service threads see a consistent
sequence.

The plan crosses the worker ``fork``/``spawn`` boundary as its spec
*text* (re-parsed in the worker), so plans never need to pickle
counter state.
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass

__all__ = ["FaultPlan", "FaultSpec", "SITES"]

#: the named hook points the service exposes
SITES = (
    "worker.solve",
    "worker.result",
    "scheduler.dispatch",
    "collector.result",
)

#: which actions make sense where: a ``crash`` in a parent-side thread
#: would kill the service itself, a ``drop`` only means something at
#: the result-send site, a ``stall`` is the parent-side slow
_ACTION_SITES = {
    "crash": ("worker.solve",),
    "slow": ("worker.solve", "worker.result"),
    "drop": ("worker.result",),
    "stall": ("scheduler.dispatch", "collector.result"),
}

_SPEC_RE = re.compile(
    r"""^
    (?P<action>[a-z]+) @ (?P<site>[a-z.]+)
    (?: : (?P<delay>\d+(?:\.\d+)?) ms)?
    (?: \* (?P<times>\d+|inf))?
    (?: \+ (?P<skip>\d+))?
    $""",
    re.VERBOSE,
)

#: sentinel for ``*inf`` (every arrival triggers)
_FOREVER = 1 << 60


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: ``action`` at ``site``, arrivals ``skip+1``
    through ``skip+times`` trigger it."""

    action: str
    site: str
    delay_ms: float = 0.0
    times: int = 1
    skip: int = 0

    def __post_init__(self):
        allowed = _ACTION_SITES.get(self.action)
        if allowed is None:
            raise ValueError(
                f"unknown fault action {self.action!r}; expected one of "
                f"{sorted(_ACTION_SITES)}"
            )
        if self.site not in SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; expected one of {SITES}"
            )
        if self.site not in allowed:
            raise ValueError(
                f"action {self.action!r} cannot fire at {self.site!r}; "
                f"allowed sites: {allowed}"
            )
        needs_delay = self.action in ("slow", "stall")
        if needs_delay and self.delay_ms <= 0:
            raise ValueError(
                f"{self.action!r} needs a :DELAYms suffix, e.g. "
                f"{self.action}@{self.site}:50ms"
            )
        if not needs_delay and self.delay_ms:
            raise ValueError(f"{self.action!r} takes no :DELAYms suffix")
        if self.times < 1:
            raise ValueError(f"*TIMES must be >= 1, got {self.times}")
        if self.skip < 0:
            raise ValueError(f"+SKIP must be >= 0, got {self.skip}")

    def __str__(self) -> str:
        text = f"{self.action}@{self.site}"
        if self.delay_ms:
            delay = self.delay_ms
            text += f":{int(delay) if delay == int(delay) else delay}ms"
        if self.times != 1:
            text += f"*{'inf' if self.times >= _FOREVER else self.times}"
        if self.skip:
            text += f"+{self.skip}"
        return text

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        match = _SPEC_RE.match(text.replace(" ", ""))
        if match is None:
            raise ValueError(
                f"bad fault spec {text!r}; expected "
                "ACTION@SITE[:DELAYms][*TIMES][+SKIP]"
            )
        times = match["times"]
        return cls(
            action=match["action"],
            site=match["site"],
            delay_ms=float(match["delay"]) if match["delay"] else 0.0,
            times=(
                1
                if times is None
                else _FOREVER
                if times == "inf"
                else int(times)
            ),
            skip=int(match["skip"]) if match["skip"] else 0,
        )


class FaultPlan:
    """A set of armed :class:`FaultSpec`\\ s with per-spec arrival
    counters.  Falsy when empty, so service hook sites can guard with
    ``if self._faults:``."""

    def __init__(self, specs=()):
        self.specs = tuple(
            FaultSpec.parse(s) if isinstance(s, str) else s for s in specs
        )
        self._arrivals = [0] * len(self.specs)
        self._lock = threading.Lock()

    @classmethod
    def parse(cls, text: str | None) -> "FaultPlan":
        """Build a plan from the ``;``-separated spec grammar.
        ``None``/blank text yields an empty (inert) plan."""
        if not text or not text.strip():
            return cls()
        return cls(
            part for part in text.split(";") if part.strip()
        )

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __str__(self) -> str:
        return "; ".join(str(spec) for spec in self.specs)

    def trigger(self, site: str) -> FaultSpec | None:
        """Record one arrival at ``site``; the triggered spec, if any.

        At most one spec triggers per arrival (the first armed match in
        plan order); every spec armed at the site counts the arrival,
        so ``+SKIP`` windows of co-sited specs line up on the same
        arrival sequence."""
        if not self.specs:
            return None
        hit = None
        with self._lock:
            for index, spec in enumerate(self.specs):
                if spec.site != site:
                    continue
                arrival = self._arrivals[index] = self._arrivals[index] + 1
                if hit is None and spec.skip < arrival <= spec.skip + spec.times:
                    hit = spec
        return hit

    def induce(self, site: str) -> str | None:
        """Convenience hook for service code: record an arrival, serve
        any ``slow``/``stall`` sleep here, and return the action the
        caller must enact itself (``"crash"`` / ``"drop"``), else
        ``None``."""
        spec = self.trigger(site)
        if spec is None:
            return None
        if spec.action in ("slow", "stall"):
            time.sleep(spec.delay_ms / 1000.0)
            return None
        return spec.action
