"""Exact per-node power and energy accounting.

The meter listens to the platform's node state-transition funnel
(:meth:`~repro.platform.Platform._node_changed` forwards every
allocate/deallocate/fail/repair) and integrates ``∫ power · dt`` per node
with :class:`fractions.Fraction` arithmetic — the piecewise-constant
integral is then *exact*, so energy totals are byte-identical across
engine modes and scale bit-exactly under the fuzzer's power-of-two
time-scaling oracle.

Aggregate draw is tracked alongside for the ``max_power_watts`` summary
statistic and the power-corridor audit.  The maximum is taken over
*settled* states only: several transitions at the same simulation instant
(a finishing job's nodes released and immediately re-allocated, a spare
node failed before t=0) collapse to the last value at that instant, so
zero-duration transients never register as a peak.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, List


class PowerMeter:
    """Integrates per-node energy from node state transitions.

    Created by the :class:`~repro.monitoring.Monitor` when the platform
    declares non-zero node draw; registers itself as the platform's power
    listener.  All times come from ``env.now``; all wattages from
    :attr:`~repro.platform.Node.power_watts`.
    """

    def __init__(self, env, platform) -> None:
        self.env = env
        self.platform = platform
        nodes = platform.nodes
        #: Current draw per node, sampled at the last transition.
        self._watts: List[float] = [node.power_watts for node in nodes]
        #: Time of each node's last transition (energy is integrated up
        #: to here).
        self._last: List[float] = [0.0] * len(nodes)
        #: Exact accumulated energy per node, in joule Fractions.
        self._energy: List[Fraction] = [Fraction(0)] * len(nodes)
        self._total_watts: float = 0.0
        for watts in self._watts:
            self._total_watts += watts
        #: Highest settled aggregate draw observed so far.
        self._max_watts: float = 0.0
        #: Instant of the most recent transition (for settling the max).
        self._last_change: float = 0.0
        platform._power_listener = self

    # -- accounting --------------------------------------------------------

    def node_changed(self, node) -> None:
        """Platform hook: ``node`` just changed allocation/failure state."""
        index = node.index
        watts = node.power_watts
        old = self._watts[index]
        if watts == old:
            return
        now = self.env.now
        if now > self._last_change:
            # The aggregate level held since the previous transition was a
            # settled state: it is a candidate for the observed maximum.
            if self._total_watts > self._max_watts:
                self._max_watts = self._total_watts
            self._last_change = now
        if now > self._last[index]:
            self._energy[index] += Fraction(old) * (
                Fraction(now) - Fraction(self._last[index])
            )
            self._last[index] = now
        self._watts[index] = watts
        self._total_watts += watts - old

    def finalize(self, end_time: float) -> None:
        """Flush every node's integral to ``end_time`` and settle the max."""
        for index, watts in enumerate(self._watts):
            if end_time > self._last[index]:
                self._energy[index] += Fraction(watts) * (
                    Fraction(end_time) - Fraction(self._last[index])
                )
                self._last[index] = end_time
        if self._total_watts > self._max_watts:
            self._max_watts = self._total_watts

    # -- views -------------------------------------------------------------

    @property
    def current_watts(self) -> float:
        """Aggregate draw right now (incrementally maintained)."""
        return self._total_watts

    def total_energy(self) -> Fraction:
        """Exact machine-wide energy integrated so far (joules)."""
        return sum(self._energy, Fraction(0))

    def energy_record(self) -> Dict[str, Any]:
        """JSON-safe energy summary for ``run_record()`` (post-finalize)."""
        return {
            "total_joules": float(self.total_energy()),
            "max_power_watts": self._max_watts,
            "corridor_watts": self.platform.power_corridor,
            "node_joules": [float(e) for e in self._energy],
        }

    # -- snapshot/restore --------------------------------------------------

    def capture_state(self) -> Dict[str, Any]:
        """Serialise the meter; Fractions become [numerator, denominator]."""
        return {
            "watts": list(self._watts),
            "last": list(self._last),
            "energy": [[e.numerator, e.denominator] for e in self._energy],
            "total": self._total_watts,
            "max": self._max_watts,
            "last_change": self._last_change,
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        self._watts = [float(w) for w in state["watts"]]
        self._last = [float(t) for t in state["last"]]
        self._energy = [Fraction(num, den) for num, den in state["energy"]]
        self._total_watts = state["total"]
        self._max_watts = state["max"]
        self._last_change = state["last_change"]
