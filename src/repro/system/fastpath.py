"""The shared charge-loop behind every platform's ``fast_forward``.

Every energy-buffered platform fast-forwards the same way: while
dormant it charges toward an energy target through the storage
element's ``charge_many`` primitive, attempts a wake on the
threshold-crossing tick, and reports the consumed ticks as
``(state, ticks)`` runs.  Each of :mod:`repro.core.nvp`,
:mod:`repro.baselines.checkpoint` and
:mod:`repro.baselines.waitcompute` only describes *its* dormant
behaviour as an :class:`OffRunPlan` and inherits ``fast_forward`` from
:class:`OffRunFastForward`, which runs the loop in
:func:`fast_forward_offruns`.

The plan is also the contract the fleet kernel
(:mod:`repro.fleet.kernel`) drives: a dormant device advances through
the vectorized struct-of-arrays charge step, and on the crossing tick
the kernel calls the same ``on_cross`` hook this loop would, so both
paths stay bit-identical to exact ticking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple


@dataclass
class OffRunPlan:
    """How a dormant platform charges and wakes.

    Attributes:
        state: run-length state name while dormant (``"off"`` or
            ``"charge"``).
        target_j: stored-energy target that triggers a wake attempt;
            called once per charge run so plans whose target moves
            between wake attempts (wait-and-compute) stay exact.
        on_charged: optional bookkeeping for consumed dormant ticks
            (the NVP's retention-age clock); called after every charge
            run with the number of ticks consumed.
        on_cross: wake attempt on the threshold-crossing tick.  Must
            return the platform's :class:`~repro.system.simulator.TickReport`;
            a report whose state equals ``state`` means the wake failed
            and the crossing tick stays a dormant tick.
    """

    state: str
    target_j: Callable[[], float]
    on_charged: Optional[Callable[[int], None]]
    on_cross: Callable[[], object]


class OffRunFastForward:
    """The ``fast_forward`` capability of a platform with an ``off_plan``.

    Mixed into every energy-buffered platform: each one describes its
    dormant behaviour through ``off_plan(dt_s)`` and inherits this one
    definition.
    """

    def fast_forward(self, p_in_w, start, stop, dt_s):
        """Advance through analytically predictable ticks in bulk.

        Covers the steady states the per-tick loop wastes most of its
        time in: dormant charging toward the platform's wake target
        (``"off"`` or ``"charge"``, ending with the wake attempt on the
        crossing tick) and ``"done"`` (workload finished, storage still
        integrating the trace).  Every float operation matches the
        exact path bit-for-bit.

        Args:
            p_in_w: per-tick DC input power, indexable (the simulator
                passes a plain list for speed).
            start: index of the current tick.
            stop: one past the last tick that may be consumed.
            dt_s: tick duration.

        Returns:
            A list of ``(state, ticks)`` runs covering every consumed
            tick, in order — or ``None`` when this platform state
            cannot be fast-forwarded (the simulator then falls back to
            exact ticking).
        """
        return fast_forward_offruns(self, p_in_w, start, stop, dt_s)


def fast_forward_offruns(
    platform, p_in_w, start: int, stop: int, dt_s: float
) -> Optional[List[Tuple[str, int]]]:
    """Bulk-advance ``platform`` through dormant/done ticks.

    Implements the :meth:`OffRunFastForward.fast_forward` contract for
    any platform that exposes ``off_plan(dt_s)``: delegates the
    arithmetic to the storage element's ``charge_many`` so every float
    operation matches the exact path bit-for-bit, and runs the wake
    attempt on the crossing tick through the platform's own transition
    hook.

    Args:
        platform: the platform being advanced; must expose
            ``storage``, ``workload`` and ``off_plan``.
        p_in_w: per-tick DC input power, indexable.
        start: index of the current tick.
        stop: one past the last tick that may be consumed.
        dt_s: tick duration.

    Returns:
        ``(state, ticks)`` runs covering every consumed tick, in
        order — or ``None`` when the platform state cannot be
        fast-forwarded (the simulator then falls back to exact
        ticking).
    """
    charge_many = getattr(platform.storage, "charge_many", None)
    if charge_many is None:
        return None
    if platform.workload.finished:
        consumed, _ = charge_many(p_in_w, start, stop, dt_s, None)
        return [("done", consumed)] if consumed else None
    plan = platform.off_plan(dt_s)
    if plan is None:
        return None
    bus = getattr(platform, "bus", None)
    if bus is not None:
        # Stamp the bus clock so emits from inside the bulk operation
        # (threshold recompute, wake events) carry the tick the exact
        # engine would have used.
        bus.set_clock(start, dt_s)
    runs: List[Tuple[str, int]] = []
    pending = 0
    index = start
    while index < stop:
        consumed, crossed = charge_many(
            p_in_w, index, stop, dt_s, plan.target_j()
        )
        index += consumed
        if plan.on_charged is not None:
            plan.on_charged(consumed)
        pending += consumed
        if not crossed:
            break
        if bus is not None:
            # The crossing tick is the last one consumed.
            bus.set_clock(index - 1, dt_s)
        report = plan.on_cross()
        if report.state == plan.state:
            # Wake failed; the crossing tick stays a dormant tick and
            # charging resumes.
            continue
        pending -= 1
        if pending:
            runs.append((plan.state, pending))
        runs.append((report.state, 1))
        return runs
    if pending:
        runs.append((plan.state, pending))
    return runs or None
