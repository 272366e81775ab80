"""The shared charge-loop behind every platform's ``fast_forward``.

Every energy-buffered platform fast-forwards the same way: while
dormant it charges toward an energy target through the storage
element's ``charge_many`` primitive, stops before the tick that would
reach the target, and reports the consumed ticks as one
``(state, ticks)`` run.  The wake attempt on that tick is an event
tick like any other: the platform's own ``tick()`` runs it, in every
engine.  Each of :mod:`repro.core.nvp`,
:mod:`repro.baselines.checkpoint` and
:mod:`repro.baselines.waitcompute` only describes *its* dormant
behaviour as an :class:`OffRunPlan` and inherits ``fast_forward`` from
:class:`OffRunFastForward`, which runs the loop in
:func:`fast_forward_offruns`.

The plan is also the contract the fleet kernel
(:mod:`repro.fleet.kernel`) drives: a dormant device advances through
the vectorized struct-of-arrays charge step, which stops before the
same tick, and then joins the exact path for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple


@dataclass
class OffRunPlan:
    """How a dormant platform charges.

    Attributes:
        state: run-length state name while dormant (``"off"`` or
            ``"charge"``).
        target_j: stored-energy target that triggers a wake attempt;
            called once per charge run so plans whose target moves
            between wake attempts (wait-and-compute) stay exact.
        on_charged: optional bookkeeping for consumed dormant ticks
            (the NVP's retention-age clock); called after every charge
            run with the number of ticks consumed.
    """

    state: str
    target_j: Callable[[], float]
    on_charged: Optional[Callable[[int], None]]


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
        (``"off"`` or ``"charge"``, stopping before the tick that
        reaches it) and ``"done"`` (workload finished, storage still
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
    operation matches the exact path bit-for-bit, and leaves the tick
    that reaches the wake target to the platform's own ``tick()``.
    The plan's target is read once, at ``start``, so a platform emits
    from inside this call only at that tick.

    Args:
        platform: the platform being advanced; must expose
            ``storage``, ``workload`` and ``off_plan``.
        p_in_w: per-tick DC input power, indexable.
        start: index of the current tick.
        stop: one past the last tick that may be consumed.
        dt_s: tick duration.

    Returns:
        ``[(state, ticks)]`` covering the consumed ticks — or ``None``
        when the platform state cannot be fast-forwarded or its first
        tick already reaches the target (the simulator then falls back
        to exact ticking).
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
    consumed, _ = charge_many(p_in_w, start, stop, dt_s, plan.target_j())
    if not consumed:
        return None
    if plan.on_charged is not None:
        plan.on_charged(consumed)
    return [(plan.state, consumed)]
