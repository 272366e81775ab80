"""The sequential kernels in Python: the fallback and the reference.

``kernels.c`` holds the same four functions, with the same
signatures, in C.  This module is what :func:`repro.native.kernels`
returns when the extension cannot be built, and it is the definition
the C code is diffed against, bit for bit: every float operation there
runs in the order written here.

``kernels.c``'s fifth function, the NV16 loop ``nv16_run``, has no
twin here.  :class:`~repro.isa.blockengine.BlockEngine`'s generated
blocks are its fallback, and ``CPU.step`` is the definition it is
diffed against; a third copy of the ISA would only be one more to keep
in step.

The storage op chain is written once, as :func:`chain_step`.
:meth:`~repro.storage.capacitor.Capacitor.step`, the two loops below
and :func:`~repro.system.exactkernel.isa_storage_run` call it;
:func:`charge_rows` is the same chain written elementwise in numpy.
"""

from __future__ import annotations

import math

import numpy as np

BACKEND = "python"

#: 2**63: the first float past int64.
_TWO63 = 2.0**63


def chain_step(chain, energy, p_in, dt):
    """One tick of the storage op chain: charge from the harvester, then leak.

    ``chain`` is :meth:`~repro.storage.capacitor.Capacitor.chain`'s
    tuple.  Charging below the minimum current, or from no input,
    wastes the input; otherwise the voltage-dependent efficiency
    converts it and the headroom to capacity clips it.  A clip can
    leave the energy one ulp above capacity (``E + (cap - E)`` rounds
    half to even), and every engine keeps that ulp.

    Returns ``(energy, charged, leaked, wasted)`` after the tick; the
    load, if any, is the caller's.
    """
    (capacitance, capacity, leak_ohm, min_current,
     eta_peak, eta_floor, v_opt, v_span) = chain
    wasted = 0.0
    voltage = math.sqrt(2.0 * energy / capacitance)
    input_energy = p_in * dt
    if (
        min_current > 0.0
        and voltage > 0.0
        and p_in < min_current * voltage
    ) or input_energy == 0.0:
        charged = 0.0
        wasted += input_energy
    else:
        if eta_floor == eta_peak:
            # A flat curve: max(eta_floor, eta_peak * (1 - x**2)) is
            # eta_peak exactly, so the parabola is skipped.
            eta = eta_peak
        else:
            offset = (voltage - v_opt) / v_span
            eta = max(eta_floor, eta_peak * (1.0 - offset * offset))
        charged = input_energy * eta
        wasted += input_energy - charged
        headroom = capacity - energy
        if charged > headroom:
            wasted += charged - headroom
            charged = headroom
        energy += charged
    voltage = math.sqrt(2.0 * energy / capacitance)
    leaked = min(energy, voltage * voltage / leak_ohm * dt)
    return energy - leaked, charged, leaked, wasted


def charge_many(p_in_w, start, stop, dt_s, chain, target, state):
    """Zero-load ticks of ``p_in_w[start:stop]`` until one reaches ``target``.

    ``state`` is ``(energy, charged, leaked, wasted)``, the store's
    energy and three ledgers.  The tick whose energy would reach
    ``target`` is discarded, not committed.

    Returns ``(ticks, crossed, state)``: the ticks committed, whether
    the loop stopped at ``target``, and the state after them.
    """
    energy, total_charged, total_leaked, total_wasted = state
    index = start
    crossed = False
    while index < stop:
        new_energy, charged, leaked, wasted = chain_step(
            chain, energy, p_in_w[index], dt_s
        )
        if new_energy >= target:
            crossed = True
            break
        energy = new_energy
        total_charged += charged
        total_leaked += leaked
        total_wasted += wasted
        index += 1
    return (
        index - start,
        crossed,
        (energy, total_charged, total_leaked, total_wasted),
    )


def charge_rows(p, dt_s, chain, alive, target, state, pending):
    """One zero-load tick of every alive row of a fleet, in place.

    Column ``i`` of the field-major blocks is one parked store:
    ``chain[:, i]`` is its
    :meth:`~repro.storage.capacitor.Capacitor.chain` tuple,
    ``state[:, i]`` its ``(energy, charged, leaked, wasted)`` and
    ``p[i]`` its input power.  Each alive row runs :func:`chain_step`
    as :func:`charge_many` does: a row whose energy would reach
    ``target[i]`` discards the tick and is returned; every other alive
    row commits it and counts it in ``pending[i]``.  Rows not
    ``alive`` are left as they are.

    ``chain`` is ``(8, n)`` and ``state`` ``(4, n)`` float64, ``p``
    and ``target`` float64, ``alive`` bool and ``pending`` int64, all
    C-contiguous.  Returns the crossing rows as a list, or ``None``
    when no row crossed.

    This twin is :func:`chain_step` written elementwise in numpy, op
    for op; a Python loop over the rows would make this step about 20
    times slower.  Branches become masks applied in branch order (the
    blocked or zero-input override comes last, since that branch skips
    the charge block), and on the non-negative, NaN-free values a
    fleet holds, ``np.maximum``/``np.minimum`` equal ``max``/``min``:

    * a flat efficiency curve needs no hoist, because correctly
      rounded multiplication is monotone and the parabola never
      exceeds its peak;
    * the capacity clip adds ``max(charged - headroom, 0.0)`` to the
      waste, an exact ``+ 0.0`` on a row that is not clipped;
    * a row that does not commit adds ``0.0`` to its ledgers, which
      keeps their bits (a ledger is never ``-0.0``).

    On a negative stored energy the C twin raises ``ValueError`` where
    this one computes NaN.
    """
    (capacitance, capacity, leak_ohm, min_current,
     eta_peak, eta_floor, v_opt, v_span) = chain
    energy = state[0]
    voltage = np.sqrt(2.0 * energy / capacitance)
    input_energy = p * dt_s
    offset = (voltage - v_opt) / v_span
    charged = input_energy * np.maximum(
        eta_floor, eta_peak * (1.0 - offset * offset)
    )
    wasted = input_energy - charged
    headroom = capacity - energy
    wasted += np.maximum(charged - headroom, 0.0)
    charged = np.minimum(charged, headroom)
    zero = (input_energy == 0.0) | (
        (min_current > 0.0) & (voltage > 0.0) & (p < min_current * voltage)
    )
    charged = np.where(zero, 0.0, charged)
    wasted = np.where(zero, input_energy, wasted)
    new = energy + charged
    voltage = np.sqrt(2.0 * new / capacitance)
    leaked = np.minimum(new, voltage * voltage / leak_ohm * dt_s)
    new -= leaked
    crossed = alive & (new >= target)
    # The rows that do not commit the tick: crossing or not alive.
    kept = np.flatnonzero(crossed | ~alive)
    new[kept] = energy[kept]
    charged[kept] = leaked[kept] = wasted[kept] = 0.0
    state[0] = new
    state[1] += charged
    state[2] += leaked
    state[3] += wasted
    pending += 1
    pending[kept] -= 1
    return np.flatnonzero(crossed).tolist() if crossed.any() else None


def storage_run(p_in_w, start, stop, dt_s, chain, workload, stops, state):
    """Powered-on ticks of a storage-backed platform, up to an event tick.

    Per tick: the stall-decayed execution budget, the workload's
    time-credit recurrence, :func:`chain_step`, then the load drawn
    from what is left.

    * ``workload`` is ``(time_per_instr, energy_per_instr, limit,
      instructions_per_unit)``; ``limit`` is the instruction count at
      which the workload finishes, ``None`` if it never does.
    * ``stops`` is ``(threshold_j, stop_at_unit_boundary)``.
    * ``state`` is ``(energy, charged, leaked, wasted, delivered,
      consumed, stall, credit, retired, volatile)``.

    Stops before the first tick where the energy at tick start is at
    most ``threshold_j``, the instruction count is not an int64 (or
    is NaN), the workload would finish, a unit boundary would be
    crossed (when asked), or the load cannot be met.  The C twin also
    stops before a tick whose counters would leave int64, past 9.2e18
    instructions.

    Returns ``(ticks, state)``: the ticks committed and the state
    after them.
    """
    tpi, epi, limit, ipu = workload
    threshold, unit_boundary = stops
    (energy, total_charged, total_leaked, total_wasted, total_delivered,
     consumed, stall, credit, retired, volatile) = state
    dt = dt_s
    index = start
    while index < stop:
        # The trigger is tested where the platform's state machine
        # tests it: at tick start, before the workload advances.
        if energy <= threshold:
            break
        exec_budget = dt - stall
        if exec_budget < 0.0:
            exec_budget = 0.0
        new_stall = stall - dt
        if new_stall < 0.0:
            new_stall = 0.0
        budget = exec_budget + credit
        instructions = budget / tpi
        if not -_TWO63 <= instructions < _TWO63:
            break
        count = int(instructions)
        # The finishing and unit-commit ticks stay scalar, so the
        # platform's own code commits them.
        if limit is not None and retired + count >= limit:
            break
        if (
            unit_boundary
            and count
            and (retired + count) // ipu > retired // ipu
        ):
            break
        time_used = count * tpi
        rem = budget - time_used
        new_credit = rem if rem < tpi else tpi
        load_w = (count * epi) / dt
        new_energy, charged, leaked, wasted = chain_step(
            chain, energy, p_in_w[index], dt
        )
        demand = load_w * dt
        delivered = demand if demand < new_energy else new_energy
        if delivered < demand - 1e-18:
            # A deficit: the candidate is discarded, and the scalar
            # path runs the power collapse from the same state.
            break
        new_energy -= delivered

        energy = new_energy
        stall = new_stall
        credit = new_credit
        retired += count
        volatile += count
        consumed += delivered
        total_charged += charged
        total_leaked += leaked
        total_wasted += wasted
        total_delivered += delivered
        index += 1
    return index - start, (
        energy, total_charged, total_leaked, total_wasted, total_delivered,
        consumed, stall, credit, retired, volatile,
    )


def ou_walk(steps, alpha, x0):
    """The Ornstein–Uhlenbeck recurrence, in place on float64 ``steps``.

    ``steps[i]`` becomes ``alpha * value + steps[i]``, where ``value``
    is the previous result (``x0`` before the first): multiply, then
    add, never fused.
    """
    view = memoryview(steps)
    value = x0
    for index, step in enumerate(view):
        value = alpha * value + step
        view[index] = value
