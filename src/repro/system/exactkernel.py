"""Batched execution of the active ON-run tick path, bit-for-bit exact.

Fast-forward (:mod:`repro.system.fastpath`) eliminated dormant-tick
cost; the scalar per-tick interpreter over *active* execution was the
remaining floor (the ``oracle_guard`` preset in BENCH_core sat at
1.0x).  Between irregular events — backup-threshold crossings, power
deficits, workload unit boundaries and completions, periodic
checkpoints — a powered-on platform running an
:class:`~repro.workloads.base.AbstractWorkload` is a straight-line
recurrence, so whole runs of ticks can be advanced in one call.

This module is that engine.  Platforms expose it as the opt-in
``exact_batch(p_in_w, start, stop, dt_s)`` capability (the active-path
sibling of ``fast_forward``): consume a run of predictable ``"run"``
ticks in bulk, **stopping before the first event tick**, and return
``(state, ticks)`` runs — or ``None`` when the current state cannot be
batched, upon which the simulator falls back to exact ticking.  The
event tick itself always executes on the scalar path — the same rule
``fast_forward`` keeps for the wake tick — so every state transition,
wake, backup, collapse and commit runs the same Python code in every
engine.  A platform's ``exact_batch`` checks only its own
preconditions and names its stop rules; :func:`run_batch` decides the
rest and picks the kernel.

Bitwise discipline (the same contract ``charge_many`` /
:mod:`repro.fleet.soa` follow — every IEEE-754 operation in the same
order):

* **instruction counts** come from the workload's time-credit
  recurrence (``budget = dt + credit; count = int(budget / tpi);
  credit' = min(budget - count * tpi, tpi)``).  The recurrence is
  inherently sequential (it provably does not cycle), so it runs in a
  fused loop with every attribute hoisted to a local — no per-tick
  method dispatch, report objects, or dataclass allocation;
* **energy integration** for accumulator-only platforms (the oracle
  has no storage element) is vectorized: the per-tick energies are
  integrated with :func:`numpy.cumsum`, which for a 1-D float64 array
  performs the identical left-to-right additions the scalar
  ``consumed_j += count * epi`` loop performs, with the prior
  accumulator value as the leading element.  Event boundaries (the
  workload's finishing tick) are located on the monotone cumulative
  instruction series;
* **storage-backed platforms** (NVP, checkpoint, wait-and-compute)
  have state-dependent per-tick dynamics — conversion efficiency and
  leakage are functions of the evolving capacitor voltage — so their
  stored-energy series cannot be time-vectorized without changing the
  float evaluation order.  Their batched path is one call of the
  sequential ``storage_run`` kernel (:func:`repro.native.kernels`: C
  when it builds, else its Python twin), which runs the storage op
  chain ``Capacitor.step`` runs (charge with voltage-dependent
  efficiency, headroom clip, leak, load draw) on the constants of
  ``Capacitor.chain()``.

Event ticks are detected on *candidate* values: the loop computes the
tick's deltas into locals, and on a deficit (or a pre-tick threshold
crossing, unit boundary, periodic-checkpoint trip, or finishing tick)
discards them and stops — the scalar path then re-executes the tick
from the identical platform state.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import native
from repro.native.reference import chain_step
from repro.storage.capacitor import Capacitor

__all__ = [
    "run_batch",
    "oracle_run",
    "storage_run",
    "isa_oracle_run",
    "isa_storage_run",
]

#: Conservative relative margin used by the ISA pre-checks.  Covers the
#: accumulated float rounding of per-instruction time/energy sums for
#: runs up to ~10^7 instructions per tick (error ~n * 2^-52 << 1e-8).
_ISA_MARGIN = 1.0e-8


def run_batch(
    platform,
    p_in_w,
    start: int,
    stop: int,
    dt_s: float,
    stops: Optional[Callable[[], Dict]] = None,
) -> Optional[List[Tuple[str, int]]]:
    """Batch the platform's next predictable ``"run"`` ticks, if it may.

    The body of every platform's ``exact_batch`` once the platform has
    checked its own preconditions (powered on, no governor, ...).  It
    declines when the workload is finished or advertises no
    ``supports_exact_batch`` mode, or when the storage element is not
    a :class:`~repro.storage.capacitor.Capacitor` (a tiered store or a
    front end ticks exactly).  Otherwise it dispatches on the
    workload's mode:

    * ``"recurrence"`` — ``advance`` is the closed-form
      :class:`~repro.workloads.base.AbstractWorkload` time-credit
      recurrence, replayed by :func:`oracle_run` / :func:`storage_run`;
    * ``"isa"`` — ``advance`` executes real NV16 instructions
      (:class:`~repro.workloads.base.FunctionalWorkload`), driven tick
      by tick by :func:`isa_oracle_run` / :func:`isa_storage_run`;

    and on whether the platform has a storage element (the oracle has
    none).  ``stops`` returns the storage kernels' keyword stop rules
    (``stop_energy_j``, ``period_limit``, ``period_count``,
    ``stop_at_unit_boundary``); it is called once, at ``start``, the
    tick the simulator stamped the bus clock for, so a lazily planned
    threshold emits with the tick the exact engine would use.
    Unit-boundary stops cannot be pre-checked on a functional
    workload, so that combination declines.

    Returns:
        ``[("run", ticks)]``, or ``None`` when no tick can be batched
        (the simulator then ticks exactly until the next transition).
    """
    workload = platform.workload
    mode = getattr(workload, "supports_exact_batch", None)
    if not mode or workload.finished:
        return None
    storage = getattr(platform, "storage", None)
    if storage is None:
        run = oracle_run if mode == "recurrence" else isa_oracle_run
        ticks = run(platform, start, stop, dt_s)
    elif not isinstance(storage, Capacitor):
        return None
    else:
        rules = stops() if stops is not None else {}
        if mode == "recurrence":
            ticks = storage_run(platform, p_in_w, start, stop, dt_s, **rules)
        elif rules.get("stop_at_unit_boundary"):
            return None
        else:
            ticks = isa_storage_run(platform, p_in_w, start, stop, dt_s, **rules)
    return [("run", ticks)] if ticks else None


def oracle_run(platform, start: int, stop: int, dt_s: float) -> int:
    """Batch continuously-powered ticks (no storage element).

    Per scalar tick: ``advance(dt_s)``, ``ledger.execute`` +
    ``ledger.commit``, ``consumed_j += advance.energy_j``.  Stops
    before the workload's finishing tick.  Returns the ticks consumed.
    """
    workload = platform.workload
    tpi = workload._time_per_instr
    epi = workload._energy_per_instr
    credit = workload._time_credit_s
    retired = workload._retired
    total_units = workload.total_units
    limit = (
        total_units * workload.instructions_per_unit
        if total_units is not None
        else None
    )
    retired_before = retired
    dt = dt_s
    counts = []
    append = counts.append
    for _ in range(stop - start):
        # AbstractWorkload.advance(dt): the time-credit recurrence.
        budget = dt + credit
        count = int(budget / tpi)
        if limit is not None and retired + count >= limit:
            # Finishing tick: the scalar path executes it so
            # completion accounting stays on the simulator.
            break
        time_used = count * tpi
        rem = budget - time_used
        credit = rem if rem < tpi else tpi
        retired += count
        append(count)
    ticks = len(counts)
    if not ticks:
        return 0
    # consumed_j += count * epi, tick by tick: np.cumsum over a 1-D
    # float64 array adds left to right, so seeding element 0 with
    # the prior accumulator reproduces every partial sum bit for
    # bit (property-tested in tests/test_exactkernel.py).
    series = np.empty(ticks + 1, dtype=np.float64)
    series[0] = platform.consumed_j
    np.multiply(
        np.asarray(counts, dtype=np.float64), epi, out=series[1:]
    )
    platform.consumed_j = float(np.cumsum(series)[-1])
    workload._retired = retired
    workload._time_credit_s = credit
    # Each tick executes then commits: persistent absorbs any
    # volatile remainder plus every batched instruction (integer
    # math — order-free, applied in bulk).
    ledger = platform.ledger
    ledger.persistent += ledger.volatile + (retired - retired_before)
    ledger.volatile = 0
    ledger.commits += ticks
    return ticks


def storage_run(
    platform,
    p_in_w,
    start: int,
    stop: int,
    dt_s: float,
    stop_energy_j: Optional[float] = None,
    period_limit: Optional[int] = None,
    period_count: int = 0,
    stop_at_unit_boundary: bool = False,
) -> int:
    """Batch powered-on ticks of a storage-backed platform.

    Per scalar tick: stall-decayed exec budget, workload advance,
    ``ledger.execute``, storage step at the advance's load power,
    ``consumed_j += delivered``.  Stops before the first tick
    where any of these holds:

    * stored energy at tick start ``<= stop_energy_j`` (the NVP /
      Hibernus voltage trigger; ``None`` disables);
    * ``period_count`` + the tick's instruction count reaches
      ``period_limit`` (the Mementos periodic checkpoint;
      ``None`` disables);
    * the tick's instructions cross a workload unit boundary
      (wait-and-compute commits; ``stop_at_unit_boundary``);
    * the workload would finish;
    * the storage reports a deficit (power collapse).

    ``period_count`` is the platform's instructions-since-checkpoint
    counter at batch start; every batched instruction also lands in
    ``ledger.volatile``.  The loop is the native kernel's
    (:func:`repro.native.reference.storage_run` and its C twin).
    Returns the ticks consumed.
    """
    workload = platform.workload
    storage = platform.storage
    ledger = platform.ledger
    ipu = workload.instructions_per_unit
    total_units = workload.total_units
    ticks, state = native.kernels().storage_run(
        p_in_w, start, stop, dt_s, storage.chain(),
        (
            workload._time_per_instr,
            workload._energy_per_instr,
            None if total_units is None else total_units * ipu,
            ipu,
        ),
        (
            -math.inf if stop_energy_j is None else stop_energy_j,
            period_limit,
            period_count,
            stop_at_unit_boundary,
        ),
        (
            *storage.soa_state(),
            storage.total_delivered_j,
            platform.consumed_j,
            platform._stall_s,
            workload._time_credit_s,
            workload._retired,
            ledger.volatile,
        ),
    )
    if ticks:
        (energy, charged, leaked, wasted, storage.total_delivered_j,
         platform.consumed_j, platform._stall_s, workload._time_credit_s,
         workload._retired, ledger.volatile) = state
        storage.soa_restore(energy, charged, leaked, wasted)
    return ticks


def isa_oracle_run(platform, start: int, stop: int, dt_s: float) -> int:
    """Batch continuously-powered ticks of a functional workload.

    The per-tick recurrence is the workload's own ``advance``
    (which drives the NV16 block engine), so the tick is executed
    for real; the batching win is eliminating the simulator's
    per-tick overhead (report objects, state-machine dispatch) and
    bulk-applying the integer ledger commits.
    Unlike :func:`oracle_run`, the finishing tick *is* consumed
    in-batch (the caller observes ``platform.finished`` after the
    batch); the batch simply stops after it.
    """
    workload = platform.workload
    ledger = platform.ledger
    consumed = platform.consumed_j
    advance = workload.advance
    total = 0
    ticks = 0
    try:
        while ticks < stop - start:
            # Really execute the tick: advance drives the block
            # engine; counts/energy are the workload's own.
            adv = advance(dt_s)
            total += adv.instructions
            consumed += adv.energy_j
            ticks += 1
            if workload.finished:
                break
    finally:
        # Also reached when advance raises (stuck unit / execution
        # fault): committed ticks are written back so the platform
        # matches the scalar path's state at the raising tick.
        if ticks:
            platform.consumed_j = consumed
            ledger.persistent += ledger.volatile + total
            ledger.volatile = 0
            ledger.commits += ticks
    return ticks


def isa_storage_run(
    platform,
    p_in_w,
    start: int,
    stop: int,
    dt_s: float,
    stop_energy_j: Optional[float] = None,
    period_limit: Optional[int] = None,
    period_count: int = 0,
) -> int:
    """Batch powered-on storage-backed ticks of a functional workload.

    Same stop conditions as :func:`storage_run`, but the per-tick
    instruction count and energy come from really executing the
    workload's ``advance`` (block engine), so event ticks cannot be
    predicted from a closed form.  Instead each tick passes two
    *conservative* pre-checks before ``advance`` is called:

    * ``period_count`` plus a worst-case instruction bound
      (``int(budget / min_instruction_time * (1 + eps)) + 2``)
      stays below ``period_limit``;
    * post-charge/leak stored energy (computable exactly before the
      advance — it does not depend on the load) covers a worst-case
      demand bound (``(budget + max_instruction_time) * max_power``
      plus margins, where ``max_power`` is the worst
      energy-per-second over the instruction classes).

    A failed pre-check stops the batch and the tick re-executes on
    the scalar path from identical state — conservative stops only
    cost a fallback tick, never exactness.  The finishing tick is
    consumed in-batch, then the batch stops.  There is no
    ``stop_at_unit_boundary`` variant: unit-boundary semantics
    cannot be pre-checked conservatively, so wait-and-compute keeps
    functional workloads on the scalar path.  Returns the ticks
    consumed.
    """
    workload = platform.workload
    storage = platform.storage
    chain = storage.chain()
    energy, total_charged, total_leaked, total_wasted = storage.soa_state()
    total_delivered = storage.total_delivered_j

    min_time, max_time, max_power = workload.advance_bounds()
    advance = workload.advance
    stall = platform._stall_s
    consumed = platform.consumed_j
    ledger = platform.ledger
    total_instr = 0
    threshold = -math.inf if stop_energy_j is None else stop_energy_j

    dt = dt_s
    margin = 1.0 + _ISA_MARGIN
    index = start
    ticks = 0
    try:
        while index < stop:
            # Pre-tick trigger check, where the state machine tests it.
            if energy <= threshold:
                break
            exec_budget = dt - stall
            if exec_budget < 0.0:
                exec_budget = 0.0
            new_stall = stall - dt
            if new_stall < 0.0:
                new_stall = 0.0
            # Worst-case instruction count this tick could retire.
            worst_budget = exec_budget + workload._time_credit_s
            worst_count = int(worst_budget / min_time * margin) + 2
            if (
                period_limit is not None
                and period_count + worst_count >= period_limit
            ):
                break  # might trip the periodic checkpoint: go scalar
            # -- storage candidate: charge and leak do not depend on
            #    the load, so they run before the workload advances --
            new_energy, charged, leaked, wasted = chain_step(
                chain, energy, p_in_w[index], dt
            )
            # Conservative deficit pre-check: worst-case demand
            # (time-budget times the worst energy-per-second, the
            # last instruction overshooting by at most max_time,
            # plus float-rounding margins) must be coverable, else
            # the tick might collapse — leave it to the scalar path.
            worst_demand = (
                (worst_budget + max_time) * max_power * margin + 1e-15
            )
            if new_energy < worst_demand:
                break
            # -- commit the tick: really execute the instructions --
            adv = advance(exec_budget)
            demand = (adv.energy_j / dt) * dt
            delivered = demand  # guaranteed < new_energy above
            new_energy -= delivered
            energy = new_energy
            stall = new_stall
            total_instr += adv.instructions
            period_count += adv.instructions
            consumed += delivered
            total_charged += charged
            total_leaked += leaked
            total_wasted += wasted
            total_delivered += delivered
            index += 1
            ticks += 1
            if workload.finished:
                break  # finishing tick consumed in-batch
    finally:
        # Also reached when advance raises mid-batch: prior ticks'
        # storage/ledger effects are written back so the platform
        # matches the scalar path's state at the raising tick.
        if ticks:
            storage.soa_restore(
                energy, total_charged, total_leaked, total_wasted
            )
            storage.total_delivered_j = total_delivered
            platform._stall_s = stall
            platform.consumed_j = consumed
            ledger.volatile += total_instr
    return ticks
