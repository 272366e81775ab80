"""Workload abstraction shared by all platforms.

Two execution modes implement the same interface:

* :class:`FunctionalWorkload` runs a real NV16 binary through the
  block-compiled engine or, bit for bit the same, the instruction
  interpreter (used when output values/quality matter);
* :class:`AbstractWorkload` replays an instruction-mix descriptor
  (used for long parameter sweeps where only instruction counts and
  energies matter — this mirrors how the published methodology couples
  a system-level simulator to a slower functional/RTL simulator).

Both are *unit-structured*: work is divided into units ("frames"), the
natural commit granularity for wait-and-compute baselines and the
restart granularity after data loss.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.isa import blockengine
from repro.isa.cpu import CPU
from repro.isa.energy import DEFAULT_MIX, EnergyModel, InstrClass
from repro.isa.memory import MemoryMap


@dataclass(frozen=True)
class AdvanceResult:
    """Outcome of advancing a workload within a tick.

    Attributes:
        instructions: instructions retired.
        energy_j: energy consumed.
        time_s: execution time consumed.
    """

    instructions: int
    energy_j: float
    time_s: float


class Workload(abc.ABC):
    """A resumable, snapshot-able computation."""

    @property
    def supports_exact_batch(self) -> Optional[str]:
        """Batchable-advance capability, or ``None``.

        The batched exact kernel (:mod:`repro.system.exactkernel`)
        can consume runs of predictable ticks only when it knows what
        ``advance`` will do.  Workloads advertise that through this
        capability protocol:

        * ``"recurrence"`` — ``advance`` is the closed-form
          time-credit recurrence of :class:`AbstractWorkload`; the
          kernel replays it in a fused loop without calling the
          workload at all.
        * ``"isa"`` — ``advance`` executes a real NV16 program with
          :class:`FunctionalWorkload`'s budget envelope; the kernel
          drives ``advance`` per tick (through the workload's
          executor) and bounds its behaviour with
          :meth:`FunctionalWorkload.advance_bounds`.
        * ``None`` — unbatchable; every tick runs on the scalar path.

        Subclasses that override ``advance`` (or ``finished``) lose
        the capability automatically — the base implementations check
        that the methods are unoverridden, so a subclass never gets
        batched against semantics it changed.
        """
        return None

    @property
    @abc.abstractmethod
    def finished(self) -> bool:
        """True when all work units are complete."""

    @property
    @abc.abstractmethod
    def progress_instructions(self) -> int:
        """Instructions retired since construction (monotonic)."""

    @property
    @abc.abstractmethod
    def units_completed(self) -> int:
        """Completed work units (frames)."""

    @property
    @abc.abstractmethod
    def unit_instructions(self) -> int:
        """Approximate instructions per work unit (for planning)."""

    @abc.abstractmethod
    def advance(self, time_budget_s: float) -> AdvanceResult:
        """Execute for up to ``time_budget_s`` of core time."""

    @abc.abstractmethod
    def snapshot(self) -> Any:
        """Capture resumable state (the payload of a backup)."""

    @abc.abstractmethod
    def restore(self, snap: Any) -> None:
        """Resume from a snapshot."""

    @abc.abstractmethod
    def restart_unit(self) -> None:
        """Drop volatile progress back to the start of the current unit."""

    def clear_volatile(self) -> None:
        """Model power loss: volatile (RAM) state is wiped.

        Registers are handled separately by the platform (backed up or
        lost); nonvolatile data memory persists.  The default is a
        no-op (abstract workloads carry no memory state).
        """

    def snapshot_words(self, snap: Any) -> list:
        """Data-register words of a snapshot, as 16-bit ints.

        These are the words an approximate (retention-relaxed) backup
        may corrupt; control state (PC, pipeline) is always stored
        precisely.  Abstract workloads have none.
        """
        del snap
        return []

    def apply_snapshot_words(self, snap: Any, words: list) -> Any:
        """Return a copy of ``snap`` with its data-register words replaced."""
        del words
        return snap

    @abc.abstractmethod
    def mean_instruction_energy_j(self) -> float:
        """Average energy per instruction (for threshold planning)."""

    @abc.abstractmethod
    def mean_instruction_time_s(self) -> float:
        """Average time per instruction (for threshold planning)."""

    def run_power_w(self) -> float:
        """Average active-execution power."""
        return self.mean_instruction_energy_j() / self.mean_instruction_time_s()


class AbstractWorkload(Workload):
    """Instruction-mix workload for fast system-level sweeps.

    Args:
        total_units: number of work units; ``None`` for unbounded.
        instructions_per_unit: instructions per unit.
        energy_model: charging model (clock frequency matters); fixed
            at construction.
        mix: instruction-class mix; defaults to the generic embedded mix.
    """

    def __init__(
        self,
        total_units: Optional[int] = None,
        instructions_per_unit: int = 10_000,
        energy_model: Optional[EnergyModel] = None,
        mix: Optional[Dict[InstrClass, float]] = None,
    ) -> None:
        if instructions_per_unit <= 0:
            raise ValueError("instructions_per_unit must be positive")
        if total_units is not None and total_units <= 0:
            raise ValueError("total_units must be positive or None")
        self.total_units = total_units
        self.instructions_per_unit = instructions_per_unit
        self._energy_model = (
            energy_model if energy_model is not None else EnergyModel()
        )
        self.mix = dict(mix) if mix is not None else dict(DEFAULT_MIX)
        total_fraction = sum(self.mix.values())
        if total_fraction <= 0:
            raise ValueError("instruction mix must have positive total weight")
        self._energy_per_instr = sum(
            frac / total_fraction * self._energy_model.instruction_energy(cls)
            for cls, frac in self.mix.items()
        )
        self._time_per_instr = sum(
            frac / total_fraction * self._energy_model.instruction_time(cls)
            for cls, frac in self.mix.items()
        )
        self._retired = 0
        self._time_credit_s = 0.0

    @property
    def energy_model(self) -> EnergyModel:
        """The charging model; read-only, since the per-instruction
        time and energy are derived from it at construction."""
        return self._energy_model

    # -- Workload interface ------------------------------------------------

    @property
    def supports_exact_batch(self) -> Optional[str]:
        """``"recurrence"`` unless ``advance``/``finished`` is overridden.

        A subclass that overrides neither inherits the exact
        time-credit recurrence the batched kernel replicates, so it
        keeps the capability (and the speedup); overriding either
        drops it back to scalar ticking.
        """
        cls = type(self)
        if (
            cls.advance is AbstractWorkload.advance
            and cls.finished is AbstractWorkload.finished
        ):
            return "recurrence"
        return None

    @property
    def finished(self) -> bool:
        if self.total_units is None:
            return False
        return self._retired >= self.total_units * self.instructions_per_unit

    @property
    def progress_instructions(self) -> int:
        return self._retired

    @property
    def units_completed(self) -> int:
        return self._retired // self.instructions_per_unit

    @property
    def unit_instructions(self) -> int:
        return self.instructions_per_unit

    def advance(self, time_budget_s: float) -> AdvanceResult:
        if time_budget_s < 0:
            raise ValueError("time budget cannot be negative")
        if self.finished:
            return AdvanceResult(0, 0.0, 0.0)
        budget = time_budget_s + self._time_credit_s
        count = int(budget / self._time_per_instr)
        if self.total_units is not None:
            remaining = self.total_units * self.instructions_per_unit - self._retired
            count = min(count, remaining)
        time_used = count * self._time_per_instr
        self._time_credit_s = min(budget - time_used, self._time_per_instr)
        self._retired += count
        return AdvanceResult(count, count * self._energy_per_instr, time_used)

    def snapshot(self) -> int:
        return self._retired

    def restore(self, snap: Any) -> None:
        if not isinstance(snap, int) or snap < 0:
            raise ValueError("abstract workload snapshot must be a non-negative int")
        self._retired = snap

    def restart_unit(self) -> None:
        self._retired = self.units_completed * self.instructions_per_unit

    def mean_instruction_energy_j(self) -> float:
        return self._energy_per_instr

    def mean_instruction_time_s(self) -> float:
        return self._time_per_instr

    def snapshot_words(self, snap: Any) -> list:
        """Pseudo register-file contents derived from the snapshot.

        The abstract workload has no real registers, but the register
        file physically exists and its backup must be costed (and may
        be retention-relaxed).  Deterministic pseudo-contents keyed on
        progress give compare-and-write strategies realistic churn.
        """
        state = (int(snap) * 2654435761) & 0xFFFFFFFF
        words = []
        for _ in range(8):
            state = (1103515245 * state + 12345) & 0x7FFFFFFF
            words.append(state & 0xFFFF)
        words[0] = 0  # r0 is hardwired zero
        return words

    def apply_snapshot_words(self, snap: Any, words: list) -> Any:
        """Bit flips in pseudo registers do not alter abstract progress."""
        del words
        return snap


#: The executor of every workload built with ``block_engine=False``
#: (it keeps no state).
_INTERPRETER = blockengine.Interpreter()


class FunctionalWorkload(Workload):
    """Runs a real NV16 program, one unit per program run.

    The same program is executed ``total_units`` times (one "frame"
    per run), with the data image reloaded between frames.  Programs
    should keep their working data in the NVM region (``0x8000+``) —
    volatile RAM contents are *not* part of an NVP hardware backup.

    Args:
        program: an assembled :class:`~repro.isa.assembler.Program`.
        total_units: number of frames to process.
        energy_model: cycle/energy charging model; fixed at
            construction.
        max_instructions_per_unit: safety valve against runaway
            programs.
        block_engine: execute through the block-compiled engine
            (:class:`~repro.isa.blockengine.BlockEngine`, compiled on
            first use); ``False`` steps the NV16 interpreter
            (:class:`~repro.isa.blockengine.Interpreter`), the
            bit-identical reference the engine is held to.
    """

    def __init__(
        self,
        program,
        total_units: int = 1,
        energy_model: Optional[EnergyModel] = None,
        max_instructions_per_unit: int = 5_000_000,
        block_engine: bool = True,
    ) -> None:
        if total_units <= 0:
            raise ValueError("total_units must be positive")
        self.program = program
        self.total_units = total_units
        self._energy_model = (
            energy_model if energy_model is not None else EnergyModel()
        )
        self.max_instructions_per_unit = max_instructions_per_unit
        self.block_engine = block_engine
        self._units_done = 0
        self._retired = 0
        self._unit_retired = 0
        self._time_credit_s = 0.0
        self.cpu = self._fresh_cpu()
        # Planning estimates, refined after the first completed unit.
        self._estimated_unit_instructions: Optional[int] = None
        # Lazily compiled block engine (shared by every per-unit CPU;
        # its closures act only on the (regs, memory) passed per call).
        self._block_engine = None
        self._advance_bounds: Optional[tuple] = None

    @property
    def energy_model(self) -> EnergyModel:
        """The charging model; read-only, since the CPU, the compiled
        block engine and :meth:`advance_bounds` all hold it."""
        return self._energy_model

    def _fresh_cpu(self) -> CPU:
        cpu = CPU(self.program.instructions, MemoryMap(), self._energy_model)
        cpu.memory.load_image(self.program.data_image)
        return cpu

    def _engine(self):
        """The executor ``advance`` drives: the block engine, compiled
        on first use, or the interpreter."""
        if not self.block_engine:
            return _INTERPRETER
        engine = self._block_engine
        if engine is None:
            engine = blockengine.BlockEngine(
                self.program.instructions, self._energy_model
            )
            self._block_engine = engine
        return engine

    # -- Workload interface ------------------------------------------------

    @property
    def supports_exact_batch(self) -> Optional[str]:
        """``"isa"`` unless ``advance``/``finished`` is overridden."""
        cls = type(self)
        if (
            cls.advance is FunctionalWorkload.advance
            and cls.finished is FunctionalWorkload.finished
        ):
            return "isa"
        return None

    @property
    def finished(self) -> bool:
        return self._units_done >= self.total_units

    @property
    def progress_instructions(self) -> int:
        return self._retired

    @property
    def units_completed(self) -> int:
        return self._units_done

    @property
    def unit_instructions(self) -> int:
        if self._estimated_unit_instructions is not None:
            return self._estimated_unit_instructions
        # Pre-completion estimate: instructions retired so far in the
        # unit, or a generic default.
        return max(self._unit_retired, 10_000)

    @property
    def outputs(self):
        """MMIO output stream produced so far (current CPU instance)."""
        return self.cpu.memory.output

    def advance(self, time_budget_s: float) -> AdvanceResult:
        if time_budget_s < 0:
            raise ValueError("time budget cannot be negative")
        budget = time_budget_s + self._time_credit_s
        min_step_s = self._energy_model.cycle_time_s
        if budget < min_step_s or self.finished:
            self._time_credit_s = budget if not self.finished else 0.0
            return AdvanceResult(0, 0.0, 0.0)
        executed = 0
        energy = 0.0
        time_used = 0.0
        engine = self._engine()
        while not self.finished and time_used < budget:
            if self.cpu.state.halted:
                self._complete_unit()
                continue
            segment = engine.run(
                self.cpu, budget, time_used, energy,
                self.max_instructions_per_unit - self._unit_retired,
            )
            executed += segment.executed
            energy = segment.energy_j
            time_used = segment.time_used_s
            self._unit_retired += segment.executed
            if segment.fault is not None:
                raise segment.fault
            if segment.capped:
                raise RuntimeError(
                    "unit exceeded max_instructions_per_unit; "
                    "program is likely stuck"
                )
            if self.cpu.state.halted:
                self._complete_unit()
        self._retired += executed
        self._time_credit_s = max(0.0, budget - time_used)
        return AdvanceResult(executed, energy, min(time_used, budget))

    def _complete_unit(self) -> None:
        self._estimated_unit_instructions = max(self._unit_retired, 1)
        self._units_done += 1
        self._unit_retired = 0
        if not self.finished:
            outputs = self.cpu.memory.output
            self.cpu = self._fresh_cpu()
            self.cpu.memory.output.extend(outputs)

    def snapshot(self) -> Any:
        return (
            self.cpu.snapshot(),
            self._units_done,
            self._unit_retired,
            list(self.cpu.memory.output),
        )

    def restore(self, snap: Any) -> None:
        state, units_done, unit_retired, outputs = snap
        self.cpu.restore(state)
        self._units_done = units_done
        self._unit_retired = unit_retired
        self.cpu.memory.output[:] = outputs

    def restart_unit(self) -> None:
        outputs = list(self.cpu.memory.output)
        self.cpu = self._fresh_cpu()
        self.cpu.memory.output.extend(outputs)
        self._unit_retired = 0

    def clear_volatile(self) -> None:
        """Wipe the volatile RAM segment (power failed).

        NV16 kernels keep their working data in the NVM region, so a
        correctly written kernel survives this; a kernel that stashes
        state in RAM will produce wrong results after an unbacked-up
        power failure — exactly the intermittent-consistency hazard the
        tutorial calls out.
        """
        self.cpu.memory.clear_volatile()

    def snapshot_words(self, snap: Any) -> list:
        """The eight data-register words of the snapshotted CPU state."""
        state = snap[0]
        return list(state.regs)

    def apply_snapshot_words(self, snap: Any, words: list) -> Any:
        """Replace the snapshot's register words (r0 stays hardwired 0)."""
        state, units_done, unit_retired, outputs = snap
        if len(words) != len(state.regs):
            raise ValueError("register word count mismatch")
        new_state = state.copy()
        new_state.regs = [words[0] & 0xFFFF] + [w & 0xFFFF for w in words[1:]]
        new_state.regs[0] = 0
        return (new_state, units_done, unit_retired, outputs)

    def mean_instruction_energy_j(self) -> float:
        if self.cpu.instructions_retired > 0:
            return self.cpu.energy_j / self.cpu.instructions_retired
        # Fall back to the generic mix estimate before any execution.
        model = self.energy_model
        return sum(
            frac * model.instruction_energy(cls) for cls, frac in DEFAULT_MIX.items()
        )

    def mean_instruction_time_s(self) -> float:
        if self.cpu.instructions_retired > 0:
            return (
                self.cpu.cycles * self.energy_model.cycle_time_s
            ) / self.cpu.instructions_retired
        model = self.energy_model
        return sum(
            frac * model.instruction_time(cls) for cls, frac in DEFAULT_MIX.items()
        )

    def advance_bounds(self) -> tuple:
        """Worst-case ``(max_time, max_power)`` per instruction.

        The batched exact kernel uses these to bound what one
        ``advance(budget)`` call can do without executing it: no tick
        can draw more than ``(budget + max_time) * max_power`` joules
        (every instruction's energy is at most its execution time times
        the worst energy-per-second over the nine instruction classes,
        and the last instruction may overshoot the budget by at most
        ``max_time``).  Both are fixed properties of the energy model,
        so they are computed once.
        """
        bounds = self._advance_bounds
        if bounds is None:
            model = self._energy_model
            times = {cls: model.instruction_time(cls) for cls in InstrClass}
            bounds = (
                max(times.values()),
                max(
                    model.instruction_energy(cls) / times[cls]
                    for cls in InstrClass
                ),
            )
            self._advance_bounds = bounds
        return bounds
