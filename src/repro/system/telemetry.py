"""Per-tick telemetry recording for simulations.

A :class:`Telemetry` object captures the time series behind the
summary numbers — platform state, stored energy, instructions per
tick — optionally decimated.  This is what you plot to reproduce the
"timing-based behaviour" strips NVP papers show.

Telemetry is an ordinary subscriber of the observability event bus:
:class:`~repro.system.simulator.SystemSimulator` publishes one
``sim.tick`` event per tick and the recorder listens
(:meth:`Telemetry.subscribe_to`).  Passing ``telemetry=`` to the
simulator still works and wires the subscription up internally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

#: Compact state encoding for the recorded series.  ``charge`` (a
#: volatile baseline trickle-charging its reservoir) is distinct from
#: ``off`` (dead) so duty-cycle strips can tell the two apart.
STATE_CODES: Dict[str, int] = {
    "off": 0,
    "restore": 1,
    "run": 2,
    "backup": 3,
    "done": 4,
    "charge": 5,
}


@dataclass
class Telemetry:
    """Records one sample every ``decimation`` ticks.

    Attributes:
        decimation: keep every N-th tick (1 = everything).
    """

    decimation: int = 1
    times_s: List[float] = field(default_factory=list)
    states: List[int] = field(default_factory=list)
    energies_j: List[float] = field(default_factory=list)
    instructions: List[int] = field(default_factory=list)
    _tick: int = 0

    def __post_init__(self) -> None:
        if self.decimation < 1:
            raise ValueError("decimation must be >= 1")

    def subscribe_to(self, bus) -> "Telemetry":
        """Listen for ``sim.tick`` events on a bus; returns self."""
        from repro.obs import events as ev

        bus.subscribe(self.on_event, names=(ev.TICK,))
        return self

    def on_event(self, event) -> None:
        """Bus subscriber: capture one ``sim.tick`` event."""
        data = event.data
        self._sample(
            event.t_s,
            data.get("state", "?"),
            data.get("energy_j", 0.0),
            data.get("instructions", 0),
        )

    def _sample(
        self, time_s: float, state: str, energy_j: float, instructions: int
    ) -> None:
        self._tick += 1
        if (self._tick - 1) % self.decimation != 0:
            return
        self.times_s.append(time_s)
        self.states.append(STATE_CODES.get(state, -1))
        self.energies_j.append(energy_j)
        self.instructions.append(instructions)

    # -- analysis helpers ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.times_s)

    def state_series(self) -> np.ndarray:
        """Recorded state codes as an array."""
        return np.asarray(self.states, dtype=int)

    def energy_series(self) -> np.ndarray:
        """Recorded stored energy as an array (joules)."""
        return np.asarray(self.energies_j, dtype=float)

    def duty_cycle(self) -> float:
        """Fraction of recorded ticks spent executing."""
        if not self.states:
            return 0.0
        states = self.state_series()
        return float(np.mean(states == STATE_CODES["run"]))

    def transitions(self) -> int:
        """Number of state changes in the recorded series."""
        states = self.state_series()
        if len(states) < 2:
            return 0
        return int(np.sum(states[1:] != states[:-1]))

    def window(self, start: int, count: int) -> "Telemetry":
        """A sliced copy covering ``count`` samples from ``start``.

        Useful for zooming a strip into one region of interest.

        Raises:
            ValueError: for an empty or out-of-range window.
        """
        if count < 1:
            raise ValueError("window must contain at least one sample")
        if not 0 <= start < len(self.times_s):
            raise ValueError("window start outside the recording")
        stop = min(len(self.times_s), start + count)
        sliced = Telemetry(decimation=self.decimation)
        sliced.times_s = self.times_s[start:stop]
        sliced.states = self.states[start:stop]
        sliced.energies_j = self.energies_j[start:stop]
        sliced.instructions = self.instructions[start:stop]
        return sliced

    def first_index(self, state: str) -> int:
        """Index of the first sample in a named state (-1 if absent)."""
        code = STATE_CODES.get(state, -2)
        for index, value in enumerate(self.states):
            if value == code:
                return index
        return -1

    def render_strip(self, width: int = 72) -> str:
        """ASCII timing strip of the recorded behaviour.

        Renders the state sequence (``.`` off, ``~`` charging, ``R``
        restore, ``#`` run, ``B`` backup, ``=`` done) and a
        stored-energy sparkline, both resampled to ``width`` columns —
        the textual equivalent of the timing-behaviour strips NVP
        papers plot.
        """
        if width < 2:
            raise ValueError("width must be at least 2")
        if not self.states:
            return "(no telemetry recorded)"
        glyphs = {0: ".", 1: "R", 2: "#", 3: "B", 4: "=", 5: "~", -1: "?"}
        states = self.state_series()
        energy = self.energy_series()
        columns = np.array_split(np.arange(len(states)), min(width, len(states)))
        state_line = []
        energy_line = []
        e_max = float(energy.max()) if energy.max() > 0 else 1.0
        bars = " _.-=^*#"
        for chunk in columns:
            segment = states[chunk]
            # Majority vote, but in fine-grained strips (small windows)
            # elevate single-tick backup/restore events that a majority
            # would erase.  Coarse strips stay majority-only so dense
            # backup activity doesn't paint the whole line.
            fine = len(segment) <= 100
            if fine and (segment == 3).any():
                code = 3
            elif fine and (segment == 1).any():
                code = 1
            else:
                code = int(np.bincount(segment + 1).argmax()) - 1
            state_line.append(glyphs.get(code, "?"))
            level = float(energy[chunk].mean()) / e_max
            if level <= 0.02:
                bar_index = 0
            else:
                bar_index = max(1, min(len(bars) - 1, int(level * (len(bars) - 1))))
            energy_line.append(bars[bar_index])
        duration = self.times_s[-1] - self.times_s[0] if len(self.times_s) > 1 else 0.0
        return (
            f"state : {''.join(state_line)}\n"
            f"energy: {''.join(energy_line)}\n"
            f"        0s{' ' * (len(state_line) - 6)}{duration:.3g}s\n"
            "        (. off, ~ charge, R restore, # run, B backup, = done)"
        )
