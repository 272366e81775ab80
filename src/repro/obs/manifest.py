"""Run manifests: everything needed to reproduce a simulation.

A :class:`RunManifest` pins the knobs a result depends on — RNG seed,
configuration, code revision — plus wall-clock timing, so a trace or
metrics file found on disk months later can be traced back to the
exact run that produced it.  Benchmarks and the CLI write one next to
every machine-readable artifact.
"""

from __future__ import annotations

import json
import os
import platform as _platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, Optional


def git_revision(cwd: Optional[str] = None) -> str:
    """Best-effort ``git rev-parse HEAD`` (``"unknown"`` off-repo)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd or os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if proc.returncode != 0:
        return "unknown"
    return proc.stdout.strip()


@dataclass
class RunManifest:
    """Reproducibility record for one run.

    Attributes:
        command: what ran (CLI argv, benchmark id, ...).
        seed: RNG seed(s) the run used.
        config: free-form configuration dictionary.
        git_sha: code revision, ``"unknown"`` outside a checkout.
        python: interpreter version.
        platform: host platform string.
        started_unix: wall-clock start (seconds since epoch).
        duration_s: wall-clock duration, filled by :meth:`finish`.
        resources: process resource usage (CPU seconds, peak RSS KB),
            filled by :meth:`finish`; empty on manifests written before
            it existed.
        backend: the backend the simulator's sequential kernels ran
            on (``"native"`` or ``"python"``, see :mod:`repro.native`),
            filled by :meth:`finish`; ``None`` when no kernel ran.
        extra: anything else worth pinning.
    """

    command: str = ""
    seed: Optional[int] = None
    config: Dict = field(default_factory=dict)
    git_sha: str = "unknown"
    python: str = ""
    platform: str = ""
    started_unix: float = 0.0
    duration_s: Optional[float] = None
    resources: Dict = field(default_factory=dict)
    backend: Optional[str] = None
    extra: Dict = field(default_factory=dict)

    @classmethod
    def collect(
        cls,
        command: str = "",
        seed: Optional[int] = None,
        config: Optional[Dict] = None,
        **extra,
    ) -> "RunManifest":
        """Capture the current environment and start the clock."""
        return cls(
            command=command,
            seed=seed,
            config=dict(config) if config else {},
            git_sha=git_revision(),
            python=sys.version.split()[0],
            platform=_platform.platform(),
            started_unix=time.time(),
            extra=dict(extra),
        )

    def finish(self) -> "RunManifest":
        """Stamp wall-clock duration, resource usage and the kernels'
        backend; returns self."""
        from repro import native
        from repro.obs.resources import sample_resources

        self.duration_s = time.time() - self.started_unix
        self.resources = sample_resources().to_dict()
        self.backend = native.backend()
        return self

    def to_dict(self) -> Dict:
        """JSON-serialisable form."""
        return {
            "command": self.command,
            "seed": self.seed,
            "config": self.config,
            "git_sha": self.git_sha,
            "python": self.python,
            "platform": self.platform,
            "started_unix": self.started_unix,
            "duration_s": self.duration_s,
            "resources": self.resources,
            "backend": self.backend,
            "extra": self.extra,
        }

    def write(self, path: str) -> None:
        """Write the manifest as pretty JSON."""
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def read(cls, path: str) -> "RunManifest":
        """Load a manifest written by :meth:`write`.

        Unknown keys are ignored so manifests written by a newer code
        version still load (forward compatibility).
        """
        with open(path) as handle:
            data = json.load(handle)
        known = {
            key: value for key, value in data.items()
            if key in cls.__dataclass_fields__
        }
        return cls(**known)
