"""The persistent run ledger: what ran, when, at what cost.

Once a sweep finishes, the bench metrics in ``history.jsonl`` and the
per-run manifests say what the *results* were — but nothing durable
records the invocations themselves: which specs ran, how long they
took, how much CPU they burned, and how much came from the cache.
The :class:`RunLedger` is that record: an append-only JSONL file
(default ``.repro-cache/ledger.jsonl``) to which every ``simulate`` /
``sweep`` / ``compare`` / bench invocation appends one schema-versioned
record.  ``repro runs list/show/diff/gc`` queries it.

Design points:

* **Crash-safe appends** — each record is serialised to one line and
  written with a single ``O_APPEND`` write, so concurrent writers
  interleave whole lines and a crash mid-write leaves at most one torn
  trailing line, which readers skip.
* **Disable switch** — ``REPRO_LEDGER_DIR=""`` turns recording off
  entirely (:func:`default_ledger_path` returns ``None``), restoring
  pre-ledger behavior byte-for-byte; a non-empty value relocates the
  ledger.  Without the variable the ledger co-locates with the result
  cache (it honours ``REPRO_CACHE_DIR``), because :meth:`RunLedger.gc`
  prunes records against that cache's entries.
* **Schema-versioned records** — every record carries
  ``schema=SCHEMA_VERSION`` so future layouts can coexist in one file.

Record schema (version 1)::

    {
      "schema": 1,
      "id": "<12-hex unique id>",
      "command": "sweep" | "simulate" | "compare" | "bench:<name>" | ...,
      "experiment": "<spec/experiment name>" | null,
      "spec_hash": "<16-hex fingerprint of the expanded config hashes>",
      "outcome": "ok" | "error" | "timeout" | "interrupted",
      "started_unix": float, "ended_unix": float, "wall_s": float,
      "code_version": "<repro.__version__>", "git_sha": "...", "pid": int,
      "points":    {"total", "executed", "cached", "failed", "interrupted"},
      "cache":     {"hits", "misses", "hit_rate"},
      "resources": {"cpu_user_s", "cpu_system_s", "cpu_s",
                    "peak_rss_kb", "workers"},
      "runs": [{"key", "label", "status", "wall_s", "cpu_s",
                "peak_rss_kb", "pid", "error"?}, ...],
      "error": "<first failure>"?          # error/timeout outcomes
    }

``points``/``cache``/``resources``/``runs`` are optional — a plain
``simulate`` records only wall time, resources and outcome.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import uuid
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.export import rewrite_jsonl

#: Environment variable relocating (non-empty) or disabling (``""``)
#: the ledger.
LEDGER_DIR_ENV = "REPRO_LEDGER_DIR"

#: Ledger file name inside the ledger directory.
LEDGER_BASENAME = "ledger.jsonl"

#: Record layout version stamped on every record.
SCHEMA_VERSION = 1

#: Invocation outcomes.
OUTCOME_OK = "ok"
OUTCOME_ERROR = "error"
OUTCOME_TIMEOUT = "timeout"
OUTCOME_INTERRUPTED = "interrupted"
OUTCOMES: Tuple[str, ...] = (
    OUTCOME_OK, OUTCOME_ERROR, OUTCOME_TIMEOUT, OUTCOME_INTERRUPTED,
)


def default_ledger_dir() -> Optional[str]:
    """The ledger directory, or ``None`` when recording is disabled."""
    # Imported here, as in every function that needs the cache:
    # ``repro.exp`` imports ``repro.obs`` (and so this module) at load.
    from repro.exp.cache import default_cache_dir

    value = os.environ.get(LEDGER_DIR_ENV)
    if value is not None:
        return value or None
    return default_cache_dir()


def default_ledger_path() -> Optional[str]:
    """``<ledger dir>/ledger.jsonl``, or ``None`` when disabled."""
    directory = default_ledger_dir()
    if not directory:
        return None
    return os.path.join(directory, LEDGER_BASENAME)


def spec_fingerprint(keys: Sequence[str]) -> str:
    """A 16-hex fingerprint of a sweep's expanded config hashes.

    Order-sensitive on purpose: the same points in a different sweep
    order are a different invocation shape.
    """
    digest = hashlib.sha256("\n".join(keys).encode()).hexdigest()
    return digest[:16]


def make_record(
    command: str,
    outcome: str,
    started_unix: float,
    ended_unix: float,
    experiment: Optional[str] = None,
    spec_hash: Optional[str] = None,
    points: Optional[Dict] = None,
    cache: Optional[Dict] = None,
    resources: Optional[Dict] = None,
    runs: Optional[List[Dict]] = None,
    error: Optional[str] = None,
    n_devices: Optional[int] = None,
    telemetry: Optional[Dict] = None,
    backend: Optional[str] = None,
) -> Dict:
    """A schema-stamped ledger record (not yet appended).

    ``n_devices`` distinguishes fleet invocations (N devices advanced
    by one kernel) from single-device runs in ``repro runs list`` /
    ``diff``; single-device commands stamp ``1``.  ``telemetry`` is a
    fleet-telemetry summary (snapshot path, cadence, sample count) so
    ``repro runs show`` can point at a run's dashboard data.
    ``backend`` names the backend the simulator's sequential kernels
    ran on (:mod:`repro.native`); it is left out when no kernel ran.

    Raises:
        ValueError: for an unknown ``outcome``.
    """
    if outcome not in OUTCOMES:
        raise ValueError(
            f"unknown outcome {outcome!r}; known: {OUTCOMES}"
        )
    from repro.exp.cache import code_version
    from repro.obs.manifest import git_revision

    record: Dict = {
        "schema": SCHEMA_VERSION,
        "id": uuid.uuid4().hex[:12],
        "command": command,
        "experiment": experiment,
        "spec_hash": spec_hash,
        "outcome": outcome,
        "started_unix": float(started_unix),
        "ended_unix": float(ended_unix),
        "wall_s": max(0.0, float(ended_unix) - float(started_unix)),
        "code_version": code_version(),
        "git_sha": git_revision(),
        "pid": os.getpid(),
    }
    if points is not None:
        record["points"] = dict(points)
    if cache is not None:
        record["cache"] = dict(cache)
    if resources is not None:
        record["resources"] = dict(resources)
    if runs is not None:
        record["runs"] = [dict(run) for run in runs]
    if error:
        record["error"] = error
    if n_devices is not None:
        record["n_devices"] = int(n_devices)
    if telemetry is not None:
        record["telemetry"] = dict(telemetry)
    if backend is not None:
        record["backend"] = backend
    return record


def sweep_record(
    command: str,
    experiment: Optional[str],
    outcome,
    started_unix: float,
    ended_unix: float,
    forced_outcome: Optional[str] = None,
    cache_attached: bool = True,
    n_devices: Optional[int] = None,
    telemetry: Optional[Dict] = None,
) -> Dict:
    """Fold a :class:`~repro.exp.runner.SweepOutcome` into a record.

    The invocation outcome is derived from the per-run statuses —
    ``interrupted`` beats ``timeout`` beats ``error`` beats ``ok`` —
    unless ``forced_outcome`` overrides it.  Per-run cache hit/miss
    attribution and resource usage come straight off the records.
    ``cache_attached=False`` marks a run whose results were never
    cached (e.g. ``repro compare``) so :meth:`RunLedger.gc` keeps its
    record instead of mistaking the absent keys for an evicted cache.
    """
    statuses = [record.status for record in outcome.records]
    failures = [record for record in outcome.records
                if record.status == "failed"]
    if forced_outcome is not None:
        verdict = forced_outcome
    elif "interrupted" in statuses:
        verdict = OUTCOME_INTERRUPTED
    elif failures and all(
        (record.error or "").startswith("timed out") for record in failures
    ):
        verdict = OUTCOME_TIMEOUT
    elif failures:
        verdict = OUTCOME_ERROR
    else:
        verdict = OUTCOME_OK
    total = len(outcome.records)
    hits = outcome.cached
    misses = total - hits
    runs: List[Dict] = []
    for record in outcome.records:
        entry: Dict = {
            "key": record.key,
            "label": record.label,
            "status": record.status,
            "wall_s": record.wall_s,
            "cpu_s": record.cpu_s,
            "peak_rss_kb": record.peak_rss_kb,
            "pid": record.pid,
        }
        if record.error:
            entry["error"] = record.error
        runs.append(entry)
    record = make_record(
        command,
        verdict,
        started_unix,
        ended_unix,
        experiment=experiment,
        spec_hash=spec_fingerprint([r.key for r in outcome.records]),
        points={
            "total": total,
            "executed": outcome.executed,
            "cached": outcome.cached,
            "failed": outcome.failed,
            "interrupted": outcome.interrupted,
        },
        cache={
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / total if total else 0.0,
        },
        resources=outcome.resource_usage(),
        runs=runs,
        error=failures[0].error if failures else None,
        n_devices=n_devices,
        telemetry=telemetry,
        backend=outcome.backend,
    )
    if not cache_attached:
        record["uncached"] = True
    return record


class RunLedger:
    """Append-only JSONL store of invocation records.

    Args:
        path: ledger file path.  Use :meth:`from_env` to honour
            ``REPRO_LEDGER_DIR`` (including its disable switch).
    """

    def __init__(self, path: str) -> None:
        if not path:
            raise ValueError("ledger path required (use from_env())")
        self.path = path

    @classmethod
    def from_env(cls) -> Optional["RunLedger"]:
        """The configured ledger, or ``None`` when disabled."""
        path = default_ledger_path()
        return cls(path) if path else None

    # -- writing -----------------------------------------------------------

    def append(self, record: Dict) -> Dict:
        """Append one record crash-safely; returns it (with its id).

        The record must come from :func:`make_record` /
        :func:`sweep_record` (it is written as-is).  The line is
        serialised first and written with a single ``O_APPEND`` write,
        so concurrent appenders never interleave within a line.
        """
        line = json.dumps(record, sort_keys=True) + "\n"
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        fd = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(fd, line.encode())
        finally:
            os.close(fd)
        return record

    def rewrite(self, records: Sequence[Dict]) -> None:
        """Atomically replace the ledger's contents (gc backend)."""
        rewrite_jsonl(self.path, records)

    # -- reading -----------------------------------------------------------

    def records(
        self,
        command: Optional[str] = None,
        experiment: Optional[str] = None,
        outcome: Optional[str] = None,
        spec: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
        devices_min: Optional[int] = None,
    ) -> List[Dict]:
        """Every matching record, oldest first.

        A missing file reads as empty; torn or corrupt lines are
        skipped.  ``spec`` matches a ``spec_hash`` prefix; ``since`` /
        ``until`` bound ``started_unix`` inclusively.  ``devices_min``
        keeps records whose ``n_devices`` is at least that large —
        the "find my fleet runs" filter (records without the stamp
        count as single-device).
        """
        out: List[Dict] = []
        try:
            handle = open(self.path)
        except OSError:
            return out
        with handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if not isinstance(record, dict) or "command" not in record:
                    continue
                if command is not None and record.get("command") != command:
                    continue
                if experiment is not None and (
                    record.get("experiment") != experiment
                ):
                    continue
                if outcome is not None and record.get("outcome") != outcome:
                    continue
                if spec is not None and not str(
                    record.get("spec_hash") or ""
                ).startswith(spec):
                    continue
                started = float(record.get("started_unix") or 0.0)
                if since is not None and started < since:
                    continue
                if until is not None and started > until:
                    continue
                if devices_min is not None and int(
                    record.get("n_devices") or 1
                ) < devices_min:
                    continue
                out.append(record)
        return out

    def __len__(self) -> int:
        return len(self.records())

    def find(self, id_prefix: str) -> Dict:
        """The unique record whose id starts with ``id_prefix``.

        Raises:
            KeyError: no record matches.
            ValueError: the prefix is ambiguous.
        """
        if not id_prefix:
            raise KeyError("empty ledger id")
        matches = [
            record
            for record in self.records()
            if str(record.get("id", "")).startswith(id_prefix)
        ]
        if not matches:
            raise KeyError(f"no ledger record matches {id_prefix!r}")
        distinct = {record["id"] for record in matches}
        if len(distinct) > 1:
            raise ValueError(
                f"ledger id {id_prefix!r} is ambiguous: "
                f"{sorted(distinct)}"
            )
        return matches[-1]

    # -- garbage collection ------------------------------------------------

    def gc(
        self, cache_root: Optional[str] = None, dry_run: bool = False
    ) -> Tuple[int, int]:
        """Prune records whose cached results were all evicted.

        A record is prunable when it lists cache-keyed runs and *none*
        of those keys still exist under ``<cache_root>/<code_version>``
        — its results can no longer be recalled, so the bookkeeping
        goes too.  Records without runs (plain simulates) and records
        marked ``uncached`` (the run never wrote the cache, so absent
        keys prove nothing) are kept.

        Returns ``(kept, pruned)`` counts; with ``dry_run`` the file
        is left untouched.
        """
        from repro.exp.cache import default_cache_dir

        root = cache_root or default_cache_dir()
        kept: List[Dict] = []
        pruned = 0
        for record in self.records():
            keys = [
                run.get("key")
                for run in record.get("runs") or []
                if run.get("key")
            ]
            if not keys or record.get("uncached"):
                kept.append(record)
                continue
            version = str(record.get("code_version") or "")
            alive = any(
                os.path.exists(os.path.join(root, version, f"{key}.json"))
                for key in keys
            )
            if alive:
                kept.append(record)
            else:
                pruned += 1
        if pruned and not dry_run:
            self.rewrite(kept)
        return len(kept), pruned


# -- record diffing ---------------------------------------------------------


def diff_records(a: Dict, b: Dict) -> Dict:
    """Structured comparison of two ledger records (a → b).

    Covers outcome, point accounting, cache-hit attribution, wall time
    and resource usage — the "did the cache actually work" and "what
    did the re-run cost" questions.
    """
    def block(record: Dict, name: str) -> Dict:
        return record.get(name) or {}

    def delta(x: Optional[float], y: Optional[float]) -> Optional[float]:
        if x is None or y is None:
            return None
        return float(y) - float(x)

    a_points, b_points = block(a, "points"), block(b, "points")
    a_cache, b_cache = block(a, "cache"), block(b, "cache")
    a_res, b_res = block(a, "resources"), block(b, "resources")
    return {
        "a": {"id": a.get("id"), "command": a.get("command"),
              "experiment": a.get("experiment")},
        "b": {"id": b.get("id"), "command": b.get("command"),
              "experiment": b.get("experiment")},
        "same_spec": bool(
            a.get("spec_hash")
            and a.get("spec_hash") == b.get("spec_hash")
        ),
        "outcome": {"a": a.get("outcome"), "b": b.get("outcome")},
        "points": {
            "a": a_points, "b": b_points,
            "executed_delta": delta(
                a_points.get("executed"), b_points.get("executed")
            ),
        },
        "cache": {
            "a": a_cache, "b": b_cache,
            "hits_delta": delta(a_cache.get("hits"), b_cache.get("hits")),
            "hit_rate": {
                "a": a_cache.get("hit_rate"),
                "b": b_cache.get("hit_rate"),
            },
        },
        "wall_s": {
            "a": a.get("wall_s"), "b": b.get("wall_s"),
            "delta": delta(a.get("wall_s"), b.get("wall_s")),
        },
        "resources": {
            "cpu_s": {
                "a": a_res.get("cpu_s"), "b": b_res.get("cpu_s"),
                "delta": delta(a_res.get("cpu_s"), b_res.get("cpu_s")),
            },
            "peak_rss_kb": {
                "a": a_res.get("peak_rss_kb"),
                "b": b_res.get("peak_rss_kb"),
            },
        },
    }


def format_diff(diff: Dict) -> str:
    """Human-readable rendering of :func:`diff_records` output."""
    def num(value: Optional[float], unit: str = "", fmt: str = ".2f") -> str:
        if value is None:
            return "—"
        return f"{value:{fmt}}{unit}"

    def pct(value: Optional[float]) -> str:
        if value is None:
            return "—"
        return f"{value:.0%}"

    a, b = diff["a"], diff["b"]
    lines = [
        f"runs {a.get('id')} -> {b.get('id')} "
        f"({b.get('command')}:{b.get('experiment') or '?'}"
        f"{', same spec' if diff['same_spec'] else ', DIFFERENT spec'})",
        f"  outcome   : {diff['outcome']['a']} -> {diff['outcome']['b']}",
    ]
    ap, bp = diff["points"]["a"], diff["points"]["b"]
    if ap or bp:
        lines.append(
            f"  points    : {ap.get('total', '—')} "
            f"({ap.get('executed', '—')} executed, "
            f"{ap.get('cached', '—')} cached, "
            f"{ap.get('failed', '—')} failed) -> "
            f"{bp.get('total', '—')} "
            f"({bp.get('executed', '—')} executed, "
            f"{bp.get('cached', '—')} cached, "
            f"{bp.get('failed', '—')} failed)"
        )
    cache = diff["cache"]
    if cache["a"] or cache["b"]:
        hits_delta = cache["hits_delta"]
        lines.append(
            f"  cache hit : {pct(cache['hit_rate']['a'])} -> "
            f"{pct(cache['hit_rate']['b'])}"
            + (
                f" ({hits_delta:+.0f} hits)"
                if hits_delta is not None else ""
            )
        )
    wall = diff["wall_s"]
    rel = ""
    if wall["delta"] is not None and wall["a"]:
        rel = f" ({wall['delta'] / wall['a']:+.1%})"
    lines.append(
        f"  wall      : {num(wall['a'], 's')} -> {num(wall['b'], 's')}{rel}"
    )
    cpu = diff["resources"]["cpu_s"]
    lines.append(
        f"  cpu       : {num(cpu['a'], 's')} -> {num(cpu['b'], 's')}"
    )
    rss = diff["resources"]["peak_rss_kb"]
    lines.append(
        f"  peak rss  : {num(rss['a'], ' KB', '.0f')} -> "
        f"{num(rss['b'], ' KB', '.0f')}"
    )
    return "\n".join(lines)
