"""Native sequential kernels, built on first use, with a Python twin.

:func:`kernels` returns the module that runs the simulator's three
sequential float loops: the C extension compiled from ``kernels.c``,
or :mod:`repro.native.reference` when it cannot be built.  Both have
the same functions and give the same bits.

The extension is built the first time :func:`kernels` is called in a
process, never at import.  The build runs setuptools' ``build_ext`` in
a child process with its output captured, and the module is cached in
``$XDG_CACHE_HOME/nvpsim`` (``~/.cache/nvpsim`` when that is unset),
keyed on a hash of the C source, :data:`CFLAGS` and the interpreter's
extension suffix.  Concurrent builders each write a temp file and
``os.replace`` it, so no process loads a partial module.  A failed
build leaves a ``_kernels-<key>.failed`` marker holding the compiler's
output, so later processes use the reference without trying again;
delete the marker to retry.
"""

from __future__ import annotations

import os
import sys
from typing import Optional

from repro.native import reference

__all__ = ["CFLAGS", "backend", "kernels", "reason", "reference"]

#: Compiler flags, part of the bit contract: no FMA contraction, and
#: never ``-ffast-math`` or ``-march=native``.
CFLAGS = ("-O2", "-ffp-contract=off")

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "kernels.c")
_NAME = "_kernels"

#: The module :func:`kernels` returned, and why it is the reference.
_loaded = None
_reason: Optional[str] = None

#: Run by the child: build ``kernels.c`` and move the module to argv[2].
_BUILD = """
import os, sys
from setuptools import Distribution, Extension
from setuptools.command.build_ext import build_ext
source, target, *flags = sys.argv[1:]
dist = Distribution({"ext_modules": [
    Extension("_kernels", [source], extra_compile_args=flags)]})
command = build_ext(dist)
command.build_lib = command.build_temp = os.path.dirname(target)
command.ensure_finalized()
command.run()
os.replace(command.get_ext_fullpath("_kernels"), target)
"""


def kernels():
    """The kernel module: the compiled extension, else the reference.

    Memoized: the first call in a process loads (or builds) the
    extension, and every later call returns the same module.
    """
    global _loaded, _reason
    if _loaded is None:
        try:
            _loaded = _load_extension()
        except _Unavailable as exc:
            _loaded, _reason = reference, str(exc)
    return _loaded


def backend() -> Optional[str]:
    """``"native"`` or ``"python"``: the backend :func:`kernels` loaded
    in this process, or ``None`` when no kernel has run here."""
    return None if _loaded is None else _loaded.BACKEND


def reason() -> Optional[str]:
    """Why :func:`kernels` fell back to the reference, or ``None``."""
    return _reason


class _Unavailable(Exception):
    """The extension cannot be loaded; the message says why."""


def _cache_dir() -> str:
    """Where built modules and failure markers are kept."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "nvpsim")


def _load_extension():
    import hashlib
    import importlib.machinery
    import importlib.util

    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    try:
        with open(_SOURCE, "rb") as handle:
            source = handle.read()
    except OSError as exc:
        raise _Unavailable(f"cannot read {_SOURCE}: {exc}") from None
    # blake2b is built into CPython; OpenSSL's sha256 would page in
    # about 1 MB of library in every pool worker that loads the kernels.
    key = hashlib.blake2b(
        source + "\0".join((*CFLAGS, suffix)).encode(), digest_size=8
    ).hexdigest()
    stem = os.path.join(_cache_dir(), f"{_NAME}-{key}")
    path, marker = stem + suffix, stem + ".failed"
    if not os.path.exists(path):
        if not os.path.exists(marker):
            _build(path, marker)
        if not os.path.exists(path):
            raise _Unavailable(_failure(marker))
    try:
        spec = importlib.util.spec_from_file_location(_NAME, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except (ImportError, OSError) as exc:
        raise _Unavailable(f"cannot load {path}: {exc}") from None
    return module


def _build(path: str, marker: str) -> None:
    """Compile ``kernels.c`` to ``path``; on failure write ``marker``."""
    import shutil
    import subprocess
    import tempfile

    directory = os.path.dirname(path)
    try:
        os.makedirs(directory, exist_ok=True)
        work = tempfile.mkdtemp(prefix=".build-", dir=directory)
    except OSError as exc:
        raise _Unavailable(f"cannot build in {directory}: {exc}") from None
    try:
        target = os.path.join(work, os.path.basename(path))
        proc = subprocess.run(
            [sys.executable, "-c", _BUILD, _SOURCE, target, *CFLAGS],
            cwd=work,
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
        )
        if proc.returncode == 0 and os.path.exists(target):
            os.replace(target, path)
            return
        failed = os.path.join(work, "failed")
        with open(failed, "w") as handle:
            handle.write(proc.stdout + proc.stderr)
        os.replace(failed, marker)
    except OSError as exc:
        raise _Unavailable(f"cannot build in {directory}: {exc}") from None
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _failure(marker: str) -> str:
    """The fallback reason a failure marker gives: its last line."""
    try:
        with open(marker) as handle:
            lines = handle.read().strip().splitlines()
    except OSError:
        lines = []
    last = lines[-1] if lines else "no compiler output"
    return f"build failed: {last} (output in {marker}; delete it to retry)"
