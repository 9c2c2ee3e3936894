"""Build, cache and load the project's C kernels (stdlib only).

Each kernel is one C file shipped as package data next to the module
that binds it: the router's A* search (``route/astar.c``) and the
placer's annealing move loop (``place/anneal.c``).  A kernel is named
by its *stem*, the file name without ``.c``; it must export
``int repro_<stem>_abi(void)`` returning 1.  It is compiled once per
machine with the system C compiler into a shared library that
:mod:`ctypes` loads.  The library is cached under
``~/.cache/repro/native/`` as ``<stem>-<digest>.so``, the digest a
SHA-256 of the source, the compiler flags and the platform, so editing
the source or moving to another platform builds a fresh one.  When
that directory is not writable the library is built into a private
:func:`tempfile.mkdtemp` directory instead.

Every cached file carries a trailer: a magic tag plus the SHA-256 of
the library bytes.  A truncated or garbage file fails the check and is
rebuilt, never handed to the dynamic loader.  Builders write to a
unique temporary name and publish with :func:`os.replace`, so two
processes building at once both end with a complete library.

This module imports nothing from :mod:`repro`, so the build can be
exercised in isolation.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path
from typing import Optional, Sequence

#: Flags that fix the float semantics bit-identity depends on: no
#: fused multiply-add (``-ffp-contract=off``) and no fast-math.
CFLAGS: Sequence[str] = (
    "-O2", "-ffp-contract=off", "-std=c99", "-fPIC", "-shared",
)

#: Compilers tried in order when none is given.
COMPILERS: Sequence[str] = ("cc", "gcc", "clang")

_MAGIC = b"repro-so"
_TRAILER = len(_MAGIC) + 32


class NativeBuildError(RuntimeError):
    """The kernel could not be built or loaded."""


def library_name(stem: str, source: bytes) -> str:
    """File name of kernel *stem* built from *source* on this
    platform."""
    h = hashlib.sha256(source)
    h.update("\0".join(CFLAGS).encode())
    h.update(sysconfig.get_platform().encode())
    return f"{stem}-{h.hexdigest()[:24]}.so"


def _valid(path: Path) -> bool:
    try:
        data = path.read_bytes()
    except OSError:
        return False
    body, tag, digest = (
        data[:-_TRAILER], data[-_TRAILER:-32], data[-32:]
    )
    return tag == _MAGIC and hashlib.sha256(body).digest() == digest


def _writable(directory: Path) -> bool:
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError:
        return False
    return os.access(directory, os.W_OK | os.X_OK)


def _compile(
    source: Path, out: Path, compiler: Optional[str]
) -> None:
    cc = compiler or next(filter(None, map(shutil.which, COMPILERS)), None)
    if cc is None:
        raise NativeBuildError("no C compiler found")
    try:
        fd, name = tempfile.mkstemp(prefix=f".{out.name}.", dir=out.parent)
    except OSError as exc:
        raise NativeBuildError(f"building {out.name}: {exc}") from exc
    os.close(fd)
    tmp = Path(name)
    cmd = [cc, *CFLAGS, "-o", str(tmp), str(source)]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            raise NativeBuildError(
                f"{' '.join(cmd)} failed: {proc.stderr.strip()}"
            )
        body = tmp.read_bytes()
        with open(tmp, "ab") as fh:
            fh.write(_MAGIC + hashlib.sha256(body).digest())
        os.replace(tmp, out)
    except (OSError, subprocess.SubprocessError) as exc:
        raise NativeBuildError(f"building {out.name}: {exc}") from exc
    finally:
        tmp.unlink(missing_ok=True)


def load_library(
    source: Path,
    cache_dir: Optional[Path] = None,
    compiler: Optional[str] = None,
) -> ctypes.CDLL:
    """Return the kernel built from *source* (stem ``source.stem``),
    building it first when no valid cached copy exists.  Raises
    :class:`NativeBuildError`."""
    try:
        code = source.read_bytes()
    except OSError as exc:
        raise NativeBuildError(f"kernel source missing: {exc}") from exc
    stem = source.stem
    name = library_name(stem, code)
    directory = (
        Path(cache_dir) if cache_dir
        else Path.home() / ".cache" / "repro" / "native"
    )
    path = directory / name
    if not _valid(path):
        if not _writable(directory):
            path = Path(tempfile.mkdtemp(prefix="repro-native-")) / name
        _compile(source, path, compiler)
    try:
        lib = ctypes.CDLL(str(path))
        abi_symbol = getattr(lib, f"repro_{stem}_abi")
        abi_symbol.argtypes = []
        abi_symbol.restype = ctypes.c_int
        abi = abi_symbol()
    except (OSError, AttributeError) as exc:
        raise NativeBuildError(f"loading {path}: {exc}") from exc
    if abi != 1:
        raise NativeBuildError(f"{path}: unexpected ABI {abi}")
    return lib
