"""Stable content fingerprints of flow-stage inputs.

A stage result may be reused only when *every* input that can influence
it is identical.  :func:`fingerprint` reduces the inputs — LUT
circuits, architectures, flow options, placements, seeds — to one
SHA-256 hex digest over a canonical, type-tagged serialisation:

* containers are serialised recursively with an explicit type tag, so
  ``[1]`` and ``(1,)`` and ``{1}`` hash differently;
* dict entries and set elements are sorted by their serialised form,
  so iteration order cannot leak into the hash;
* dataclasses and enums hash as (qualified class name, field values),
  so renaming a field or adding one invalidates old entries;
* floats are hashed through ``repr`` (shortest round-trip form), ints
  through their decimal form — equal values hash equally, but
  ``1.0`` and ``1`` do not collide because of the type tag.

Bump :data:`FINGERPRINT_VERSION` whenever the semantics of a stage
change in a way the inputs cannot express (e.g. a router cost-model
fix): the version participates in every cache key, so old entries are
orphaned rather than silently reused.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from typing import Any

#: Participates in every cache key; bump to invalidate all cached
#: stage results after a semantic change to any flow stage.
FINGERPRINT_VERSION = 1


class Unfingerprintable(TypeError):
    """Raised for values with no canonical serialisation."""


def _walk(value: Any, out: "hashlib._Hash") -> None:
    """Feed the canonical serialisation of *value* into *out*."""
    if value is None:
        out.update(b"N")
    elif value is True:
        out.update(b"T")
    elif value is False:
        out.update(b"F")
    elif isinstance(value, int):
        data = str(value).encode()
        out.update(b"i%d:" % len(data) + data)
    elif isinstance(value, float):
        data = repr(value).encode()
        out.update(b"f%d:" % len(data) + data)
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.update(b"s%d:" % len(data) + data)
    elif isinstance(value, bytes):
        out.update(b"b%d:" % len(value) + value)
    elif isinstance(value, (list, tuple)):
        out.update(b"l(" if isinstance(value, list) else b"t(")
        for item in value:
            _walk(item, out)
        out.update(b")")
    elif isinstance(value, (set, frozenset)):
        out.update(b"S(")
        for digest in sorted(_digest(item) for item in value):
            out.update(digest)
        out.update(b")")
    elif isinstance(value, dict):
        out.update(b"d(")
        entries = sorted(
            (_digest(k), _digest(v)) for k, v in value.items()
        )
        for key_digest, value_digest in entries:
            out.update(key_digest)
            out.update(value_digest)
        out.update(b")")
    elif isinstance(value, enum.Enum):
        _tagged(value, (value.value,), out)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = tuple(
            (f.name, getattr(value, f.name))
            for f in dataclasses.fields(value)
        )
        _tagged(value, fields, out)
    elif hasattr(value, "__fingerprint__"):
        _tagged(value, (value.__fingerprint__(),), out)
    else:
        body = _structure(value)
        if body is None:
            raise Unfingerprintable(
                "no canonical serialisation for "
                f"{type(value).__module__}.{type(value).__qualname__}"
            )
        _tagged(value, body, out)


def _tagged(value: Any, body: Any, out: "hashlib._Hash") -> None:
    cls = type(value)
    name = f"{cls.__module__}.{cls.__qualname__}".encode()
    out.update(b"o%d:" % len(name) + name + b"(")
    _walk(body, out)
    out.update(b")")


def _structure(value: Any) -> Any:
    """Canonical body of the domain types that are not dataclasses."""
    # Imported lazily: fingerprinting must stay importable from worker
    # processes without dragging the whole flow in at module load.
    from repro.netlist.lutcircuit import LutCircuit
    from repro.netlist.truthtable import TruthTable

    if isinstance(value, TruthTable):
        return (value.n_vars, value.bits)
    if isinstance(value, LutCircuit):
        return (
            value.name,
            value.k,
            tuple(value.inputs),
            tuple(value.outputs),
            {
                name: (
                    tuple(block.inputs),
                    block.table,
                    block.registered,
                    block.init,
                )
                for name, block in value.blocks.items()
            },
        )
    return None


def _digest(value: Any) -> bytes:
    h = hashlib.sha256()
    _walk(value, h)
    return h.digest()


def fingerprint(*values: Any) -> str:
    """SHA-256 hex digest of the canonical form of *values*."""
    h = hashlib.sha256()
    h.update(b"v%d" % FINGERPRINT_VERSION)
    for value in values:
        _walk(value, h)
    return h.hexdigest()


_code_fingerprint: Any = None


#: Files of the package that :func:`code_fingerprint` hashes.
SOURCE_PATTERNS = ("*.py", "*.c")


def code_fingerprint() -> str:
    """Digest of the ``repro`` package's own source code.

    Stage results depend on the code that computed them, not only on
    the inputs — folding this into every cache key means editing any
    module orphans stale entries automatically, with no manual
    ``FINGERPRINT_VERSION`` bump needed.  The C source of the native
    search kernel counts as code too.  Computed once per process (one
    read of the package's ``.py`` and ``.c`` files, a few
    milliseconds).
    """
    global _code_fingerprint
    if _code_fingerprint is None:
        import pathlib

        import repro

        package_root = pathlib.Path(repro.__file__).parent
        h = hashlib.sha256()
        sources = [
            path
            for pattern in SOURCE_PATTERNS
            for path in package_root.rglob(pattern)
        ]
        for path in sorted(sources):
            h.update(str(path.relative_to(package_root)).encode())
            try:
                h.update(path.read_bytes())
            except OSError:
                pass
        _code_fingerprint = h.hexdigest()
    return _code_fingerprint
