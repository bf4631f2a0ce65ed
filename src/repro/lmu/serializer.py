"""Wire-size estimation for modelled transfers.

The simulator never really serialises objects; it needs a *size model*
so transfers cost realistic time and money.  ``estimate_size`` walks
plain Python data and sums a conventional encoding size; objects that
know better expose ``size_bytes`` (messages, units, capsules all do).
"""

from __future__ import annotations

from typing import Mapping, Sequence

#: Fixed per-object envelope: type tag + length field.
_OBJECT_OVERHEAD = 8
#: Encoded size of a number (int/float/bool) in a conventional encoding.
_NUMBER_BYTES = 8
#: Fallback size for opaque objects without a declared size.
DEFAULT_OBJECT_BYTES = 256


def estimate_size(value: object) -> int:
    """Modelled encoded size of ``value`` in bytes.

    Deterministic, cheap, and defined for arbitrary nesting.  Objects
    exposing an integer ``size_bytes`` attribute are charged exactly
    that (plus envelope), which lets units and capsules control their
    modelled footprint.
    """
    return _OBJECT_OVERHEAD + _payload_size(value, depth=0)


def _payload_size(value: object, depth: int) -> int:
    if depth > 32:
        # Pathological nesting: charge the fallback rather than recurse on.
        return DEFAULT_OBJECT_BYTES
    if value is None:
        return 1
    # Exact built-in types (the bulk of agent state) skip the attribute
    # probe and ABC checks below, which size them the same way.
    # Subclasses may declare ``size_bytes``, so they take the generic path.
    kind = type(value)
    if kind is str:
        return len(value.encode("utf-8"))
    if kind is int or kind is float:
        return _NUMBER_BYTES
    if kind is bool:
        return 1
    if kind is list or kind is tuple:
        return (
            sum(_payload_size(item, depth + 1) for item in value)
            + _OBJECT_OVERHEAD
        )
    if kind is dict:
        return sum(
            _payload_size(key, depth + 1) + _payload_size(item, depth + 1)
            for key, item in value.items()
        ) + _OBJECT_OVERHEAD
    declared = getattr(value, "size_bytes", None)
    if isinstance(declared, int) and not isinstance(value, (bool, int)):
        return declared + _OBJECT_OVERHEAD
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return _NUMBER_BYTES
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, Mapping):
        return sum(
            _payload_size(key, depth + 1) + _payload_size(item, depth + 1)
            for key, item in value.items()
        ) + _OBJECT_OVERHEAD
    if isinstance(value, (Sequence, set, frozenset)):
        return (
            sum(_payload_size(item, depth + 1) for item in value)
            + _OBJECT_OVERHEAD
        )
    return DEFAULT_OBJECT_BYTES
