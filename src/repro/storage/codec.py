"""Compact binary serialization for node-state records.

The engines store per-node annotations — heaps of paths, ``small``/
``best`` tables — through :class:`~repro.storage.diskdict.DiskDict`.
Pickling those records repeats class references and protocol framing
per value; since the payloads are overwhelmingly small integers
(interval indices, node ids, length classes) plus floats, a varint
encoding shrinks them substantially, which is what keeps a
disk-backed :class:`~repro.storage.backends.StateStore` small on the
streaming tier.

``encode_compact`` structurally encodes ``None``/bool/int/float/str/
bytes/tuple/list/dict/set/frozenset and
:class:`~repro.core.paths.Path`; any other type falls back to pickle
for the *whole* record.  A one-byte prefix distinguishes the two
forms, so ``decode_record`` reads either — stores mixing codecs stay
readable.  Integers use zigzag varints (small magnitudes, one byte).
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, List, Tuple

# Record prefixes.
PICKLED = b"P"
COMPACT = b"C"

# Value tags of the compact form.
_NONE = b"n"
_TRUE = b"t"
_FALSE = b"f"
_INT = b"i"
_FLOAT = b"d"
_STR = b"s"
_BYTES = b"b"
_TUPLE = b"T"
_LIST = b"L"
_DICT = b"D"
_SET = b"S"
_FROZENSET = b"F"
_PATH = b"p"

_FLOAT_STRUCT = struct.Struct("<d")

_path_type = None


def _path_class():
    # Imported lazily: repro.core pulls in the storage package at
    # import time, so a module-level import here would be circular.
    global _path_type
    if _path_type is None:
        from repro.core.paths import Path
        _path_type = Path
    return _path_type


class _Unsupported(Exception):
    """Raised mid-encode to trigger the whole-record pickle fallback."""


def encode_varint(value: int, out: List[bytes]) -> None:
    """Append the unsigned LEB128 bytes of *value* (must be >= 0)."""
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(bytes((byte | 0x80,)))
        else:
            out.append(bytes((byte,)))
            return


def decode_varint(blob: bytes, pos: int) -> Tuple[int, int]:
    """Read one unsigned varint at *pos*; returns (value, new_pos)."""
    value = shift = 0
    while True:
        byte = blob[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7


def _zigzag(value: int) -> int:
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def _unzigzag(value: int) -> int:
    return value >> 1 if not value & 1 else -((value + 1) >> 1)


def _encode_value(obj: Any, out: List[bytes]) -> None:
    if obj is None:
        out.append(_NONE)
    elif obj is True:
        out.append(_TRUE)
    elif obj is False:
        out.append(_FALSE)
    elif type(obj) is int:
        out.append(_INT)
        encode_varint(_zigzag(obj), out)
    elif type(obj) is float:
        out.append(_FLOAT)
        out.append(_FLOAT_STRUCT.pack(obj))
    elif type(obj) is str:
        raw = obj.encode("utf-8")
        out.append(_STR)
        encode_varint(len(raw), out)
        out.append(raw)
    elif type(obj) is bytes:
        out.append(_BYTES)
        encode_varint(len(obj), out)
        out.append(obj)
    elif type(obj) is tuple:
        _encode_sequence(_TUPLE, obj, out)
    elif type(obj) is list:
        _encode_sequence(_LIST, obj, out)
    elif type(obj) is dict:
        out.append(_DICT)
        encode_varint(len(obj), out)
        for key, value in obj.items():
            _encode_value(key, out)
            _encode_value(value, out)
    elif type(obj) in (set, frozenset):
        try:  # sorted for deterministic bytes; unorderable mixes
            items = sorted(obj)  # fall back to pickling the record
        except TypeError:
            raise _Unsupported("unorderable set") from None
        _encode_sequence(_SET if type(obj) is set else _FROZENSET,
                         items, out)
    elif type(obj) is _path_class():
        out.append(_PATH)
        out.append(_FLOAT_STRUCT.pack(obj.weight))
        encode_varint(len(obj.nodes), out)
        for interval, index in obj.nodes:
            encode_varint(_zigzag(interval), out)
            encode_varint(_zigzag(index), out)
    else:
        raise _Unsupported(type(obj).__name__)


def _encode_sequence(tag: bytes, items, out: List[bytes]) -> None:
    out.append(tag)
    encode_varint(len(items), out)
    for item in items:
        _encode_value(item, out)


# Integer forms of the tags for allocation-free decode dispatch.
_T_NONE, _T_TRUE, _T_FALSE = _NONE[0], _TRUE[0], _FALSE[0]
_T_INT, _T_FLOAT, _T_STR, _T_BYTES = \
    _INT[0], _FLOAT[0], _STR[0], _BYTES[0]
_T_TUPLE, _T_LIST, _T_DICT = _TUPLE[0], _LIST[0], _DICT[0]
_T_SET, _T_FROZENSET, _T_PATH = _SET[0], _FROZENSET[0], _PATH[0]


def _decode_value(blob: bytes, pos: int) -> Tuple[Any, int]:
    tag = blob[pos]
    pos += 1
    if tag == _T_INT:
        value, pos = decode_varint(blob, pos)
        return _unzigzag(value), pos
    if tag == _T_FLOAT:
        return (_FLOAT_STRUCT.unpack_from(blob, pos)[0],
                pos + _FLOAT_STRUCT.size)
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_STR or tag == _T_BYTES:
        length, pos = decode_varint(blob, pos)
        raw = blob[pos:pos + length]
        # str()/bytes() also accept memoryview slices, so decoding
        # works unchanged on zero-copy mmap payloads.
        return (str(raw, "utf-8") if tag == _T_STR
                else bytes(raw)), pos + length
    if tag in (_T_TUPLE, _T_LIST, _T_SET, _T_FROZENSET):
        length, pos = decode_varint(blob, pos)
        items = []
        for _ in range(length):
            item, pos = _decode_value(blob, pos)
            items.append(item)
        if tag == _T_TUPLE:
            return tuple(items), pos
        if tag == _T_LIST:
            return items, pos
        if tag == _T_SET:
            return set(items), pos
        return frozenset(items), pos
    if tag == _T_DICT:
        length, pos = decode_varint(blob, pos)
        result = {}
        for _ in range(length):
            key, pos = _decode_value(blob, pos)
            value, pos = _decode_value(blob, pos)
            result[key] = value
        return result, pos
    if tag == _T_PATH:
        weight = _FLOAT_STRUCT.unpack_from(blob, pos)[0]
        pos += _FLOAT_STRUCT.size
        count, pos = decode_varint(blob, pos)
        nodes = []
        for _ in range(count):
            interval, pos = decode_varint(blob, pos)
            index, pos = decode_varint(blob, pos)
            nodes.append((_unzigzag(interval), _unzigzag(index)))
        # Reconstruct without __init__/__post_init__, exactly as
        # pickle does for dataclasses: the record was a valid Path
        # when encoded, so re-validation would only cost time.
        return _path_class().unchecked(weight, tuple(nodes)), pos
    raise ValueError(
        f"unknown compact tag {bytes((tag,))!r} at offset {pos - 1}")


def encode_compact(obj: Any) -> bytes:
    """Serialize *obj* compactly.

    Falls back to pickling the whole record when a value of an
    unsupported type is encountered."""
    out: List[bytes] = [COMPACT]
    try:
        _encode_value(obj, out)
    except (_Unsupported, UnicodeEncodeError):
        # UnicodeEncodeError: a surrogate-bearing string UTF-8 cannot
        # encode; pickle serializes it fine, so fall back like any
        # other unsupported value.
        return encode_pickle(obj)
    return b"".join(out)


def encode_pickle(obj: Any) -> bytes:
    """Serialize *obj* with pickle under the record-prefix scheme."""
    return PICKLED + pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def decode_record(blob: bytes) -> Any:
    """Deserialize a record written by either encoder."""
    prefix = blob[:1]
    if prefix == COMPACT:
        value, _ = _decode_value(blob, 1)
        return value
    if prefix == PICKLED:
        return pickle.loads(blob[1:])
    raise ValueError(
        f"unknown record prefix {prefix!r}: not written by "
        f"encode_compact/encode_pickle")


CODECS = ("compact", "pickle")


def encoder_for(codec: str):
    """The encode function for a codec spec.

    ``decode_record`` reads both forms, so the choice affects
    written bytes only."""
    if codec == "compact":
        return encode_compact
    if codec == "pickle":
        return encode_pickle
    raise ValueError(
        f"unknown codec {codec!r}; expected one of {CODECS}")
