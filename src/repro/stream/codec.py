"""Binary encoding of modified-SAX events (the durable-log record body).

The ingest log (:mod:`repro.store`) persists the event stream, not the
raw XML text: replay then skips tokenization entirely, a recorded stream
is chunking-independent by construction, and the structural index can be
built from what the log writer already sees.  This module is the codec
for one event — the payload bytes inside one CRC-framed log record
(framing itself is :mod:`repro.serve.framing`; the CRC lives there, not
here).

Layout (all integers are unsigned LEB128 varints, all strings are
varint-length-prefixed UTF-8):

``StartElement``::

    kind=1 | level | node_id | tag | attr_count | (name value)*

``Characters``::

    kind=2 | level | text

``EndElement``::

    kind=3 | level | tag

The log stores events in **blocks**: one CRC frame carries a varint
event count followed by that many records back to back
(:func:`block_header`, :func:`iter_block`).  The writer builds blocks
without event objects: :func:`encode_start_into`,
:func:`encode_chars_into` and :func:`encode_end_into` append one record
to a caller-owned ``bytearray``, and take a tag as its pre-encoded
:func:`text_field` so a writer can cache it.

Decoding accepts an optional :class:`~repro.stream.recovery.ResourceLimits`
and enforces ``max_depth``, ``max_attributes``, ``max_attribute_length``
and ``max_text_length`` *before* materialising the offending structure —
a log is attacker-reachable input (a copied file, a shared volume), so a
CRC-valid but hostile record must not bypass the input-bomb protection
the tokenizer applies to raw text.  Structural nonsense (truncated
varints, trailing garbage, unknown kinds) raises :class:`CodecError`.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.stream.events import Characters, EndElement, Event, StartElement
from repro.stream.recovery import ResourceLimits

__all__ = [
    "CodecError",
    "EVENT_KIND_START",
    "EVENT_KIND_CHARS",
    "EVENT_KIND_END",
    "encode_event",
    "decode_event",
    "event_kind",
    "text_field",
    "encode_start_into",
    "encode_chars_into",
    "encode_end_into",
    "block_header",
    "block_count",
    "iter_block",
]

#: Record kind bytes (first byte of every encoded event).
EVENT_KIND_START = 1
EVENT_KIND_CHARS = 2
EVENT_KIND_END = 3


class CodecError(ReproError):
    """An event record that cannot be decoded (truncated or malformed)."""


def _write_uvarint(out: bytearray, value: int) -> None:
    """Append ``value`` as an unsigned LEB128 varint."""
    if value < 0:
        raise CodecError(f"cannot encode negative integer {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    """Read a varint at ``pos``; return ``(value, next_pos)``."""
    if pos < len(data) and data[pos] < 0x80:
        return data[pos], pos + 1
    result = 0
    shift = 0
    length = len(data)
    while True:
        if pos >= length:
            raise CodecError("truncated varint in event record")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise CodecError("varint in event record exceeds 64 bits")


def _write_text(out: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    if len(raw) < 0x80:
        out.append(len(raw))
    else:
        _write_uvarint(out, len(raw))
    out += raw


def _read_text(data: bytes, pos: int) -> tuple[str, int]:
    if pos < len(data) and data[pos] < 0x80:
        length = data[pos]
        pos += 1
    else:
        length, pos = _read_uvarint(data, pos)
    end = pos + length
    if end > len(data):
        raise CodecError("truncated string in event record")
    try:
        return data[pos:end].decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise CodecError(f"event record string is not valid UTF-8: {exc}") from exc


def text_field(text: str) -> bytes:
    """``text`` as a record field: varint byte length, then UTF-8."""
    raw = text.encode("utf-8")
    if len(raw) < 0x80:
        return bytes((len(raw),)) + raw
    out = bytearray()
    _write_uvarint(out, len(raw))
    return bytes(out + raw)


def encode_start_into(
    out: bytearray, tag_field: bytes, level: int, node_id: int, attributes
) -> None:
    """Append a ``StartElement`` record; ``tag_field`` is :func:`text_field` of the tag."""
    out.append(EVENT_KIND_START)
    if 0 <= level < 0x80:
        out.append(level)
    else:
        _write_uvarint(out, level)
    if 0 <= node_id < 0x80:
        out.append(node_id)
    elif 0x80 <= node_id < 0x4000:
        out.append(node_id & 0x7F | 0x80)
        out.append(node_id >> 7)
    else:
        _write_uvarint(out, node_id)
    out += tag_field
    if attributes:
        _write_uvarint(out, len(attributes))
        for name, value in attributes.items():
            _write_text(out, name)
            _write_text(out, value)
    else:
        out.append(0)


def encode_chars_into(out: bytearray, text: str, level: int) -> None:
    """Append a ``Characters`` record."""
    out.append(EVENT_KIND_CHARS)
    if 0 <= level < 0x80:
        out.append(level)
    else:
        _write_uvarint(out, level)
    _write_text(out, text)


def encode_end_into(out: bytearray, tag_field: bytes, level: int) -> None:
    """Append an ``EndElement`` record; ``tag_field`` is :func:`text_field` of the tag."""
    out.append(EVENT_KIND_END)
    if 0 <= level < 0x80:
        out.append(level)
    else:
        _write_uvarint(out, level)
    out += tag_field


def encode_event(event: Event) -> bytes:
    """Serialize one modified-SAX event to its binary record body."""
    out = bytearray()
    cls = event.__class__
    if cls is StartElement or isinstance(event, StartElement):
        encode_start_into(
            out, text_field(event.tag), event.level, event.node_id, event.attributes
        )
    elif cls is EndElement or isinstance(event, EndElement):
        encode_end_into(out, text_field(event.tag), event.level)
    elif cls is Characters or isinstance(event, Characters):
        encode_chars_into(out, event.text, event.level)
    else:
        raise CodecError(f"cannot encode {event!r}")
    return bytes(out)


def event_kind(data: bytes) -> int:
    """The kind byte of an encoded event (no full decode)."""
    if not data:
        raise CodecError("empty event record")
    return data[0]


def decode_event(data: bytes, limits: ResourceLimits | None = None) -> Event:
    """Rebuild the event from :func:`encode_event` bytes.

    ``limits`` (optional) bounds attacker-controlled growth exactly as the
    tokenizer does on raw text: depth, attribute count, attribute value
    length and text length are checked before the structure is built.
    """
    event, pos = _decode_at(data, 0, limits)
    if pos != len(data):
        raise CodecError(
            f"event record carries {len(data) - pos} trailing byte(s)"
        )
    return event


def _decode_at(
    data: bytes, pos: int, limits: ResourceLimits | None = None
) -> "tuple[Event, int]":
    """Decode the record starting at ``pos``; return ``(event, next_pos)``."""
    if pos >= len(data):
        raise CodecError("empty event record")
    kind = data[pos]
    pos += 1
    if pos < len(data) and data[pos] < 0x80:
        level = data[pos]
        pos += 1
    else:
        level, pos = _read_uvarint(data, pos)
    if kind == EVENT_KIND_START:
        node_id, pos = _read_uvarint(data, pos)
        tag, pos = _read_text(data, pos)
        if limits is not None:
            limits.check("max_depth", level)
        count, pos = _read_uvarint(data, pos)
        if limits is not None:
            limits.check("max_attributes", count)
        attributes: dict[str, str] = {}
        for _ in range(count):
            name, pos = _read_text(data, pos)
            value, pos = _read_text(data, pos)
            if limits is not None:
                limits.check("max_attribute_length", len(value))
            attributes[name] = value
        return StartElement(tag, level, node_id, attributes), pos
    if kind == EVENT_KIND_END:
        tag, pos = _read_text(data, pos)
        return EndElement(tag, level), pos
    if kind == EVENT_KIND_CHARS:
        # Check the *declared* length before decoding the bytes, so a
        # hostile record fails at O(limit), not O(record).
        if limits is not None:
            declared, _ = _read_uvarint(data, pos)
            limits.check("max_text_length", declared)
        text, pos = _read_text(data, pos)
        return Characters(text, level), pos
    raise CodecError(f"unknown event record kind {kind}")


# -- blocks -----------------------------------------------------------------


def block_header(count: int) -> bytes:
    """The prefix of a block payload that holds ``count`` records."""
    out = bytearray()
    _write_uvarint(out, count)
    return bytes(out)


def block_count(payload: bytes) -> tuple[int, int]:
    """A block's declared event count and the offset of its first record."""
    return _read_uvarint(payload, 0)


def iter_block(
    payload: bytes,
    limits: ResourceLimits | None = None,
    *,
    skip: int = 0,
    emitted: int = 0,
):
    """Yield the events of a block payload, leaving out the first ``skip``.

    Every yielded event is decoded under ``limits``; before each one,
    ``max_total_events`` is checked against ``emitted`` (the events the
    caller already delivered) plus this one.  Skipped records are decoded
    only to step past them.  A count larger than the records present, or
    bytes after the last record, raise :class:`CodecError`.
    """
    count, pos = _read_uvarint(payload, 0)
    for index in range(count):
        if index < skip:
            _event, pos = _decode_at(payload, pos)
            continue
        if limits is not None:
            emitted += 1
            limits.check("max_total_events", emitted)
        event, pos = _decode_at(payload, pos, limits)
        yield event
    if pos != len(payload):
        raise CodecError(f"event block carries {len(payload) - pos} trailing byte(s)")
