"""Minimal HTTP/1.1 plumbing over asyncio streams (stdlib only).

Just enough protocol for the query service: request-line + header
parsing, ``Content-Length`` bodies, keep-alive, and JSON/text response
rendering.  An answer's id array is written by one vectorized decimal
encoder (:func:`encode_ids`) instead of one Python int per id; the bytes
are exactly what ``json.dumps`` writes for the same list.  Deliberately not a framework — the endpoint surface is five
routes (``docs/serving.md``), and the reproduction's no-dependency rule
(README) applies to the serving layer too.

Limits: request line and headers are capped at 16 KiB, bodies at 8 MiB
(a batch of float64 normals is small); chunked transfer encoding is not
accepted.  Violations fail the connection with 400/413 rather than
buffering unbounded input.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

__all__ = ["HttpError", "HttpRequest", "encode_ids", "read_request", "render_response"]

_MAX_HEADER_BYTES = 16 * 1024
_MAX_BODY_BYTES = 8 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: ``10**j``: an id below ``10**j`` has at most ``j`` decimal digits.
_POWERS = 10 ** np.arange(19, dtype=np.int64)
#: The four ASCII digits of ``0 .. 9999``, zero-padded, one uint32 each.
_CHUNKS = (
    (np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0"))
    .astype(np.uint8)
    .view(np.uint32)
    .ravel()
)
#: ``", "`` padded to one uint32 slot.
_SEPARATOR = np.frombuffer(b",   ", dtype=np.uint32)[0]
#: An id array whose digit count changes more often than this (ids out
#: of order) is not worth splitting into runs.
_MAX_RUNS = 64


class HttpError(Exception):
    """A protocol-level failure mapped to an error response."""

    def __init__(self, status: int, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.detail = detail


@dataclass
class HttpRequest:
    """One parsed request."""

    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        """Whether the client asked to reuse the connection."""
        return self.headers.get("connection", "").lower() != "close"

    def json(self) -> Any:
        """Decode the body as JSON, raising :class:`HttpError` 400 on junk."""
        if not self.body:
            raise HttpError(400, "request body must be a JSON object")
        try:
            return json.loads(self.body)
        except (ValueError, UnicodeDecodeError) as exc:
            raise HttpError(400, f"malformed JSON body: {exc}") from exc


async def read_request(reader: asyncio.StreamReader) -> Optional[HttpRequest]:
    """Parse one request from the stream; ``None`` on clean EOF.

    Raises :class:`HttpError` on malformed input and
    ``asyncio.IncompleteReadError`` / ``ConnectionError`` on transport
    failures mid-request (the connection handler drops the connection
    either way).
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError(400, "truncated request head") from exc
    except asyncio.LimitOverrunError as exc:
        raise HttpError(413, "request head too large") from exc
    if len(head) > _MAX_HEADER_BYTES:
        raise HttpError(413, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line: {lines[0]!r}")
    method, target, _version = parts
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    if headers.get("transfer-encoding"):
        raise HttpError(400, "chunked transfer encoding is not supported")
    body = b""
    raw_length = headers.get("content-length")
    if raw_length is not None:
        try:
            length = int(raw_length)
        except ValueError as exc:
            raise HttpError(400, f"bad Content-Length: {raw_length!r}") from exc
        if length < 0 or length > _MAX_BODY_BYTES:
            raise HttpError(413, f"body of {length} bytes exceeds the limit")
        if length:
            body = await reader.readexactly(length)
    path = target.split("?", 1)[0]
    return HttpRequest(method=method.upper(), path=path, headers=headers, body=body)


def encode_ids(ids: np.ndarray) -> bytes:
    """``json.dumps(ids.tolist())`` as bytes, for a 1-D integer array, in bulk.

    Each id is written as uint32 words of four digits (zero-padded, from
    a lookup table) plus a separator word; every run of ids with the same
    number of digits is then one block of bytes, its padding cut off.  An
    answer's ascending ids have one run per digit count.  Arrays that are
    not non-negative int64 values, or whose runs are many, take
    ``json.dumps``.
    """
    values = np.asarray(ids)
    if values.size == 0:
        return b"[]"
    if (
        values.dtype.kind not in "iu"
        or values.min() < 0
        or values.max() > np.iinfo(np.int64).max
    ):
        return json.dumps(values.tolist()).encode("ascii")
    values = values.astype(np.int64, copy=False)
    digits = np.maximum(np.searchsorted(_POWERS, values, side="right"), 1)
    cuts = np.flatnonzero(np.diff(digits)) + 1
    if cuts.size >= _MAX_RUNS:
        return json.dumps(values.tolist()).encode("ascii")
    words = -(-int(digits.max()) // 4)
    cells = np.empty((values.size, words + 1), dtype=np.uint32)
    rest = values
    for word in range(words - 1, -1, -1):
        rest, chunk = np.divmod(rest, 10_000)
        cells[:, word] = _CHUNKS[chunk]
    cells[:, words] = _SEPARATOR
    text = cells.view(np.uint8)
    width = 4 * words
    starts = [0, *cuts.tolist()]
    ends = [*starts[1:], values.size]
    blocks = [
        text[start:end, width - int(digits[start]) : width + 2].tobytes()
        for start, end in zip(starts, ends)
    ]
    return b"[" + b"".join(blocks)[:-2] + b"]"


def _json_bytes(body: Any) -> bytes:
    """``json.dumps(body)``, with a dict's array values by :func:`encode_ids`."""
    if not isinstance(body, dict) or not any(
        isinstance(value, np.ndarray) for value in body.values()
    ):
        return json.dumps(body).encode("utf-8")
    items = [
        json.dumps(key).encode("ascii")
        + b": "
        + (
            encode_ids(value)
            if isinstance(value, np.ndarray)
            else json.dumps(value).encode("ascii")
        )
        for key, value in body.items()
    ]
    return b"{" + b", ".join(items) + b"}"


def render_response(
    status: int,
    body: Any,
    *,
    content_type: str = "application/json",
    extra_headers: Optional[Mapping[str, str]] = None,
    keep_alive: bool = True,
) -> bytes:
    """Serialize one response; dict/list bodies are JSON-encoded (a dict's
    id arrays by :func:`encode_ids`)."""
    if isinstance(body, (dict, list)):
        payload = _json_bytes(body)
    elif isinstance(body, str):
        payload = body.encode("utf-8")
    else:
        payload = bytes(body)
    reason = _REASONS.get(status, "Unknown")
    headers: list[Tuple[str, str]] = [
        ("Content-Type", content_type),
        ("Content-Length", str(len(payload))),
        ("Connection", "keep-alive" if keep_alive else "close"),
    ]
    if extra_headers:
        headers.extend(extra_headers.items())
    head = f"HTTP/1.1 {status} {reason}\r\n" + "".join(
        f"{name}: {value}\r\n" for name, value in headers
    )
    return head.encode("latin-1") + b"\r\n" + payload
