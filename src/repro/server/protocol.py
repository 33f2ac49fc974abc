"""The versioned NDJSON wire format of the query server.

One frame per line: a single JSON object terminated by ``\\n``, UTF-8
encoded, no intra-frame newlines.  Every frame carries a ``type`` tag;
query specs travel in the exact JSON form of
:mod:`repro.query.serialize`, so anything expressible to
:meth:`SpatialDatabase.query <repro.core.database.SpatialDatabase.query>`
— leaf kinds, nested composites, unbounded streaming kNN — is
expressible over the wire (specs with a ``predicate`` are the one
exception; a closure has no wire form).

Client-to-server frames::

    {"type": "query",  "id": 7, "spec": {...}, "packed": true,
     "explain": false, "stream": false, "chunk_size": 256}
    {"type": "next",   "id": 7}
    {"type": "cancel", "id": 7}
    {"type": "stats"}
    {"type": "insert", "id": 8, "x": 0.25, "y": 0.75}
    {"type": "extend", "id": 9, "points": [[0.1, 0.2], [0.3, 0.4]]}
    {"type": "delete", "id": 10, "row": 42}
    {"type": "subscribe", "id": 11, "spec": {...}, "packed": true}
    {"type": "unsubscribe", "id": 11}

Server-to-client frames::

    {"type": "hello",  "protocol": 1, "server": "repro/x.y.z", "points": N}
    {"type": "result", "id": 7, "ids": [...], "stats": {...},
     "explain": "..."}
    {"type": "result", "id": 7, "ids_packed": "<base64>", "stats": {...}}
    {"type": "result", "id": 7, "ids": [...], "stats": {...},
     "degraded": true, "shards_failed": [2]}
    {"type": "chunk",  "id": 7, "seq": 0, "rows": [...], "done": false,
     "examined": 256, "cancelled": false}
    {"type": "chunk",  "id": 7, "seq": 3, "rows": [...], "done": true,
     "degraded": true, "shards_failed": [0]}
    {"type": "error",  "id": 7, "code": "bad-spec", "message": "..."}
    {"type": "stats",  "server": {...}, "coalescer": {...}, "engine": {...}}
    {"type": "write",  "id": 8, "op": "insert", "rows": [1200],
     "version": 1201, "points": 1201}
    {"type": "subscribed",   "id": 11, "version": 1201, "ids": [...]}
    {"type": "notify", "id": 11, "version": 1202, "added": [1201],
     "removed": [42]}
    {"type": "unsubscribed", "id": 11, "notifications": 3}

**Subscription frames (live queries).**  ``subscribe`` registers its
``spec`` as a *standing query* (see :mod:`repro.live`): the server
answers with a ``subscribed`` frame carrying the initial result ids and
the data version they reflect, and from then on *pushes* a ``notify``
frame — without any request — whenever a write changes that result.
``notify`` carries the exact ``added``/``removed`` row-id deltas and the
post-write ``version`` that produced them; per subscription, versions
are strictly increasing and frames arrive in version order (delivery is
at-least-once per version: a delta is never skipped, re-reads after a
reconnect re-subscribe from scratch).  ``added``/``removed`` (and the
``subscribed`` frame's ``ids``) use the packed id transport when the
``subscribe`` frame set ``"packed": true`` — the fields then travel as
``added_packed``/``removed_packed``/``ids_packed``.  The subscription
holds its ``id`` until ``unsubscribe``, acknowledged by an
``unsubscribed`` frame (with the subscription's lifetime notify count)
that is ordered *after* every notify for that id.  Subscribable specs
are leaf region kinds and bounded kNN; composites, predicates, limits,
projections, and unbounded kNN answer ``bad-spec``.  All subscription
frames are additive — clients that never subscribe see a byte-identical
protocol, so the version stays 1.

**Write frames.**  ``insert``/``extend``/``delete`` mutate the served
database and are acknowledged by a ``write`` frame echoing the ``op``,
the affected row ids (``rows``), and the post-write data ``version`` and
live point count.  Coordinates must be *finite* JSON numbers — Python's
permissive parser would otherwise admit ``NaN``/``Infinity`` literals —
and an ``extend`` carries at most :data:`MAX_WRITE_POINTS` pairs
(rejected with code ``bad-request``; a structurally malformed write is
``bad-frame``, and either rejection provably leaves the store version
and index untouched).  Writes apply synchronously at admission, in
arrival order, serialized against the read coalescer's admission queue:
pending reads flush (and execute against the pre-write version) before
the write lands, so coalesced read batches are never poisoned, and
chunked streams admitted earlier keep their MVCC snapshot (see
:meth:`repro.core.store.PointStore.snapshot`).  A write's ack can
overtake the ``result`` of a still-executing pipelined read — correlate
by ``id``, not by arrival order.

``id`` is a client-chosen non-negative integer correlating responses to
requests; it must be unique among the connection's *in-flight* requests
(pending batch queries and open streams) and is free for reuse after the
``result`` frame, the ``done`` chunk, or an ``error`` frame for that id.
``hello`` is pushed by the server on connect; a client whose
``protocol`` differs must disconnect.  A ``query`` with
``"stream": true`` is answered by ``chunk`` frames — the first is pushed
immediately, every further one only in response to ``next`` (client-
driven continuation), and ``cancel`` tears the stream down server-side
(acknowledged by a final ``done`` chunk with ``"cancelled": true``).
``rows`` follow the spec's ``select`` projection: row ids (integers),
points (``[x, y]`` pairs), or distances (floats).  ``examined`` counts
the candidates the underlying iterator examined so far — for an
unbounded kNN the first chunk reports exactly ``chunk_size``, the
observable proof that streaming never ranks the rest of the database.

**Packed id transport.**  A ``query`` with ``"packed": true`` asks the
server to deliver the result ids as ``ids_packed`` — the little-endian
int64 id array, base64-encoded (:func:`pack_ids`/:func:`unpack_ids`) —
instead of the ``ids`` JSON list.  Result frames carry exactly one of
the two fields.  This is the columnar store's wire edge: for a
result of thousands of rows, packing/unpacking one array is an order of
magnitude cheaper on both sides than (de)serialising one JSON number
per row, which otherwise dominates a fast query's round-trip.  Frames
without the flag are byte-identical to before, so the protocol version
stays 1 and mixed clients interoperate.

**Degraded results (cluster serving).**  A clustered router that loses
a shard from both its primary *and* replica mid-query never returns a
silent partial answer: the ``result`` frame (or the final ``done``
chunk of a stream) carries ``"degraded": true`` plus ``shards_failed``,
the worker indices that could not contribute.  Both fields are
additive and optional — single-process servers and healthy clusters
omit them, so the protocol version stays 1.  Clients decide whether a
partial answer is acceptable; the CLI prints a loud warning.

:func:`decode_frame` rejects malformed input with
:class:`ProtocolError`, whose ``code`` is stable for programmatic
handling: ``bad-frame`` (not JSON / not an object / unknown or missing
type / wrong field shape), ``bad-spec`` (spec body that
:func:`repro.query.serialize.spec_from_dict` rejects, raised by
:func:`parse_query_spec`), plus the server-emitted ``bad-request``,
``too-many-requests``, ``unavailable`` (a clustered write whose owning
shard is unreachable — the write did *not* apply), and
``server-error``.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from typing import Dict, Iterable, List, Optional

from repro.query.serialize import spec_from_dict
from repro.query.spec import Query

#: Wire-format version; bumped on any incompatible frame change.  The
#: server states it in the ``hello`` frame and clients must disconnect
#: on mismatch rather than guess.
PROTOCOL_VERSION = 1

#: Hard cap on one encoded frame line, bytes (newline included).  The
#: server passes this as the asyncio stream limit, so an oversized
#: request fails fast instead of buffering without bound.
MAX_LINE_BYTES = 1 << 20

#: Default and maximum rows per ``chunk`` frame.
DEFAULT_CHUNK_SIZE = 256
MAX_CHUNK_SIZE = 65_536

#: Hard cap on coordinate pairs in one ``extend`` frame: keeps both the
#: encoded ack and the synchronous apply bounded (larger loads batch
#: client-side across frames).
MAX_WRITE_POINTS = 65_536

#: Frame type tags, by direction.
CLIENT_FRAME_TYPES = (
    "query",
    "next",
    "cancel",
    "stats",
    "insert",
    "extend",
    "delete",
    "subscribe",
    "unsubscribe",
)
SERVER_FRAME_TYPES = (
    "hello",
    "result",
    "chunk",
    "error",
    "stats",
    "write",
    "subscribed",
    "notify",
    "unsubscribed",
)

#: The mutation operations a ``write`` ack can echo.
WRITE_OPS = ("insert", "extend", "delete")

#: Stable error codes carried by ``error`` frames.
ERROR_CODES = (
    "bad-frame",
    "bad-spec",
    "bad-request",
    "too-many-requests",
    "overloaded",
    "unavailable",
    "server-error",
)


class ProtocolError(ValueError):
    """A frame violated the wire format (or a spec its schema).

    ``code`` is one of :data:`ERROR_CODES`; the server converts this
    exception into an ``error`` frame with the same code and message.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        #: stable machine-readable error class (see :data:`ERROR_CODES`)
        self.code = code
        #: human-readable detail
        self.message = message


def _require(condition: bool, message: str) -> None:
    """Raise a ``bad-frame`` :class:`ProtocolError` unless ``condition``."""
    if not condition:
        raise ProtocolError("bad-frame", message)


def _check_id(frame: Dict) -> None:
    """Validate the correlation ``id`` field (non-negative int)."""
    request_id = frame.get("id")
    _require(
        isinstance(request_id, int)
        and not isinstance(request_id, bool)
        and request_id >= 0,
        f"'id' must be a non-negative integer, got {request_id!r}",
    )


def _validate_query(frame: Dict) -> None:
    _check_id(frame)
    _require(
        isinstance(frame.get("spec"), dict),
        "'spec' must be a JSON object (see repro.query.serialize)",
    )
    for flag in ("explain", "stream", "packed"):
        if flag in frame:
            _require(
                isinstance(frame[flag], bool),
                f"{flag!r} must be a boolean, got {frame[flag]!r}",
            )
    if "chunk_size" in frame:
        size = frame["chunk_size"]
        _require(
            isinstance(size, int)
            and not isinstance(size, bool)
            and 1 <= size <= MAX_CHUNK_SIZE,
            f"'chunk_size' must be an int in [1, {MAX_CHUNK_SIZE}], "
            f"got {size!r}",
        )
        _require(
            frame.get("stream") is True,
            "'chunk_size' is only meaningful with \"stream\": true",
        )


def _check_degraded(frame: Dict) -> None:
    """Validate the optional cluster-degradation fields.

    ``degraded``/``shards_failed`` are additive: absent on healthy
    answers, both meaningful only together (a degraded frame names the
    shards that failed; naming failed shards implies degradation).
    """
    if "degraded" in frame:
        _require(
            isinstance(frame["degraded"], bool),
            "'degraded' must be a boolean",
        )
    if "shards_failed" in frame:
        shards = frame["shards_failed"]
        _require(
            isinstance(shards, list)
            and all(
                isinstance(s, int) and not isinstance(s, bool) and s >= 0
                for s in shards
            ),
            "'shards_failed' must be a list of worker indices",
        )


def _validate_result(frame: Dict) -> None:
    _check_id(frame)
    _check_degraded(frame)
    packed = frame.get("ids_packed")
    if packed is not None:
        _require(
            "ids" not in frame,
            "a result frame carries 'ids' or 'ids_packed', not both",
        )
        _require(
            isinstance(packed, str),
            "'ids_packed' must be a base64 string",
        )
    else:
        ids = frame.get("ids")
        _require(isinstance(ids, list), "'ids' must be a list")
        # One C-speed pass instead of a Python-level loop: result frames
        # carry thousands of ids, and this validator runs on both sides
        # of every response.  ``type`` (not ``isinstance``) also rejects
        # bools.
        _require(
            not ids or set(map(type, ids)) == {int},
            "result ids must all be integers",
        )
    _require(
        isinstance(frame.get("stats"), dict), "'stats' must be an object"
    )
    if "explain" in frame:
        _require(
            isinstance(frame["explain"], str),
            "'explain' must be the rendered plan text",
        )


def _validate_chunk(frame: Dict) -> None:
    _check_id(frame)
    _check_degraded(frame)
    seq = frame.get("seq")
    _require(
        isinstance(seq, int) and not isinstance(seq, bool) and seq >= 0,
        f"'seq' must be a non-negative integer, got {seq!r}",
    )
    _require(isinstance(frame.get("rows"), list), "'rows' must be a list")
    _require(
        isinstance(frame.get("done"), bool), "'done' must be a boolean"
    )
    if "examined" in frame:
        examined = frame["examined"]
        _require(
            isinstance(examined, int)
            and not isinstance(examined, bool)
            and examined >= 0,
            f"'examined' must be a non-negative integer, got {examined!r}",
        )
    if "cancelled" in frame:
        _require(
            isinstance(frame["cancelled"], bool),
            "'cancelled' must be a boolean",
        )


def _validate_error(frame: Dict) -> None:
    request_id = frame.get("id")
    if request_id is not None:
        _check_id(frame)
    _require(
        frame.get("code") in ERROR_CODES,
        f"'code' must be one of {ERROR_CODES}, got {frame.get('code')!r}",
    )
    _require(
        isinstance(frame.get("message"), str), "'message' must be a string"
    )
    if "retry_after_ms" in frame:
        # Load-shedding hint: only 'overloaded' errors carry it today,
        # but any error is allowed to (additive, like unknown fields).
        retry = frame["retry_after_ms"]
        _require(
            isinstance(retry, (int, float))
            and not isinstance(retry, bool)
            and retry >= 0,
            f"'retry_after_ms' must be a non-negative number, "
            f"got {retry!r}",
        )


def _validate_hello(frame: Dict) -> None:
    protocol = frame.get("protocol")
    _require(
        isinstance(protocol, int)
        and not isinstance(protocol, bool)
        and protocol >= 1,
        f"'protocol' must be a positive integer, got {protocol!r}",
    )
    _require(
        isinstance(frame.get("server"), str), "'server' must be a string"
    )
    points = frame.get("points")
    _require(
        isinstance(points, int)
        and not isinstance(points, bool)
        and points >= 0,
        f"'points' must be a non-negative integer, got {points!r}",
    )


def _finite_number(value) -> bool:
    """Whether ``value`` is a finite JSON number (bools excluded).

    Python's ``json.loads`` accepts the non-standard ``NaN`` /
    ``Infinity`` literals by default, so finiteness must be enforced
    here — a non-finite coordinate would corrupt every distance and
    containment computation downstream.  An integer past float range is
    no finite coordinate either.
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large to convert to float
        return False


def _validate_insert(frame: Dict) -> None:
    _check_id(frame)
    for key in ("x", "y"):
        value = frame.get(key)
        _require(
            _finite_number(value),
            f"{key!r} must be a finite number, got {value!r}",
        )


def _validate_extend(frame: Dict) -> None:
    _check_id(frame)
    points = frame.get("points")
    _require(
        isinstance(points, list) and len(points) >= 1,
        "'points' must be a non-empty list of [x, y] pairs",
    )
    if len(points) > MAX_WRITE_POINTS:
        # Well-formed but over the server's apply budget: a resource
        # rejection (``bad-request``), not a malformed frame.
        raise ProtocolError(
            "bad-request",
            f"'points' carries {len(points)} pairs, over the "
            f"{MAX_WRITE_POINTS}-pair extend limit; split the load "
            "across frames",
        )
    # C-level passes over the pairs and their coordinates (``bool`` is not
    # ``int`` by type); the per-pair loop runs only to name a bad pair, or
    # to accept subclasses (a numpy float) as it always has.
    try:
        if (
            set(map(type, points)) <= {list, tuple}
            and set(map(len, points)) == {2}
            and set(map(type, chain.from_iterable(points))) <= {int, float}
            and all(map(math.isfinite, chain.from_iterable(points)))
        ):
            return
    except OverflowError:  # an int past float range: the loop names its pair
        pass
    for pair in points:
        _require(
            isinstance(pair, (list, tuple))
            and len(pair) == 2
            and _finite_number(pair[0])
            and _finite_number(pair[1]),
            f"every extend point must be a finite [x, y] pair, got {pair!r}",
        )


def _validate_delete(frame: Dict) -> None:
    _check_id(frame)
    row = frame.get("row")
    _require(
        isinstance(row, int) and not isinstance(row, bool) and row >= 0,
        f"'row' must be a non-negative integer row id, got {row!r}",
    )


def _validate_write(frame: Dict) -> None:
    _check_id(frame)
    _require(
        frame.get("op") in WRITE_OPS,
        f"'op' must be one of {WRITE_OPS}, got {frame.get('op')!r}",
    )
    rows = frame.get("rows")
    _require(
        isinstance(rows, list) and (not rows or set(map(type, rows)) == {int}),
        "'rows' must be a list of integer row ids",
    )
    for key in ("version", "points"):
        value = frame.get(key)
        _require(
            isinstance(value, int)
            and not isinstance(value, bool)
            and value >= 0,
            f"{key!r} must be a non-negative integer, got {value!r}",
        )


def _validate_stats(frame: Dict) -> None:
    # The request form is bare {"type": "stats"}; the response form adds
    # the three payload objects.  Either all three are present or none;
    # the 'subscriptions' section rides along additively (servers
    # without live queries simply omit it).
    sections = [key for key in ("server", "coalescer", "engine") if key in frame]
    if sections:
        _require(
            len(sections) == 3,
            "a stats response carries 'server', 'coalescer', and 'engine'",
        )
        for key in sections:
            _require(
                isinstance(frame[key], dict),
                f"{key!r} must be an object",
            )
    for extra in ("subscriptions", "latency"):
        # Additive sections: 'subscriptions' (live queries, PR 7) and
        # 'latency' (per-kind histograms + admission wait) ride on a
        # full response only; servers without the feature omit them.
        if extra in frame:
            _require(
                len(sections) == 3,
                f"{extra!r} only rides on a full stats response",
            )
            _require(
                isinstance(frame[extra], dict),
                f"{extra!r} must be an object",
            )


def _check_version(frame: Dict) -> None:
    """Validate the data ``version`` field (non-negative int)."""
    version = frame.get("version")
    _require(
        isinstance(version, int)
        and not isinstance(version, bool)
        and version >= 0,
        f"'version' must be a non-negative integer, got {version!r}",
    )


def _check_id_transport(frame: Dict, key: str) -> None:
    """Validate a row-id field in either transport: ``key``/``key_packed``."""
    packed = frame.get(f"{key}_packed")
    if packed is not None:
        _require(
            key not in frame,
            f"a frame carries {key!r} or '{key}_packed', not both",
        )
        _require(
            isinstance(packed, str),
            f"'{key}_packed' must be a base64 string",
        )
        return
    ids = frame.get(key)
    _require(isinstance(ids, list), f"{key!r} must be a list")
    _require(
        not ids or set(map(type, ids)) == {int},
        f"{key!r} ids must all be integers",
    )


def _validate_subscribe(frame: Dict) -> None:
    _check_id(frame)
    _require(
        isinstance(frame.get("spec"), dict),
        "'spec' must be a JSON object (see repro.query.serialize)",
    )
    if "packed" in frame:
        _require(
            isinstance(frame["packed"], bool),
            f"'packed' must be a boolean, got {frame['packed']!r}",
        )


def _validate_subscribed(frame: Dict) -> None:
    _check_id(frame)
    _check_version(frame)
    _check_id_transport(frame, "ids")


def _validate_notify(frame: Dict) -> None:
    _check_id(frame)
    _check_version(frame)
    _check_id_transport(frame, "added")
    _check_id_transport(frame, "removed")


def _validate_unsubscribed(frame: Dict) -> None:
    _check_id(frame)
    notifications = frame.get("notifications")
    _require(
        isinstance(notifications, int)
        and not isinstance(notifications, bool)
        and notifications >= 0,
        "'notifications' must be a non-negative integer, "
        f"got {notifications!r}",
    )


_VALIDATORS = {
    "query": _validate_query,
    "next": _check_id,
    "cancel": _check_id,
    "stats": _validate_stats,
    "insert": _validate_insert,
    "extend": _validate_extend,
    "delete": _validate_delete,
    "hello": _validate_hello,
    "result": _validate_result,
    "chunk": _validate_chunk,
    "error": _validate_error,
    "write": _validate_write,
    "subscribe": _validate_subscribe,
    "unsubscribe": _check_id,
    "subscribed": _validate_subscribed,
    "notify": _validate_notify,
    "unsubscribed": _validate_unsubscribed,
}


def validate_frame(frame: Dict) -> Dict:
    """Structurally validate ``frame``; returns it unchanged.

    Raises :class:`ProtocolError` (code ``bad-frame``) on a missing or
    unknown ``type`` or any field of the wrong shape.  Unknown *extra*
    fields are tolerated (minor-version forward compatibility).
    """
    _require(isinstance(frame, dict), "a frame must be a JSON object")
    frame_type = frame.get("type")
    validator = _VALIDATORS.get(frame_type)
    _require(
        validator is not None,
        f"unknown frame type {frame_type!r}; expected one of "
        f"{tuple(sorted(_VALIDATORS))}",
    )
    validator(frame)
    return frame


def encode_frame(frame: Dict) -> bytes:
    """Validate and serialise ``frame`` as one UTF-8 NDJSON line.

    The output ends with exactly one ``\\n`` and contains no other
    newline (``json.dumps`` never emits raw control characters), so
    frames can be framed by ``readline`` on the receiving side.  Frames
    over :data:`MAX_LINE_BYTES` raise :class:`ProtocolError`.
    """
    validate_frame(frame)
    try:
        line = json.dumps(
            frame, separators=(",", ":"), allow_nan=False
        ).encode("utf-8") + b"\n"
    except (TypeError, ValueError) as exc:
        raise ProtocolError(
            "bad-frame", f"frame is not JSON-serialisable: {exc}"
        ) from exc
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            "bad-frame",
            f"frame of {len(line)} bytes exceeds the "
            f"{MAX_LINE_BYTES}-byte line limit",
        )
    return line


def decode_frame(line: bytes | str) -> Dict:
    """Parse and validate one NDJSON line into a frame dict.

    Accepts the raw line with or without its trailing newline.  Raises
    :class:`ProtocolError` (code ``bad-frame``) on oversized input,
    undecodable bytes, non-JSON, a non-object payload, or any schema
    violation :func:`validate_frame` detects.
    """
    if isinstance(line, (bytes, bytearray)):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(
                "bad-frame",
                f"line of {len(line)} bytes exceeds the "
                f"{MAX_LINE_BYTES}-byte limit",
            )
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(
                "bad-frame", f"line is not valid UTF-8: {exc}"
            ) from exc
    else:
        text = line
    try:
        frame = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProtocolError(
            "bad-frame", f"line is not valid JSON: {exc}"
        ) from exc
    return validate_frame(frame)


def parse_query_spec(frame: Dict) -> Query:
    """Rebuild the :class:`~repro.query.spec.Query` of a ``query`` frame.

    Wraps :func:`repro.query.serialize.spec_from_dict`, converting its
    :class:`ValueError`/:class:`KeyError`/:class:`TypeError` (and the
    :class:`OverflowError` of an integer past float range) into a
    :class:`ProtocolError` with code ``bad-spec`` so the server can
    answer with a per-request ``error`` frame instead of dropping the
    connection.
    """
    try:
        return spec_from_dict(frame["spec"])
    except ProtocolError:
        raise
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise ProtocolError("bad-spec", f"unusable query spec: {exc}") from exc


def pack_ids(ids) -> str:
    """Encode result row ids as one base64 string (``ids_packed``).

    ``ids`` (any int sequence or integer ndarray) is packed as a
    little-endian int64 array and base64-encoded — one C-speed pass per
    side instead of one JSON number parse per row; a record's int32
    ``id_array`` is widened in one cast, so the wire stays int64.
    (Standard base64, not base85: CPython's ``b85encode`` is a
    pure-Python loop, which would put a Python-per-chunk cost right back
    on the hot path.)  The inverse is :func:`unpack_ids`.
    """
    import base64

    import numpy as np

    array = np.ascontiguousarray(ids, dtype="<i8")
    return base64.b64encode(array.tobytes()).decode("ascii")


def unpack_ids(packed: str) -> List[int]:
    """Decode an ``ids_packed`` field back to the row-id list.

    Raises :class:`ProtocolError` (``bad-frame``) on anything that is
    not a well-formed base64 int64 array — the receiving side's
    validation of packed frames lives here, where the bytes are decoded
    anyway.
    """
    import base64
    import binascii

    import numpy as np

    try:
        raw = base64.b64decode(packed.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError, binascii.Error) as exc:
        raise ProtocolError(
            "bad-frame", f"'ids_packed' is not valid base64: {exc}"
        ) from exc
    if len(raw) % 8:
        raise ProtocolError(
            "bad-frame",
            f"'ids_packed' decodes to {len(raw)} bytes, "
            "not a whole number of int64 ids",
        )
    return np.frombuffer(raw, dtype="<i8").tolist()


def result_ids(frame: Dict) -> List[int]:
    """The row ids of a validated ``result`` frame, either transport.

    Unpacks ``ids_packed`` when present, otherwise returns the plain
    ``ids`` list — the one accessor response consumers need.
    """
    packed = frame.get("ids_packed")
    if packed is not None:
        return unpack_ids(packed)
    return frame["ids"]


def delta_ids(frame: Dict, key: str) -> List[int]:
    """A notify/subscribed frame's id field, in either transport.

    ``key`` is the plain field name (``"ids"``, ``"added"``,
    ``"removed"``); the packed variant ``{key}_packed`` is unpacked when
    present.  The subscription-frame sibling of :func:`result_ids`.
    """
    packed = frame.get(f"{key}_packed")
    if packed is not None:
        return unpack_ids(packed)
    return frame[key]


def rows_to_wire(rows: Iterable) -> List:
    """Project result rows into their JSON wire form.

    Row ids and distances are already JSON scalars;
    :class:`~repro.geometry.point.Point` rows (``select="points"``)
    become ``[x, y]`` pairs.
    """
    wire: List = []
    for row in rows:
        x = getattr(row, "x", None)
        if x is not None:
            wire.append([x, row.y])
        else:
            wire.append(row)
    return wire


def error_frame(
    request_id: Optional[int],
    code: str,
    message: str,
    *,
    retry_after_ms: Optional[int] = None,
) -> Dict:
    """Build an ``error`` frame (``request_id`` may be None).

    ``retry_after_ms`` attaches the load-shedding hint carried by
    ``overloaded`` errors: how long the client should back off before
    resubmitting.
    """
    frame: Dict = {"type": "error", "code": code, "message": message}
    if request_id is not None:
        frame["id"] = request_id
    if retry_after_ms is not None:
        frame["retry_after_ms"] = retry_after_ms
    return frame
