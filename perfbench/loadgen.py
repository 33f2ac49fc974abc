"""Wire-protocol v1 client and the single-threaded load generator.

Speaks the NDJSON protocol documented in ``repro.server.protocol`` with
frames built by hand; imports nothing from ``repro``.  One thread drives
every connection through ``select`` (microsecond timeouts, unlike epoll's
millisecond ones); how late it sent each request is measured, not
assumed.

Closed loop: each sending connection keeps a fixed number of requests in
flight and sends the next only when a response arrives; latency runs
from the send.  Open loop: requests go out on a precomputed Poisson
schedule whatever the server does; latency runs from the instant a
request was *due*, so a stall is charged to every request it delayed.
"""

from __future__ import annotations

import base64
import gc
import json
import select
import socket
import time
from dataclasses import dataclass, field

import numpy as np

from perfbench.inputs import canary_ms
from perfbench.settings import ORACLE_EVERY, TIMEOUT_S

PROTOCOL_VERSION = 1

#: Requests one connection keeps in flight at most in the open loop
#: (the server's own per-connection limit is 32).
OPEN_LOOP_CAP = 24


def unpack_ids(packed: str) -> list:
    """Decode the packed id transport: base64 of little-endian int64."""
    return np.frombuffer(base64.b64decode(packed), dtype="<i8").tolist()


def frame_ids(frame: dict, key: str = "ids") -> list:
    """The ids of a result/subscribed/notify frame, packed or plain."""
    packed = frame.get(key + "_packed")
    return unpack_ids(packed) if packed is not None else list(frame[key])


class Wire:
    """One protocol-v1 connection."""

    def __init__(self, address: tuple) -> None:
        self.sock = socket.create_connection(address, timeout=10.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self._inbuf = bytearray()
        self._outbuf = bytearray()
        self._queue: list = []  # frames received by call() but not consumed
        #: server-pushed frames (``notify``) met while waiting in call()
        self.pushed: list = []
        self.hello = self._next_frame(10.0)
        if self.hello.get("protocol") != PROTOCOL_VERSION:
            raise RuntimeError(f"unexpected hello frame: {self.hello!r}")

    def close(self) -> None:
        self.sock.close()

    @property
    def backlogged(self) -> bool:
        """Bytes the kernel has not accepted yet."""
        return bool(self._outbuf)

    def send(self, data: bytes) -> None:
        self._outbuf += data
        self.flush()

    def flush(self) -> None:
        try:
            sent = self.sock.send(self._outbuf)
        except BlockingIOError:
            return
        del self._outbuf[:sent]

    def receive_lines(self) -> list:
        """Read what is available; returns the completed lines, unparsed."""
        try:
            chunk = self.sock.recv(1 << 18)
        except BlockingIOError:
            return []
        if not chunk:
            raise ConnectionError("the server closed the connection")
        self._inbuf += chunk
        *lines, rest = self._inbuf.split(b"\n")
        self._inbuf = rest
        return [line for line in lines if line]

    def receive(self) -> list:
        """Read what is available; returns the completed frames."""
        return [json.loads(line) for line in self.receive_lines()]

    def _next_frame(self, timeout: float) -> dict:
        """Blocking: the oldest frame not consumed yet."""
        deadline = time.monotonic() + timeout
        while not self._queue:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("no frame from the server")
            writers = [self.sock] if self._outbuf else []
            readable, writable, _ = select.select([self.sock], writers, [], remaining)
            if writable:
                self.flush()
            if readable:
                self._queue.extend(self.receive())
        return self._queue.pop(0)

    def call(self, frame: dict, timeout: float = 60.0) -> dict:
        """Blocking round trip for set-up steps: the response to ``frame``.

        Frames pushed meanwhile (``notify``) collect in ``pushed``.
        """
        self.send(json.dumps(frame, separators=(",", ":")).encode() + b"\n")
        while True:
            answer = self._next_frame(timeout)
            if answer["type"] == "notify":
                self.pushed.append(answer)
            elif answer["type"] == "stats" or answer.get("id") == frame.get("id"):
                return answer
            else:
                raise RuntimeError(f"unexpected frame {answer!r} for {frame!r}")


    def call_many(self, frames: list, in_flight: int = 16, timeout: float = 60.0) -> list:
        """Pipelined round trips for the checks: the answers, in the order
        of ``frames`` (whose ids must differ)."""
        answers: dict = {}
        sent = 0
        while len(answers) < len(frames):
            while sent < len(frames) and sent - len(answers) < in_flight:
                self.send(json.dumps(frames[sent], separators=(",", ":")).encode() + b"\n")
                sent += 1
            answer = self._next_frame(timeout)
            if answer["type"] == "notify":
                self.pushed.append(answer)
            else:
                answers[answer.get("id")] = answer
        return [answers[frame["id"]] for frame in frames]


@dataclass
class Op:
    """One request of a trace: its kind, spec (reads) and wire frame."""

    kind: str  # window | knn | area | delete | insert
    frame: dict  # without "id"; the generator numbers requests


@dataclass
class Phase:
    """What one timed phase recorded, indexed by position in its trace."""

    ops: list
    seconds: float
    started_at: float = 0.0  # perf_counter at phase start
    base_at: np.ndarray = None  # send (closed) or due (open) instants
    ready_at: np.ndarray = None  # base, or when the in-flight cap let go
    sent_at: np.ndarray = None
    recv_at: np.ndarray = None  # nan where no response arrived
    sent: int = 0
    kept: dict = field(default_factory=dict)  # index -> response frame
    area_methods: list = field(default_factory=list)
    notifies: list = field(default_factory=list)  # (recv instant, frame)
    backlog_end: int = 0
    cpu_share: float = 0.0
    canary_ms: list = field(default_factory=list)

    def answered(self, kinds=None) -> np.ndarray:
        """Indices of the answered requests, optionally of some kinds."""
        index = np.flatnonzero(~np.isnan(self.recv_at[: self.sent]))
        if kinds is not None:
            index = np.array([i for i in index if self.ops[i].kind in kinds], dtype=int)
        return index

    def rate(self) -> float:
        """Requests answered within the phase, per second."""
        done = self.recv_at[self.answered()] - self.started_at
        return float((done <= self.seconds).sum() / self.seconds)

    def latencies_ms(self, kinds=None) -> np.ndarray:
        index = self.answered(kinds)
        return (self.recv_at[index] - self.base_at[index]) * 1000.0

    def late_ms(self) -> np.ndarray:
        """How far behind its schedule the generator sent each request.

        Counted from the instant it *could* send: a request held back
        because its connection was at the in-flight cap waits for the
        program, not for the generator (and pays for it in its latency,
        which runs from the due instant).
        """
        return (self.sent_at[: self.sent] - self.ready_at[: self.sent]) * 1000.0

    def held_share(self) -> float:
        """Share of the requests the in-flight cap held back."""
        held = self.ready_at[: self.sent] > self.base_at[: self.sent]
        return float(held.mean()) if self.sent else 0.0


class LoadGenerator:
    """Drives ``senders`` (and listens on ``listeners``) from one thread.

    While a phase runs, received lines are only counted and stamped;
    they are parsed when the phase is over, so that decoding a burst of
    responses never makes the next request late.  Every line on a
    sending connection answers one request of that connection (the
    program pushes ``notify`` frames to the subscribing connection only).
    """

    def __init__(self, senders: list, listeners: list = ()) -> None:
        self.senders = list(senders)
        self.listeners = list(listeners)
        self._next_id = 1_000_000  # clear of set-up and subscription ids

    # -- the two loops ------------------------------------------------------

    def closed_loop(self, ops: list, seconds: float, in_flight: int, more) -> Phase:
        """``in_flight`` requests per sender until ``seconds`` passed.

        ``more(count)`` supplies further ops should the program outrun the
        pre-encoded trace; a faster program must never idle the loop.
        """
        phase = self._begin(ops, seconds)
        for sender in self.senders:
            for _ in range(in_flight):
                self._send(phase, sender, time.perf_counter())
        deadline = phase.started_at + seconds
        while True:
            now = time.perf_counter()
            if now >= deadline:
                break
            for sender in self._pump(deadline - now):
                if phase.sent == len(phase.ops):
                    self._extend(phase, more(1024))
                self._send(phase, sender, time.perf_counter())
        self._finish(phase)
        return phase

    def open_loop(self, ops: list, due: np.ndarray) -> Phase:
        """Send ``ops[i]`` at ``due[i]`` seconds after the phase start.

        The server refuses a connection's 33rd request in flight, so —
        like any client library — a sender at its cap holds the request
        back until a response frees a slot; the wait is part of the
        latency, which runs from the due instant.
        """
        seconds = float(due[-1])
        phase = self._begin(ops, seconds)
        due_at = phase.started_at + due
        in_flight = dict.fromkeys(self.senders, 0)
        released_at = 0.0  # when the cap last let go of a due request
        while phase.sent < len(ops):
            now = time.perf_counter()
            sender = min(self.senders, key=in_flight.get)
            head_due = due_at[phase.sent]
            if head_due <= now and in_flight[sender] < OPEN_LOOP_CAP:
                self._send(phase, sender, head_due, max(head_due, released_at))
                in_flight[sender] += 1
                continue
            for wire in self._pump(head_due - now if head_due > now else 0.05):
                in_flight[wire] -= 1
            if head_due <= now:
                released_at = time.perf_counter()
        self._finish(phase)
        return phase

    # -- plumbing -----------------------------------------------------------

    def _extend(self, phase: Phase, ops: list) -> None:
        """Append ``ops`` to the phase's trace, numbered and encoded."""
        first = self._next_id + len(phase.ops)
        self._encoded += [
            json.dumps(dict(op.frame, id=first + i), separators=(",", ":")).encode() + b"\n"
            for i, op in enumerate(ops)
        ]
        phase.ops += ops
        blank = np.full(len(ops), np.nan)
        phase.base_at = np.concatenate((phase.base_at, blank))
        phase.ready_at = np.concatenate((phase.ready_at, blank))
        phase.sent_at = np.concatenate((phase.sent_at, blank))
        phase.recv_at = np.concatenate((phase.recv_at, blank))

    def _begin(self, ops: list, seconds: float) -> Phase:
        phase = Phase(ops=[], seconds=seconds)
        phase.base_at = phase.ready_at = phase.sent_at = phase.recv_at = np.empty(0)
        self._encoded = []
        self._received = []  # (instant, line) of every line of the phase
        self._outstanding = 0
        self._extend(phase, list(ops))
        phase.canary_ms.append(canary_ms())
        # a full collection walks every pre-built op and would make the
        # generator milliseconds late; nothing here cycles
        gc.disable()
        self._cpu_started = time.process_time()
        phase.started_at = time.perf_counter()
        return phase

    def _send(self, phase: Phase, sender: Wire, base: float, ready: float = None) -> None:
        index = phase.sent
        phase.base_at[index] = base
        phase.ready_at[index] = base if ready is None else ready
        sender.send(self._encoded[index])
        phase.sent_at[index] = time.perf_counter()
        phase.sent += 1
        self._outstanding += 1

    def _pump(self, timeout: float) -> list:
        """Wait up to ``timeout`` for traffic; returns the sender of
        every response that arrived meanwhile."""
        wires = self.senders + self.listeners
        writers = [wire.sock for wire in wires if wire.backlogged]
        readable, writable, _ = select.select(
            [wire.sock for wire in wires], writers, [], max(0.0, timeout)
        )
        answered = []
        for wire in wires:
            if wire.sock in writable:
                wire.flush()
            if wire.sock not in readable:
                continue
            lines = wire.receive_lines()
            now = time.perf_counter()
            self._received += [(now, line) for line in lines]
            if wire in self.senders:
                answered += [wire] * len(lines)
        self._outstanding -= len(answered)
        return answered

    def _finish(self, phase: Phase) -> None:
        """Record the backlog, wait out what is still in flight, then
        parse what the phase received."""
        ended = time.perf_counter()
        phase.backlog_end = self._outstanding
        phase.cpu_share = (time.process_time() - self._cpu_started) / max(
            ended - phase.started_at, 1e-9
        )
        deadline = ended + TIMEOUT_S
        while self._outstanding and time.perf_counter() < deadline:
            self._pump(deadline - time.perf_counter())
        # let the notifications of the last writes arrive
        seen = -1
        while self.listeners and seen != len(self._received):
            seen = len(self._received)
            self._pump(0.05)
        gc.enable()
        for now, line in self._received:
            frame = json.loads(line)
            if frame["type"] == "notify":
                phase.notifies.append((now, frame))
                continue
            index = frame.get("id", -1) - self._next_id
            if not 0 <= index < phase.sent or not np.isnan(phase.recv_at[index]):
                raise RuntimeError(f"unexpected frame {frame!r}")
            phase.recv_at[index] = now
            if frame["type"] in ("error", "write") or index % ORACLE_EVERY == 0:
                phase.kept[index] = frame
            if phase.ops[index].kind == "area" and "stats" in frame:
                phase.area_methods.append(frame["stats"]["method"])
        self._received = []
        self._next_id += len(phase.ops)
        phase.canary_ms.append(canary_ms())


def poisson_schedule(rng: np.random.Generator, rate: float, seconds: float) -> np.ndarray:
    """Seeded Poisson arrival instants over ``seconds`` at ``rate``/s."""
    count = max(1, int(rate * seconds))
    gaps = rng.exponential(1.0 / rate, count)
    due = np.cumsum(gaps)
    return due * (seconds / due[-1])  # exactly fill the phase
