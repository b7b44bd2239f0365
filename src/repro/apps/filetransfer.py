"""Bulk file transfer — the archetypal reliable-stream application.

This is "type of service" number one from the paper's §5: a service
dominated by throughput, indifferent to per-packet delay, demanding
perfect reliability.  The protocol is minimal FTP-in-spirit: an 8-byte
length header, then the bytes; the receiver knows completion from the
header, the sender closes after the last byte is acknowledged.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Optional

from ..sockets.api import Host, StreamSocket

__all__ = ["FileSender", "FileReceiver", "TransferResult"]

_HEADER = struct.Struct("!Q")


@dataclass
class TransferResult:
    """Outcome of one completed transfer."""

    bytes_transferred: int
    started_at: float
    completed_at: float

    @property
    def duration(self) -> float:
        return self.completed_at - self.started_at

    @property
    def goodput_bps(self) -> float:
        """Application-level throughput in bits/second."""
        if self.duration <= 0:
            return 0.0
        return self.bytes_transferred * 8.0 / self.duration


class FileReceiver:
    """Listens on a port and accepts any number of transfers."""

    def __init__(self, host: Host, port: int = 21,
                 on_complete: Optional[Callable[[TransferResult], None]] = None,
                 *, tcp_config=None):
        self.host = host
        self.port = port
        self.on_complete = on_complete
        self.results: list[TransferResult] = []
        self.active = 0
        host.listen(port, self._accept, config=tcp_config)

    def _accept(self, sock: StreamSocket) -> None:
        self.active += 1
        session = _ReceiveSession(self, sock)
        sock.on_data = session.data
        sock.on_closed = session.closed


class _ReceiveSession:
    """Per-connection state: header parsing and completion tracking."""

    def __init__(self, receiver: FileReceiver, sock: StreamSocket):
        self.receiver = receiver
        self.sock = sock
        self.expected: Optional[int] = None
        self.received = 0
        self.started_at = receiver.host.sim.now
        self._buffer = bytearray()
        self._done = False

    def data(self, chunk: bytes) -> None:
        if self.expected is None:
            self._buffer.extend(chunk)
            if len(self._buffer) < _HEADER.size:
                return
            (self.expected,) = _HEADER.unpack(bytes(self._buffer[:_HEADER.size]))
            chunk = bytes(self._buffer[_HEADER.size:])
            self._buffer.clear()
        self.received += len(chunk)
        if not self._done and self.expected is not None and self.received >= self.expected:
            self._done = True
            result = TransferResult(
                bytes_transferred=self.received,
                started_at=self.started_at,
                completed_at=self.receiver.host.sim.now,
            )
            self.receiver.results.append(result)
            self.receiver.active -= 1
            if self.receiver.on_complete is not None:
                self.receiver.on_complete(result)
            self.sock.close()

    def closed(self) -> None:
        if not self._done:
            self.receiver.active -= 1  # transfer aborted


class FileSender:
    """Pushes ``size`` bytes to a receiver and reports completion."""

    def __init__(self, host: Host, remote, port: int, size: int,
                 *, chunk: int = 8192, pattern: bytes = b"\xa5",
                 tcp_config=None,
                 on_complete: Optional[Callable[[TransferResult], None]] = None):
        if size < 0:
            raise ValueError("size must be non-negative")
        self.host = host
        self.size = size
        self.chunk = chunk
        self.pattern = pattern
        self.on_complete = on_complete
        self.result: Optional[TransferResult] = None
        self.started_at = host.sim.now
        self.sock = host.connect(remote, port, config=tcp_config)
        self.sock.on_open = self._begin
        self.sock.on_closed = self._closed
        self._sent = 0
        self._finished = False

    def _begin(self) -> None:
        self.sock.write(_HEADER.pack(self.size))
        # The stream socket queues whatever the transport cannot take yet,
        # which for any sizeable transfer is nearly the whole file.
        remaining = self.size
        while remaining > 0:
            n = min(self.chunk, remaining)
            self.sock.write(self.pattern * n)
            remaining -= n
        self.sock.close()

    def _closed(self) -> None:
        if self._finished:
            return
        self._finished = True
        self.result = TransferResult(
            bytes_transferred=self.size,
            started_at=self.started_at,
            completed_at=self.host.sim.now,
        )
        if self.on_complete is not None:
            self.on_complete(self.result)
