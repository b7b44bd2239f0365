"""The RFC-793 connection state machine states.

All conversation state lives in the two end hosts — gateways know nothing of
these states.  That placement is fate-sharing (goal 1): the state can only be
lost if the host that owns the conversation is itself lost.
"""

from __future__ import annotations

import enum

__all__ = ["TcpState"]


class TcpState(enum.Enum):
    """The eleven RFC-793 states."""

    CLOSED = "CLOSED"
    LISTEN = "LISTEN"
    SYN_SENT = "SYN_SENT"
    SYN_RECEIVED = "SYN_RECEIVED"
    ESTABLISHED = "ESTABLISHED"
    FIN_WAIT_1 = "FIN_WAIT_1"
    FIN_WAIT_2 = "FIN_WAIT_2"
    CLOSE_WAIT = "CLOSE_WAIT"
    CLOSING = "CLOSING"
    LAST_ACK = "LAST_ACK"
    TIME_WAIT = "TIME_WAIT"

    def __init__(self, value: str):
        # Fixed per state, so set once on each member rather than worked
        # out on every segment.
        #: States in which the application may still submit data.
        self.can_send = value in ("ESTABLISHED", "CLOSE_WAIT")
        #: States in which incoming data is still accepted.
        self.can_receive = value in ("ESTABLISHED", "FIN_WAIT_1", "FIN_WAIT_2")
        #: States after the handshake completes (RFC 793 terminology).
        self.is_synchronized = value not in (
            "CLOSED", "LISTEN", "SYN_SENT", "SYN_RECEIVED")
