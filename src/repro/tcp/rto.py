"""Retransmission-timeout estimation policies.

Goal 6 ("host attachment with a low level of effort") has a sharp edge the
paper calls out: the host, not the network, implements the reliability
machinery, and "a poorly implemented host" can hurt itself and the network.
The single most consequential piece of that machinery is the retransmission
timer.  Experiment E6 compares these policies directly:

* :class:`FixedRto` — the naive 1981-era host: a constant timer.  Over a
  satellite path it retransmits everything; over a LAN it recovers losses
  catastrophically slowly.
* :class:`Rfc793Estimator` — the original smoothed-RTT rule
  (``RTO = beta * SRTT``) from the TCP spec.
* :class:`JacobsonKarnEstimator` — the 1988 state of the art: mean + 4x
  deviation, Karn's rule (never sample retransmitted segments), exponential
  backoff.
"""

from __future__ import annotations

from typing import Protocol

__all__ = ["RtoEstimator", "FixedRto", "Rfc793Estimator", "JacobsonKarnEstimator"]


class RtoEstimator(Protocol):
    """Interface every RTO policy implements."""

    def sample(self, rtt: float, *, retransmitted: bool) -> None:
        """Feed one RTT measurement (from segment send to its ack)."""
        ...

    def timeout(self) -> float:
        """Current retransmission timeout in seconds."""
        ...

    def backoff(self) -> None:
        """Called on each retransmission timeout event."""
        ...

    def reset_backoff(self) -> None:
        """Called when new data is acked (the path is alive again)."""
        ...


class FixedRto:
    """A constant retransmission timer — the naive host implementation."""

    def __init__(self, value: float = 3.0):
        self.value = value

    def sample(self, rtt: float, *, retransmitted: bool) -> None:
        pass  # deliberately ignores measurements

    def timeout(self) -> float:
        return self.value

    def backoff(self) -> None:
        pass  # and does not back off — the worst citizen

    def reset_backoff(self) -> None:
        pass

    def __repr__(self) -> str:
        return f"FixedRto({self.value})"


class Rfc793Estimator:
    """The original TCP spec's smoothed-RTT estimator.

    SRTT = alpha*SRTT + (1-alpha)*RTT;  RTO = clamp(beta*SRTT).
    No variance term: it under-times on paths with RTT variance, the failure
    mode Jacobson fixed.
    """

    def __init__(self, alpha: float = 0.875, beta: float = 2.0,
                 min_rto: float = 0.2, max_rto: float = 60.0,
                 initial_rto: float = 3.0):
        self.alpha = alpha
        self.beta = beta
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.srtt: float | None = None
        self._initial = initial_rto
        self._backoff_factor = 1.0

    def sample(self, rtt: float, *, retransmitted: bool) -> None:
        # The original spec had no Karn's rule; it samples everything,
        # including retransmitted segments (a known source of aliasing).
        if self.srtt is None:
            self.srtt = rtt
        else:
            self.srtt = self.alpha * self.srtt + (1 - self.alpha) * rtt

    def timeout(self) -> float:
        base = self._initial if self.srtt is None else self.beta * self.srtt
        return min(self.max_rto, max(self.min_rto, base * self._backoff_factor))

    def backoff(self) -> None:
        self._backoff_factor = min(self._backoff_factor * 2, 64.0)

    def reset_backoff(self) -> None:
        self._backoff_factor = 1.0

    def __repr__(self) -> str:
        return f"Rfc793Estimator(srtt={self.srtt})"


class JacobsonKarnEstimator:
    """Jacobson's mean+variance estimator with Karn's sampling rule.

    RTO = SRTT + 4*RTTVAR, exponential backoff on timeout, and RTT samples
    from retransmitted segments are discarded (Karn) since the ack cannot be
    attributed to a particular transmission.
    """

    def __init__(self, min_rto: float = 0.2, max_rto: float = 60.0,
                 initial_rto: float = 3.0):
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.srtt: float | None = None
        self.rttvar: float = 0.0
        self._initial = initial_rto
        self._backoff_factor = 1.0

    def sample(self, rtt: float, *, retransmitted: bool) -> None:
        if retransmitted:
            return  # Karn's rule
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2
        else:
            err = rtt - self.srtt
            self.srtt += 0.125 * err
            self.rttvar += 0.25 * (abs(err) - self.rttvar)

    def timeout(self) -> float:
        # min(max_rto, max(min_rto, base * backoff)), with base = srtt +
        # max(4 * rttvar, 10 ms), written out: this runs once per ACK.
        if self.srtt is None:
            base = self._initial
        else:
            spread = 4 * self.rttvar
            base = self.srtt + (0.010 if 0.010 > spread else spread)
        rto = base * self._backoff_factor
        if not rto > self.min_rto:
            rto = self.min_rto
        return rto if rto < self.max_rto else self.max_rto

    def backoff(self) -> None:
        self._backoff_factor = min(self._backoff_factor * 2, 64.0)

    def reset_backoff(self) -> None:
        self._backoff_factor = 1.0

    def __repr__(self) -> str:
        return f"JacobsonKarnEstimator(srtt={self.srtt}, rttvar={self.rttvar})"


def make_estimator(kind: str, **kwargs) -> RtoEstimator:
    """Factory by name: 'fixed', 'rfc793' or 'jacobson'."""
    if kind == "fixed":
        return FixedRto(**kwargs)
    if kind == "rfc793":
        return Rfc793Estimator(**kwargs)
    if kind == "jacobson":
        return JacobsonKarnEstimator(**kwargs)
    raise ValueError(f"unknown RTO estimator {kind!r}")
