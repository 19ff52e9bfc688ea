"""Streaming: push-based correlation monitoring and alerting (S8).

:class:`OnlineCorrelationMonitor` runs Dangoron's window loop over appended
columns; :class:`NetworkChangeMonitor` turns its windows into typed alerts.
"""

from repro.streaming.monitor import (
    ALERT_DENSITY_JUMP,
    ALERT_EDGE_APPEARED,
    ALERT_EDGE_DROPPED,
    ALERT_NETWORK_SHIFT,
    NetworkAlert,
    NetworkChangeMonitor,
)
from repro.streaming.online import OnlineCorrelationMonitor, OnlineWindowResult

__all__ = [
    "ALERT_DENSITY_JUMP",
    "ALERT_EDGE_APPEARED",
    "ALERT_EDGE_DROPPED",
    "ALERT_NETWORK_SHIFT",
    "NetworkAlert",
    "NetworkChangeMonitor",
    "OnlineCorrelationMonitor",
    "OnlineWindowResult",
]
