"""repro.core — the Nexus multimethod communication architecture.

The paper's primary contribution: communication links (startpoint →
endpoint) with remote service requests, mobile descriptor tables,
automatic/manual method selection, unified polling with ``skip_poll``,
selective polling, blocking handlers, a forwarding service, enquiry
functions, and an adaptive skip_poll controller (the paper's future-work
extension).
"""

from .adaptive import AdaptiveConfig, AdaptiveSkipPoll
from .buffers import Buffer
from .commobject import CommObject
from .context import Context, Handler
from .descriptor_table import CommDescriptorTable
from .endpoint import Endpoint
from . import enquiry
from .enquiry import (
    EnquiryReport,
    HealthReport,
    PhaseStats,
    PollReport,
    TransportStats,
    applicable_methods,
    available_methods,
    current_methods,
    enabled_transports,
    estimate_one_way,
    health_report,
    healthy_methods,
    link_profile,
)
from .errors import (
    BindError,
    BufferError_,
    HandlerError,
    NexusError,
    PollingError,
    SelectionError,
)
from .forwarding import ForwardingService
from .health import HealthConfig, HealthTracker
from .polling import PollManager, PollStats
from .retry import NO_RETRY, RetryPolicy
from .runtime import Nexus
from .selection import (
    FirstApplicable,
    PreferMethod,
    QoSAware,
    RequireMethod,
    SelectionPolicy,
    SiteSecurityPolicy,
    method_profile,
)
from .startpoint import Link, Startpoint, WireLink, WireStartpoint

__all__ = [
    "AdaptiveConfig",
    "AdaptiveSkipPoll",
    "BindError",
    "Buffer",
    "BufferError_",
    "CommDescriptorTable",
    "CommObject",
    "Context",
    "Endpoint",
    "EnquiryReport",
    "FirstApplicable",
    "ForwardingService",
    "Handler",
    "HandlerError",
    "HealthConfig",
    "HealthReport",
    "HealthTracker",
    "Link",
    "NO_RETRY",
    "Nexus",
    "NexusError",
    "PhaseStats",
    "PollManager",
    "PollReport",
    "PollStats",
    "PollingError",
    "PreferMethod",
    "QoSAware",
    "RequireMethod",
    "RetryPolicy",
    "SelectionError",
    "SelectionPolicy",
    "SiteSecurityPolicy",
    "Startpoint",
    "TransportStats",
    "WireLink",
    "WireStartpoint",
    "applicable_methods",
    "available_methods",
    "current_methods",
    "enabled_transports",
    "enquiry",
    "estimate_one_way",
    "health_report",
    "healthy_methods",
    "link_profile",
    "method_profile",
]
