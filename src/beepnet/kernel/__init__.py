"""The round kernel: one numpy implementation, in `beepnet.kernel.fallback`.

`active` is that module and `IMPL` its name ("numpy"); callers may bind
either the module (as c2b does) or the package-level functions. Trace
validation rechecks noise without this package (see engine.validate_trace).
"""

from __future__ import annotations

from beepnet.kernel import fallback

active = fallback

IMPL = active.IMPL

or_neighbor_patterns = active.or_neighbor_patterns
expand_patterns = active.expand_patterns

__all__ = [
    "IMPL",
    "active",
    "fallback",
    "or_neighbor_patterns",
    "expand_patterns",
]
