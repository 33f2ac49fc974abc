"""Library exception hierarchy.

All repro-specific failures derive from :class:`ReproError`, so callers can
catch one type; the concrete subclasses state *what* was wrong with which
input.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class EmptyDatabaseError(ReproError):
    """A query was issued against a database with no points."""


class InvalidQueryAreaError(ReproError):
    """The query area polygon is unusable (degenerate or self-intersecting)."""
