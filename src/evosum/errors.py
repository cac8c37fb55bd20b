"""Exception hierarchy: one class per CLI exit code.

``ScenarioParseError`` (exit 2) is a malformed scenario file,
``ValidationError`` (exit 3) an input that breaks a constraint of the
model, and ``NumericalError`` (exit 4) a numerical step that is undefined
for the input. The message names the check that failed.
"""

from __future__ import annotations


class EvosumError(Exception):
    """Base class for all errors raised by this package."""


class ScenarioParseError(EvosumError):
    """Scenario file is malformed (bad syntax, missing or unknown fields)."""


class ValidationError(EvosumError):
    """Input violates a structural or conservation constraint."""


class NumericalError(EvosumError):
    """A numerical procedure failed or is undefined for the input."""
