"""Exception hierarchy: one class per CLI exit code.

Each class raised carries its exit code as ``exit_code``, which the CLI
returns: ``ScenarioParseError`` (2) is a malformed scenario file,
``ValidationError`` (3) an input that breaks a constraint of the model,
and ``NumericalError`` (4) a numerical step that is undefined for the
input. The message names the check that failed.
"""

from __future__ import annotations


class EvosumError(Exception):
    """Base class for all errors raised by this package."""

    exit_code: int


class ScenarioParseError(EvosumError):
    """Scenario file is malformed (bad syntax, missing or unknown fields)."""

    exit_code = 2


class ValidationError(EvosumError):
    """Input violates a structural or conservation constraint."""

    exit_code = 3


class NumericalError(EvosumError):
    """A numerical procedure failed or is undefined for the input."""

    exit_code = 4
