"""Exception hierarchy and process exit-code mapping.

Exit codes: 0 success, 2 usage/validation, 3 transport/credential,
4 split infeasibility.
"""

from __future__ import annotations


class TextKGError(Exception):
    """Base class for all library errors."""


class UsageError(TextKGError):
    """Invalid arguments, options, or preconditions."""


class ValidationError(UsageError):
    """Input data violates a documented contract."""


class ParseError(ValidationError):
    """Malformed record in a graph or dataset file."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def not_utf8(path, error: UnicodeDecodeError, where: str = "") -> ParseError:
    """ParseError for a file that failed to decode as UTF-8, with the
    line of ``path`` that holds the first undecodable byte."""
    line = 1
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, text in enumerate(fh, 1):
            try:
                text.encode("utf-8")
            except UnicodeEncodeError:
                line = lineno
                break
    return ParseError(f"not valid UTF-8{where}: {error.reason}", line=line)


class ConflictError(UsageError):
    """Attempt to register a name that already exists."""


class ConfigurationError(UsageError):
    """A component is selected but not configured (e.g. missing model)."""


class TransportError(TextKGError):
    """Network failure talking to a remote backend.

    ``partial`` may carry per-tuple results recovered before the failure.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class CredentialError(TransportError):
    """Missing or rejected API credential."""


class ApiError(TransportError):
    """Remote API returned a non-success status."""

    def __init__(self, message: str, status: int | None = None, body: str = ""):
        excerpt = body[:200]
        if status is not None:
            message = f"{message} (status {status}): {excerpt}"
        super().__init__(message)
        self.status = status
        self.body = excerpt


class InfeasibleSplitError(TextKGError):
    """No valid non-empty test set exists under the overlap constraint."""


class StageError(TextKGError):
    """Pipeline stage failure; wraps the original error with the stage name."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.__cause__ = cause


def exit_code_for(exc: BaseException) -> int:
    """Map an exception (following its cause chain) to a CLI exit code."""
    seen: set[int] = set()
    cur: BaseException | None = exc
    while cur is not None and id(cur) not in seen:
        seen.add(id(cur))
        if isinstance(cur, InfeasibleSplitError):
            return 4
        if isinstance(cur, TransportError):
            return 3
        if isinstance(cur, UsageError):
            return 2
        cur = cur.__cause__
    return 1
