"""Exception hierarchy shared across the package."""


class BugStepsError(Exception):
    """Base class for all errors raised by this package."""


class CommandFailed(BugStepsError):
    """A driver infrastructure command exited nonzero or timed out."""

    def __init__(self, command, detail):
        super().__init__(f"command failed: {command!r}: {detail}")
        self.command = command
        self.detail = detail


class EmptySequence(BugStepsError):
    """Step enumeration produced zero steps."""


class CoverageMissing(BugStepsError):
    """No coverage file matched the configured patterns, or one could not be read."""


class MalformedCoverage(BugStepsError):
    """Coverage data could not be parsed."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class NotReproducible(BugStepsError):
    """The full step sequence passed; there is no failure to isolate."""


class InconsistentOracle(BugStepsError):
    """The same retained subset produced contradictory outcomes."""


class DegenerateSpectrum(BugStepsError):
    """Spectrum scoring requires at least one passing and one failing run."""


class UnmappedStatement(BugStepsError):
    """Scored statements could not be mapped to an aggregation unit."""

    def __init__(self, orphans):
        self.orphans = sorted(orphans)
        preview = ", ".join(str(o) for o in self.orphans[:5])
        super().__init__(
            f"{len(self.orphans)} scored statement(s) have no aggregation unit: {preview}"
        )


class GranularityMismatch(BugStepsError):
    """Ground truth granularity does not match the report granularity."""


class GenerationFailed(BugStepsError):
    """Scenario generation exhausted its retry budget."""


class InvalidConfig(BugStepsError):
    """A driver config or manifest file is malformed."""
