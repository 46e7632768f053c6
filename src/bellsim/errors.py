"""Exception hierarchy shared across the simulator."""


class SimulationError(Exception):
    """Base class for all simulator-specific failures."""


class ImpossibleEvidenceError(SimulationError):
    """Conditioning on an assignment whose probability is zero."""


class RealismViolationError(SimulationError):
    """An observer factually received an event their ledger rules out.

    Raised instead of :class:`ImpossibleEvidenceError` when the zero-probability
    assignment arrives as a factual reception or during information pooling,
    i.e. when two observers' records would contradict each other.
    """


class InvalidScheduleError(SimulationError):
    """Stage times or geometry violate the experiment's causal layout.

    ``part`` names the config key at fault: ``"positions"``, ``"stage_times"``,
    ``"signal_speed"`` or ``"c"``.
    """

    def __init__(self, message: str, part: str = "stage_times"):
        super().__init__(message)
        self.part = part


class UnsupportedScenarioError(SimulationError):
    """Operation is defined only for the two-setting/two-outcome scenario."""


class MissingDataError(SimulationError):
    """A dataset lacks trials for a required setting pair."""


class ConfigError(SimulationError):
    """Configuration is invalid; carries every ``(path, reason)`` pair found."""

    def __init__(self, errors):
        self.errors = [(str(p), str(r)) for p, r in errors]
        detail = "; ".join(f"{p}: {r}" for p, r in self.errors)
        super().__init__(f"invalid configuration: {detail}")
