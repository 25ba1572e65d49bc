"""Exception hierarchy shared across the package."""


class FlatlinkError(Exception):
    """Base class for all errors raised by this package."""


class NTriplesParseError(FlatlinkError):
    """A single N-Triples line could not be parsed."""


class FlatRecordError(FlatlinkError):
    """A flat entity record line or token is malformed."""


class EngineError(FlatlinkError):
    """The engine refused its config, an item or an output or spill path, or
    read a truncated spill run."""


class LinkJoinError(FlatlinkError):
    """A linkage input is invalid or a join precondition fails."""


class ConfigError(FlatlinkError):
    """Bad CLI flags or pipeline configuration."""
