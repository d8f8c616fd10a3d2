"""Error taxonomy. Every failure the library raises on purpose derives from CascadeCiteError."""


class CascadeCiteError(Exception):
    """Base class; carries an optional machine-readable detail dict."""

    def __init__(self, message: str, details: dict | None = None):
        super().__init__(message)
        self.details = details or {}


class ParseError(CascadeCiteError):
    pass


class ConfigError(CascadeCiteError):
    pass


class SplitError(CascadeCiteError):
    pass


class StatsError(CascadeCiteError):
    pass


class MalformedCascadeError(CascadeCiteError):
    pass


class TimeViolationError(CascadeCiteError):
    pass


class SchemaError(CascadeCiteError):
    pass


class SchemaMismatchError(CascadeCiteError):
    pass


class BinRangeError(CascadeCiteError):
    pass


class ShapeError(CascadeCiteError):
    pass


class ContractError(CascadeCiteError):
    pass


class NumericError(CascadeCiteError):
    pass


class CheckpointError(CascadeCiteError):
    pass


class TrainingDivergedError(CascadeCiteError):
    pass


class EvaluationError(CascadeCiteError):
    pass
