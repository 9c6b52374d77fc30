"""Exception hierarchy for the VAER reproduction."""


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ConfigurationError(ReproError):
    """Raised when a configuration object is inconsistent or incomplete."""


class SchemaError(ReproError):
    """Raised when tables or pair sets violate the expected relational schema."""


class NotFittedError(ReproError):
    """Raised when a model is used before it has been trained."""


class ArityMismatchError(ReproError):
    """Raised when a transferred representation model meets an incompatible arity."""


class ActiveLearningError(ReproError):
    """Raised when the active-learning loop cannot make progress."""


class StaleEncodingError(ReproError):
    """Raised when cached encodings are invalidated while still being consumed.

    Streaming and pooled resolution pin the representation model's
    ``encoding_version`` when they start; if the model is refit or transferred
    mid-stream, continuing would silently mix scores from two different
    encoders, so the stream fails loudly instead.
    """
