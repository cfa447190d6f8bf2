"""Exception types shared across the package.

Everything raised on purpose derives from PathalgError so callers (and the
CLI) can tell structured failures apart from bugs.  Errors that carry a
counterexample expose it as ``.witness``.  ``exit_code`` is the code the
CLI exits with: 2 for malformed input, 1 where the check ran and the
answer is no.
"""


class PathalgError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 2


class GraphError(PathalgError):
    pass


class DuplicateId(GraphError):
    pass


class DanglingEndpoint(GraphError):
    pass


class NonComposablePath(GraphError):
    pass


class UnsupportedInfiniteEmitter(GraphError):
    """An operation needed edges that an infinite-emitter flag leaves unlisted."""


class MorphismError(PathalgError):
    pass


class InvalidPathHom(MorphismError):
    """The given vertex/edge assignment does not define a path homomorphism."""

    def __init__(self, message, generator=None):
        super().__init__(message)
        self.generator = generator


class DomainMismatch(MorphismError):
    exit_code = 1


class AlgebraError(PathalgError):
    pass


class ContextMismatch(AlgebraError):
    pass


class StarInPathMode(AlgebraError):
    """Ghost generators only exist in Cohn-type contexts, not in path algebras."""


class _WitnessedError(AlgebraError):
    exit_code = 1

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotVertexInjective(_WitnessedError):
    pass


class NotMonotone(_WitnessedError):
    pass


class NotRegular(_WitnessedError):
    pass


class InclusionError(PathalgError):
    pass


class InvalidInclusion(InclusionError):
    pass


class NotAdmissible(InclusionError):
    exit_code = 1

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class AmbiguousInfiniteEmitter(InclusionError):
    """The declared data about an infinite emitter cannot settle the question."""

    def __init__(self, message, vertex=None):
        super().__init__(message)
        self.vertex = vertex


class PullbackError(PathalgError):
    exit_code = 1


class HypothesisNotMet(PullbackError):
    pass


class PreimageNotFound(PullbackError):
    def __init__(self, message, path=None):
        super().__init__(message)
        self.path = path


class ExpressionError(PathalgError):
    pass


class ParseError(ExpressionError):
    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UnknownIdentifier(ExpressionError):
    pass


class FileFormatError(PathalgError):
    """A JSON document does not have the expected shape."""
