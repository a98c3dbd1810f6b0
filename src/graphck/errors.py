"""Exception types shared across the package.

Two branches matter for the CLI: DocumentError (malformed input, exit 2)
and PreconditionError (operation called outside its contract, exit 3).
"""

import sys


class GraphAlgebraError(Exception):
    """Base class for every error raised by this package."""


class DocumentError(GraphAlgebraError):
    """Malformed input document or flag value."""


class FamilyError(DocumentError):
    """Unknown builtin family name or invalid family parameters."""


class PreconditionError(GraphAlgebraError):
    """An operation was invoked on input outside its stated contract."""


class GraphBuildError(PreconditionError):
    """Duplicate ids, dangling endpoints, or a zero-count finite bundle."""


class UnknownVertexError(PreconditionError):
    """A vertex id that does not belong to the graph."""


class CyclicGraphError(PreconditionError):
    """The operation requires an acyclic graph."""


class InfiniteBundleError(PreconditionError):
    """The operation requires every edge bundle to be finite."""


class EmptyGraphError(PreconditionError):
    """The operation requires at least one vertex."""


class NotHereditaryError(PreconditionError):
    """A vertex set that had to be hereditary is not."""


class BoundExceededError(PreconditionError):
    """A size or work guard tripped (lattice elements, lattice work, model
    basis paths, or a count too long to print)."""


def decimal(n: int, what: str) -> str:
    """``str(n)``, refused past the interpreter's digit limit."""
    try:
        return str(n)
    except ValueError:
        raise BoundExceededError(f"{what} has more than "
                                 f"{sys.get_int_max_str_digits()} digits") from None


class StageError(PreconditionError):
    """Staged-family contract violation: non-monotone stages, a broken
    uniform-profile claim, or mismatched stages fed to a comparison."""


class SpineError(PreconditionError):
    """A chain spine is invalid: an out-edge leaves the spine, or a tail
    edge is not its source's only out-edge."""


class RelativeSpecError(PreconditionError):
    """A relative spec that is not a set of regular vertices, or a
    decomposition that needs the full relation everywhere."""


class ChainError(PreconditionError):
    """A Bratteli chain that is too short or breaks its dimension law."""


class InternalCheckError(GraphAlgebraError):
    """A cross-check between two independent routes failed; this is a bug
    in the package, not a user error."""
