"""Exception types shared across the package."""


class GogzError(Exception):
    """Base class for everything raised deliberately by this package."""


class AlphabetError(GogzError):
    """Two words that were expected to live over the same vertex alphabet don't."""


class DegenerateInputError(GogzError):
    """An operation received the identity (or another excluded degenerate input)."""


class ParseError(GogzError):
    """Syntax or validation error in a graph file, word, or relation string.

    Carries a 1-based line and column when they are known (0 means unknown).
    """

    def __init__(self, message, line=0, col=0):
        self.message = message
        self.line = line
        self.col = col
        where = ""
        if line:
            where = f"line {line}"
            if col:
                where += f", col {col}"
            where += ": "
        super().__init__(where + message)


class InternalInconsistencyError(GogzError):
    """A verdict's witness failed independent verification.

    This should never fire; it indicates a bug in the path criteria or in the
    normal-form engine, and the CLI maps it to a distinct exit code.
    """
