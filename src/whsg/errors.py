"""Exception types shared across the package."""


class WhsgError(Exception):
    """Base class for structure and procedure errors."""


class ParseError(WhsgError):
    """Malformed structure, table or grammar input."""


class ReservedSymbolError(WhsgError):
    """A reserved separator symbol was declared in an alphabet."""


class InvariantError(WhsgError):
    """A structure invariant failed at load or construction time."""


class OperandError(WhsgError):
    """An operand word lies outside the language it must belong to."""


class EmptyProductError(WhsgError):
    """A product has no representative, so the structure is not interpretable."""
