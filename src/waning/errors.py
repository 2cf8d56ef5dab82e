"""Exception types shared across the package."""


class WaningError(Exception):
    """Base class for all library errors."""


class DomainError(WaningError):
    """An argument lies outside the mathematical domain of the operation."""


class PreconditionError(WaningError):
    """A documented precondition of the operation does not hold."""


class OmegaEntries(WaningError):
    """Enumeration below a function with omega entries would be infinite."""


class InvalidDescriptor(WaningError):
    """A symbolic set descriptor violates its validity invariant."""


class NotMember(PreconditionError):
    """The base point is not a member of the set being refined."""


class InvalidR(PreconditionError):
    """The radius is not valid for the target neighbourhood."""


class NoWitness(WaningError):
    """No separating witness exists (the containment actually holds)."""


class BadBase(PreconditionError):
    """The base partial bijection does not describe a non-empty basic set."""


class BoundTooLarge(WaningError):
    """A requested universe bound or output size exceeds the configured maximum."""


class UnknownSuite(WaningError):
    """Requested verification suite name is not recognised."""


class InvalidPoset(WaningError):
    """The input relation is not a partial order on the given labels."""
