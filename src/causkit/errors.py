"""Exception hierarchy for causkit.

Every error raised deliberately by the library derives from :class:`CauskitError`,
so callers (and the CLI) can distinguish usage problems from genuine bugs.
"""


class CauskitError(Exception):
    """Base class for all causkit errors."""


class BackendMismatch(CauskitError):
    """Two processes from different backends were combined."""


class UnsupportedBackend(CauskitError):
    """The requested operation is not defined for this backend."""


class ShapeMismatch(CauskitError):
    """Wire dimensions, counts or data shapes do not line up."""


class DuplicateLabel(CauskitError):
    """A wire label occurs more than once within a process."""


class NoSuchWire(CauskitError):
    """A wire label was referenced that the process does not have."""


class InvalidPermutation(CauskitError):
    """A wire reordering is not a permutation of the existing wires."""


class CyclicWiring(CauskitError):
    """A plug wiring forms a loop that does not describe a contraction
    of two distinct boxes (self-pairs, repeated wires, equal roles)."""


class FormatError(CauskitError):
    """A JSON document does not follow the serialized process/poset schema."""


class NotOneWay(CauskitError):
    """Factorization was requested for a process that violates the one-way
    signalling premise."""


class BadPartition(CauskitError):
    """The given events do not partition the wires of the process."""


class UnknownEvent(CauskitError):
    """An order relation or query references an event name that was never
    declared."""


class CyclicOrder(CauskitError):
    """The declared order relation on events contains a cycle, so it is not
    a partial order."""


class TooManyEvents(CauskitError):
    """The event structure exceeds the size budget of the requested check."""


class CombinatorialBlowup(CauskitError):
    """A check would need to enumerate more instances than the given budget."""


class TypeSyntaxError(CauskitError):
    """The type/sequent expression could not be parsed."""


class UnsupportedConnective(CauskitError):
    """A connective appears in a position the algebra does not handle
    (e.g. the dual of an intersection)."""


class UnsupportedType(CauskitError):
    """check_membership has no decision procedure for this type shape."""


class EmbedMismatch(CauskitError):
    """Two types do not embed into the same first-order ambient type."""


class MalformedProof(CauskitError):
    """A proof object or rendered proof text is structurally broken."""
