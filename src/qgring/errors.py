"""Exception types shared across the package."""


class QGRingError(ValueError):
    """Base class for all library errors."""


class ParseError(QGRingError):
    """A group-spec string does not parse."""


class InconsistentSpec(QGRingError):
    """Group-spec parameters violate a construction requirement."""


class OrderCapExceeded(QGRingError):
    """The requested group is larger than the configured order cap."""


class NotNormal(QGRingError):
    """A quotient was requested by a non-normal subgroup."""


class BNotAbelian(QGRingError):
    """maximal_abelian_over was seeded with a nonabelian subgroup."""


class GroupMismatch(QGRingError):
    """Two algebra elements live over different groups, or a subgroup is
    not one of the group it is used with."""


class NotCoprime(QGRingError):
    """Multiplicative order requested for non-coprime arguments."""


class NotPrime(QGRingError):
    """A prime was required."""


class NotNormalInH(QGRingError):
    """epsilon(H, K) requires K normal in H with H/K cyclic."""


class NotMetabelian(QGRingError):
    """Central idempotent enumeration only covers metabelian groups."""


class NotCentralIdempotent(QGRingError):
    """An operation required a central idempotent."""


class NonIntegerDimension(QGRingError):
    """The trace formula produced a non-integer; the input was not idempotent."""


class NotStrongShodaPair(QGRingError):
    """Component description requires a strong Shoda pair."""


class NotPGroup(QGRingError):
    """The NCN predicate only applies to p-groups."""


class UnknownWitness(QGRingError):
    """No curated witness with that name."""


class UnknownFamily(QGRingError):
    """Unrecognized family descriptor for a prediction."""


class InconsistentFamilyParams(QGRingError):
    """Family parameters fail their structural constraints."""


class SoundnessError(QGRingError):
    """A certificate failed its exact re-verification; the verdict it would
    have supported is withheld."""
