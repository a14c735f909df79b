"""Exception hierarchy shared across the toolkit."""


class NsgError(Exception):
    """Base class for all domain errors raised by this package."""


class EmptyInput(NsgError):
    """No generators were supplied."""


class GcdNotOne(NsgError):
    """The generators do not have gcd 1, so they generate no numerical semigroup."""


class TrivialSemigroup(NsgError):
    """The operation needs a gap, but the semigroup is all of the naturals."""


class InputTooLarge(NsgError):
    """The semigroup's multiplicity or Frobenius number exceeds the size limit."""


class AmbientMismatch(NsgError):
    """Two relative ideals live over different semigroups."""


class GluingError(NsgError):
    """A gluing precondition failed; subclasses name the violated condition."""


class GcdViolation(GluingError):
    """Scaling factors that must be coprime are not."""


class LambdaIsGenerator(GluingError):
    pass


class MuIsGenerator(GluingError):
    pass


class LambdaNotMember(GluingError):
    pass


class MuNotMember(GluingError):
    pass


class NonMinimalSequence(NsgError):
    """The requested arithmetic sequence is not a minimal generating set."""


class EmbeddingDimensionTooSmall(NsgError):
    """The toric operation needs more generators than the semigroup has."""


class InvalidSetting(NsgError):
    """An environment setting, such as NSG_THREADS, has an unusable value."""
