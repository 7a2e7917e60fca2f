"""Exception hierarchy shared by all torf modules."""


class TorfError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(TorfError):
    pass


class NotAFace(TorfError):
    pass


class MissingFace(TorfError):
    def __init__(self, cone, face):
        self.cone = cone
        self.face = face
        super().__init__(f"fan is missing a face: {face} of {cone}")


class BadIntersection(TorfError):
    def __init__(self, cone1, cone2, witness=None):
        self.cone1 = cone1
        self.cone2 = cone2
        self.witness = witness
        super().__init__(
            f"cones do not intersect along a common face (witness point {witness})"
        )


class ConeNotInFan(TorfError):
    pass


class NotASubfan(TorfError):
    pass


class GenerationFailure(TorfError):
    def __init__(self, cone):
        self.cone = cone
        super().__init__(f"monoid does not generate its assigned cone: {cone}")


class CompatibilityFailure(TorfError):
    def __init__(self, face, cone, witness):
        self.face = face
        self.cone = cone
        self.witness = witness
        super().__init__(
            f"monoid over face disagrees with restriction, witness {witness}"
        )


class NotFiniteExtension(TorfError):
    pass


class BadLatticeFamily(TorfError):
    def __init__(self, face, cone, reason=""):
        self.face = face
        self.cone = cone
        super().__init__(f"invalid lattice family at {face} < {cone}: {reason}")


class NotWeaklyNormal(TorfError):
    pass


class DegreeNotInSupport(TorfError):
    pass


class UnknownFixture(TorfError):
    pass


class ParseError(TorfError):
    pass


class WorkTooLarge(TorfError):
    def __init__(self, message, estimate):
        self.estimate = estimate  # the size of the enumeration refused before it started
        super().__init__(message)
