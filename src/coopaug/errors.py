"""Exception types raised by the coopaug library."""


class CoopaugError(Exception):
    """Base class for all library errors."""


class GroupTooSmall(CoopaugError):
    pass


class DegenerateCenters(CoopaugError):
    pass


class EmptyInput(CoopaugError):
    pass


class BadTarget(CoopaugError):
    pass


class InvalidPair(CoopaugError):
    pass


class PlacementFailure(CoopaugError):
    pass


class IoFailure(CoopaugError):
    """A .pcv file that is not the format; failed reads and writes raise OSError."""


class BadMagic(IoFailure):
    pass


class TruncatedFile(IoFailure):
    pass
