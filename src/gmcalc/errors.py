"""Exception types shared across the package."""


class GmcalcError(Exception):
    pass


class UnsupportedType(GmcalcError):
    pass


class DimensionError(GmcalcError):
    pass


class NotComparable(GmcalcError):
    pass


class NotDominant(GmcalcError):
    pass


class FamilyNotSmooth(GmcalcError):
    pass


class PoleHit(GmcalcError):
    pass


class IncompleteInput(GmcalcError):
    pass


class NotSubsystem(GmcalcError):
    pass


class NotChamberStabilizer(GmcalcError):
    pass


class InternalInconsistency(GmcalcError):
    """A cross-checked invariant failed; this is a genuine defect, not bad input."""


class NotARoot(GmcalcError):
    pass


class NoConvergence(GmcalcError):
    pass


class BadShift(GmcalcError):
    pass


class NotDiscrete(GmcalcError):
    pass


class NotPRegular(GmcalcError):
    pass


class ConfigError(GmcalcError):
    pass
