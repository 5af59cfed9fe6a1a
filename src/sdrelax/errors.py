"""Exception types shared across the package."""


class SdRelaxError(Exception):
    """Base class for all package errors."""


class MeshError(SdRelaxError):
    """Invalid mesh topology, geometry, or construction parameters."""


class FieldError(SdRelaxError):
    """Field data inconsistent with its mesh."""


class DatumError(SdRelaxError):
    """Boundary datum incompatible with the mesh (e.g. orientation mismatch)."""


class ProblemError(SdRelaxError):
    """Cell problem specification is incomplete or inconsistent."""


class UnsupportedProblemError(SdRelaxError):
    """Problem combination outside the solvable class (e.g. custom surface
    density in the chain-solver path, or a general bulk density paired
    with a per-cell mean field in 3D)."""


class InfeasibleProblemError(SdRelaxError):
    """A minimization found no feasible point.

    The cell solver does not raise it: every cell program is an
    unconstrained sum of absolute values over finite data, which always has
    a minimizer.  Kept so that callers catching it keep working."""


class InputError(SdRelaxError):
    """Malformed external input (CLI arguments or JSON files)."""
