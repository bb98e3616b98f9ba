"""Exception taxonomy shared by every srpb module."""

from __future__ import annotations


class SrpbError(Exception):
    """Base class for all srpb errors."""


class ContextError(SrpbError):
    """Operands live over different variable contexts or fields."""


class ShapeError(SrpbError):
    """Matrix shapes are incompatible for the requested operation."""


class InputError(SrpbError):
    """Malformed input data (out-of-range vertex, bad file, bad flag)."""


class PreconditionError(SrpbError):
    """A documented precondition of an operation was violated."""


class UnsupportedRingError(SrpbError):
    """Operation restricted to a smaller class of rings (e.g. univariate)."""


class HomError(SrpbError):
    """Ring map is not well defined; carries the failing generator."""

    def __init__(self, message: str, generator=None, image=None):
        super().__init__(message)
        self.generator = generator
        self.image = image


class NonUnitError(SrpbError):
    """Determinant (or element) is not a unit; carries the element."""

    def __init__(self, message: str, element=None):
        super().__init__(message)
        self.element = element


class RankError(SrpbError):
    """Module rank is undefined or inconsistent."""


class LifterError(SrpbError):
    """A caller-supplied lifter broke its contract."""


class InternalCheckError(SrpbError):
    """A runtime self-check failed; indicates a bug, not bad input."""


class AllStrategiesFailed(SrpbError):
    """Every configured GL-lift strategy failed; carries diagnostics."""

    def __init__(self, message: str, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class ExprError(SrpbError):
    """Expression parse error; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class FileFormatError(InputError):
    """Structured-text file failed to parse or had a bad header."""
