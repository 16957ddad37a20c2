"""Exception types shared across the package.

Every error carries a stable ``code`` string: the codes are part of the
public interface and must not change.
"""


class TensorLociError(Exception):
    """Base class for domain errors."""

    code = "error"


class ParseError(TensorLociError):
    """Malformed rational text (``exactnum.parse_rational``)."""

    code = "parse-error"


class DegreeTooLarge(TensorLociError):
    code = "degree-too-large"


class DegreeTooSmall(TensorLociError):
    code = "degree-too-small"


class ZeroDivisor(TensorLociError):
    """A nonzero residue that is not invertible: it shares ``factor`` (None
    when not given) with the modulus."""

    code = "zero-divisor"

    def __init__(self, message, factor=None):
        super().__init__(message)
        self.factor = factor


class ZeroTensor(TensorLociError):
    code = "zero-tensor"


class ShapeMismatch(TensorLociError):
    code = "shape-mismatch"


class SingularMatrix(TensorLociError):
    code = "singular-matrix"


class WrongShape(TensorLociError):
    code = "wrong-shape"


class AllZero(TensorLociError):
    code = "all-zero"


class UnsupportedShape(TensorLociError):
    code = "unsupported-shape"


class NotTangential(TensorLociError):
    code = "not-tangential"


class TangencyPointRequested(TensorLociError):
    code = "tangency-point-requested"


class NotInLocus(TensorLociError):
    code = "not-in-locus"


class UnsupportedOrbit(TensorLociError):
    code = "unsupported-orbit"


class InternalError(TensorLociError):
    """An invariant the decision procedures rely on was violated."""

    code = "internal-error"
