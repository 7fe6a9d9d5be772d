"""Exception types shared across the toolkit.

Every error, and the one warning kind, carries a short machine-readable
``code`` so the CLI can emit single-line, grep-able reports.
"""


class MlmeError(Exception):
    """Base class for all toolkit errors."""

    code = "error"


class DataParseError(MlmeError):
    """A data file row could not be parsed (message names the row)."""

    code = "parse"


class SchemaError(MlmeError):
    """File layout or model/data shapes do not match expectations."""

    code = "schema"


class LabelError(MlmeError):
    """A label value outside {0, 1} was encountered."""

    code = "label"


class UnsupportedAttributeError(SchemaError):
    """An ARFF attribute type the loader does not support."""

    code = "attribute"


class ArgumentError(MlmeError):
    """An operation was called with out-of-contract arguments."""

    code = "argument"


class GuardError(ArgumentError):
    """A size guard tripped (e.g. exhaustive search over too many labels)."""

    code = "guard"


class NumericError(MlmeError):
    """Optimization produced a non-finite objective value."""

    code = "numeric"


class EmMonotonicityError(MlmeError):
    """The EM objective decreased between iterations; internal inconsistency."""

    code = "em-monotonicity"


class DegenerateTargetWarning(RuntimeWarning):
    """A fit had no positive-weight instance, or all its targets were equal."""

    code = "degenerate-target"
