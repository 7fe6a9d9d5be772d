"""Exception types shared across the toolkit, and the argument checks.

Every error and warning kind carries a short machine-readable ``code`` so
the CLI can emit single-line, grep-able reports.
"""

import math
import numbers


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


def check_finite_nonnegative(value, name: str) -> None:
    """Raise ArgumentError naming ``name`` unless ``value`` is finite and >= 0."""
    if not (math.isfinite(value) and value >= 0):
        raise ArgumentError(f"{name} must be finite and >= 0, got {value}")


def check_count(value, name: str, minimum: int) -> None:
    """Raise ArgumentError naming ``name`` unless ``value`` is an integer >= minimum.

    Any numbers.Integral but bool passes, so numpy integers do too.
    """
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < minimum):
        raise ArgumentError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_width(what: str, want: int, got: int) -> None:
    """Raise ArgumentError naming both widths unless ``what``'s equals the data's."""
    if want != got:
        raise ArgumentError(
            f"{what} expects m+1 = {want} feature columns, data has {got}")


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


class UncertifiedMapWarning(RuntimeWarning):
    """MAP search ran out of its node budget on some rows: not certified exact."""

    code = "uncertified-map"
