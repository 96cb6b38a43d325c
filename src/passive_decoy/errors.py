"""Exception types shared across the package, and how their messages quote
the values they reject."""

import math
import sys


class ParameterError(ValueError):
    """An input value violates its documented domain."""


class ConfigError(ParameterError):
    """A run-configuration document is invalid; message names the field."""


class TruncationError(RuntimeError):
    """Photon-number truncation leaves more tail mass than tolerated.

    Raised when the requested cutoff is too small for the source intensity;
    the fix is a larger cutoff, not a looser tolerance.
    """


class DegenerateSourceError(RuntimeError):
    """The branch distributions are too similar to separate decoy estimates.

    The bound chain divides by differences of cross products of branch
    probabilities; when those fall below numerical resolution (for example
    with a fully factorized source) no decoy information exists.
    """


class IngestError(ValueError):
    """A statistics or click-record file failed to parse or validate."""


def excerpt(text, show=repr) -> str:
    """``show(text)``, cut to 32 characters and the length if longer; a
    ``text`` that is not a string is shown by its cut ``str``, which for a
    value decoded from JSON is its ``repr``.  An integer that may have more
    digits than Python converts to ``str`` is shown by its size in bits."""
    if isinstance(text, int):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        bits = abs(text).bit_length()
        if limit and bits * math.log10(2) >= limit:
            return f"{'a negative' if text < 0 else 'an'} integer of {bits} bits"
    if not isinstance(text, str):
        text, show = str(text), str
    if len(text) <= 32:
        return show(text)
    return f"{show(text[:32] + '…')} ({len(text)} chars)"
