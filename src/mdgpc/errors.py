"""Exception types shared across the package.

Every package error is one of two classes, and the class alone decides how
the CLI reports it:

- :class:`InputError`: a config value, file, checkpoint, argument or array
  passed in is invalid. Exit status 1, message ``error: ...``.
- :class:`NumericalError`: the input was valid but the computation failed,
  e.g. a matrix stayed indefinite through the whole jitter ladder. Exit
  status 2, message ``numerical failure: ...``.

A new check raises whichever class describes its cause; nothing else has
to change for it to reach the right exit status. :func:`named_failures`
prefixes a NumericalError with where it happened.
"""

import contextlib

import numpy as np


class MdgpcError(Exception):
    """Base class for all package-specific errors."""


class InputError(MdgpcError):
    """An input to the package is invalid (exit status 1)."""


class NumericalError(MdgpcError):
    """Valid input, but the computation failed (exit status 2)."""


@contextlib.contextmanager
def named_failures(where: str):
    """Prefix a NumericalError with `where`. numpy's floating-point warnings
    are silenced, since the finite checks report the failure instead."""
    with np.errstate(all="ignore"):
        try:
            yield
        except NumericalError as exc:
            raise NumericalError(f"{where}: {exc}") from exc
