"""Exception types shared across the package.

Every package error is one of two classes, and the class alone decides how
the CLI reports it:

- :class:`InputError`: a config value, file, checkpoint, argument or array
  passed in is invalid. Exit status 1, message ``error: ...``.
- :class:`NumericalError`: the input was valid but the computation failed,
  e.g. a matrix stayed indefinite through the whole jitter ladder. Exit
  status 2, message ``numerical failure: ...``.

A new check raises whichever class describes its cause; nothing else has
to change for it to reach the right exit status.
"""


class MdgpcError(Exception):
    """Base class for all package-specific errors."""


class InputError(MdgpcError):
    """An input to the package is invalid (exit status 1)."""


class NumericalError(MdgpcError):
    """Valid input, but the computation failed (exit status 2)."""
