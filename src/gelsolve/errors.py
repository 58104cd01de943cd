"""Exception hierarchy shared by all gelsolve modules.

`cli.main` turns each class into the command line's exit code, in one place.
"""


class GelsolveError(Exception):
    """Base class for errors raised by this package."""


class DomainError(GelsolveError, ValueError):
    """An argument outside the operation's mathematical domain (CLI: config error, exit 2)."""


class ModelError(GelsolveError, ValueError):
    """The model cannot be applied to the given initial data (CLI: config error, exit 2)."""


class SolverError(GelsolveError, RuntimeError):
    """A numerical routine failed to converge or went unstable (CLI: exit 1)."""


class ConfigError(GelsolveError, ValueError):
    """A run configuration is malformed or inconsistent (CLI: exit 2)."""


class UsageError(GelsolveError, ValueError):
    """A malformed command line or mismatched utility inputs, e.g. an oracle time grid
    that starts before its initial state (CLI: exit 2)."""
