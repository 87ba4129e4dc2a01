"""Exception types shared across the package."""


class GraphParseError(ValueError):
    """An edge-list or graph6 input could not be decoded."""


class ConstraintError(ValueError):
    """An input violates an operation's preconditions.

    Covers disconnected inputs handed to connectivity-only operations, n and
    p outside what a family or the fast path accepts, and the size caps: the
    edge-list and family n ceiling, graph6's one-byte size form, the oracle's
    ``ORACLE_CEILING``, and the CLI's oracle and brute caps.
    """


class ConsistencyError(RuntimeError):
    """Two computation routes that must agree disagreed.

    This always signals an implementation bug, never bad input.
    """
