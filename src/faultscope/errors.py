"""Exception types shared across the package."""


class TopologyError(ValueError):
    """Invalid topology input: parse failures, structural violations, bad monitor specs."""


class EnumerationCapError(RuntimeError):
    """Path enumeration refused because the instance exceeds the node cap.

    Raised instead of silently running an exponential enumeration; the cap
    is fixed, and theorem-based analysis stays available at any size.
    """


class OracleCapError(RuntimeError):
    """Brute-force oracle refused because the instance exceeds its fixed caps."""


class GenerationError(RuntimeError):
    """Random topology generation gave up (retry limit hit before connectivity)."""
