"""Exception types shared across the package: every refusal is a ValueError."""


class TopologyError(ValueError):
    """Invalid topology input: parse failures, structural violations, bad monitor specs."""


class EnumerationCapError(ValueError):
    """Path enumeration refused: the instance is past the fixed node cap (the
    enumeration is exponential; theorem-based analysis runs at any size)."""


class OracleCapError(ValueError):
    """Brute-force oracle refused because the instance exceeds its fixed caps."""


class GenerationError(ValueError):
    """Random topology generation gave up (retry limit hit before connectivity)."""
