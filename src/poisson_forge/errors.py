class CapabilityError(RuntimeError):
    """An internal guard tripped: degree bound exceeded, nonterminating
    reduction suspected, or similar.  The CLI maps this to exit code 3.

    ``guard`` names the guard and ``counters`` holds the counts it compared,
    where the raising site gives them; the message repeats both."""

    def __init__(self, message, guard=None, counters=None):
        super().__init__(message)
        self.guard = guard
        self.counters = dict(counters or {})


class SpecError(ValueError):
    """Malformed input document; the CLI maps this to exit code 2."""
