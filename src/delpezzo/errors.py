"""Exceptions shared across the package."""


class NonPrimitiveWeights(ValueError):
    """All four weights share a common factor; the caller must rescale."""


class PreconditionError(ValueError):
    """An operation was called on input outside its stated domain."""


class InvariantViolation(RuntimeError):
    """An internal consistency check failed; indicates a bug upstream."""


class CatalogIntegrityError(InvariantViolation):
    """The embedded reference data is inconsistent with itself."""


class RouteDisagreement(RuntimeError):
    """The exhaustive oracle and the structured search found different records.

    `disputed` lists each (I, w, d) one route lacks, with the name of that route.
    """

    def __init__(self, disputed):
        self.disputed = disputed
        super().__init__("; ".join(
            f"(I={I}, w={w}, d={d}) missing from the {route}" for (I, w, d), route in disputed
        ))
