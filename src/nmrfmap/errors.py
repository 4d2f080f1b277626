"""Exception types shared across the package."""


class NmrfmapError(Exception):
    """Base class for all errors raised by this package."""


class ModelFormatError(NmrfmapError):
    """A raw model description violates the on-disk schema."""


class UnknownVariableError(ModelFormatError):
    def __init__(self, name, scope=None):
        self.name = name
        self.scope = scope
        where = f" in scope {list(scope)}" if scope else ""
        super().__init__(f"unknown variable {name!r}{where}")


class DuplicateVariableError(ModelFormatError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"duplicate variable {name!r}")


class TableSizeMismatchError(ModelFormatError):
    """A table has the wrong number of entries; `got` is None when it is not
    a list or tuple at all."""

    def __init__(self, scope, expected, got):
        self.scope = tuple(scope)
        self.expected = expected
        self.got = got
        if got is None:
            fault = f"is not a list of {expected} entries"
        else:
            fault = f"has {got} entries, expected {expected}"
        super().__init__(f"table for scope {list(scope)} {fault}")


class NonFiniteEntryError(ModelFormatError):
    def __init__(self, scope, index):
        self.scope = tuple(scope)
        self.index = index
        super().__init__(f"non-finite entry at index {index} in table for scope {list(scope)}")


class NotBinaryPairwiseError(NmrfmapError):
    """Operation requires all cardinalities 2 and all scopes of size <= 2."""


class SignMismatchError(NmrfmapError):
    """Requested edge enode form is incompatible with the edge's sign."""


class ZeroAssociativityError(NmrfmapError):
    """Edge has (near-)zero associativity and no surviving enode form."""


class TooLargeError(NmrfmapError):
    """Instance exceeds a desk-scale resource cap, or tables whose sums
    overflow the float range a solve accepts."""


class IntractableTopologyError(NmrfmapError):
    """Model topology does not map to a perfect NMRF; carries a witness cycle
    and, when raised by `solve_map`, the `TractabilityReport` that found it."""

    def __init__(self, witness, message="intractable topology", report=None):
        self.witness = witness
        self.report = report
        super().__init__(message)


class InconsistentCompletionError(NmrfmapError):
    """A clique group could not be represented while completing a stable set."""


class ObjectiveMismatchError(NmrfmapError):
    """Decoded objective disagrees with stable-set weight plus constants."""


class BadIndicesError(NmrfmapError):
    """Invalid variable indices for a projection."""


class NotSupermodularError(NmrfmapError):
    """Potential fails a pairwise supermodularity projection."""

    def __init__(self, witness, message="potential is not supermodular"):
        self.witness = witness
        super().__init__(message)
