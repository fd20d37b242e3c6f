"""Exception types shared across the storage engine."""


class CubeStoreError(Exception):
    """Base class for all cubestore errors."""


class MalformedInputError(CubeStoreError):
    """Input rows, files, or values do not match the expected shape."""


class DuplicateRowError(CubeStoreError):
    """A relation contained two identical rows."""


class DuplicateKeyError(CubeStoreError):
    """Two rows share the same composite key."""


class NotSortedError(CubeStoreError):
    """A stream that must be strictly ascending was not."""


class UnknownDimensionValueError(CubeStoreError):
    """A value does not appear in the dimension directory."""


class RangeError(CubeStoreError):
    """An index, coordinate, or position is out of bounds."""


class CapacityError(CubeStoreError):
    """A computed quantity does not fit the engine's 64-bit limits."""


class UndefinedDensityError(CubeStoreError):
    """Density zero leaves the space ratio undefined."""


class DegenerateConjointError(CubeStoreError):
    """Folding the whole key into one conjoint dimension is refused by default."""


class ParameterError(CubeStoreError):
    """A numeric parameter is outside its documented domain."""


class EmptyRelationError(CubeStoreError):
    """The operation needs at least one row."""


class StorageError(CubeStoreError):
    """A data file is missing, truncated, or corrupt."""


class DatasetError(CubeStoreError):
    """A dataset directory is missing files or has an inconsistent manifest."""
