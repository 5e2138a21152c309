import pytest

# cycle types realizable by each transitive group, as subgroups of S_n
_CYCLE_TYPES = {
    "S3": {(1, 1, 1), (1, 2), (3,)},
    "A3": {(1, 1, 1), (3,)},
    "S4": {(1, 1, 1, 1), (1, 1, 2), (2, 2), (1, 3), (4,)},
    "A4": {(1, 1, 1, 1), (2, 2), (1, 3)},
    "D4": {(1, 1, 1, 1), (1, 1, 2), (2, 2), (4,)},
    "V4": {(1, 1, 1, 1), (2, 2)},
    "C4": {(1, 1, 1, 1), (2, 2), (4,)},
}


@pytest.fixture
def cycle_types() -> dict[str, set[tuple[int, ...]]]:
    """The Frobenius cycle types each Galois group label allows."""
    return _CYCLE_TYPES
