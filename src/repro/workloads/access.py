"""Access patterns: which pages a transaction touches.

The paper's baseline selects pages uniformly without replacement over a
1,000-page database.  Contention-sensitive protocols (every SCC variant,
WAIT-50, 2PL-PA) behave very differently once accesses skew: a Zipfian
tail, a flash-sale hotspot, or split read-hot/write-hot regions each
concentrate conflicts in ways uniform selection never produces.

Patterns are frozen, stateless dataclasses so the scenario registry can
store, compare, and pickle them; per-database probability vectors are
memoized at module level.  A pattern draws one transaction's pages from
the stream it is handed (the ``"pages"`` stream), given the
transaction's write flags (drawn beforehand from the ``"writes"``
stream), and never touches the arrival stream — swapping patterns must
not move arrival times.  Probability vectors are tuples of floats,
computed with Python arithmetic and normalized by numpy's pairwise sum
(:func:`~repro.engine.rng.pairwise_sum`), so they do not depend on the
host CPU.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.engine.rng import PCG64Stream

__all__ = [
    "AccessPattern",
    "HotspotAccess",
    "PartitionedAccess",
    "UniformAccess",
    "ZipfianAccess",
    "access_pattern_from_dict",
]


class AccessPattern(ABC):
    """Strategy for drawing one transaction's page accesses."""

    @abstractmethod
    def select_pages(
        self, rng: PCG64Stream, num_pages: int, write_flags: Sequence[bool]
    ) -> list[int]:
        """Draw one transaction's pages from ``[0, num_pages)``.

        Returns ``len(write_flags)`` distinct page ids; page ``i`` is the
        one step ``i`` accesses, a write where ``write_flags[i]`` is set.
        """

    @property
    @abstractmethod
    def kind(self) -> str:
        """Registry key used in dict/JSON form."""

    def validate(self, num_pages: int, num_steps: int) -> None:
        """Raise :class:`ConfigurationError` if a transaction of
        ``num_steps`` distinct pages cannot be drawn from this pattern."""
        if num_steps > num_pages:
            raise ConfigurationError(
                f"transaction accesses {num_steps} pages but the database "
                f"only has {num_pages}"
            )

    def to_dict(self) -> dict:
        """Plain-dict form, invertible by :func:`access_pattern_from_dict`."""
        return {"kind": self.kind, **asdict(self)}


@dataclass(frozen=True)
class UniformAccess(AccessPattern):
    """Uniform selection without replacement — the paper baseline."""

    @property
    def kind(self) -> str:
        return "uniform"

    def select_pages(
        self, rng: PCG64Stream, num_pages: int, write_flags: Sequence[bool]
    ) -> list[int]:
        return rng.choice(num_pages, size=len(write_flags), replace=False)


@lru_cache(maxsize=64)
def _zipf_probabilities(theta: float, num_pages: int) -> tuple[float, ...]:
    """P(page i) ∝ 1 / (i+1)^θ — page 0 is the hottest.

    Each weight is Python's ``**`` (libm ``pow``) and the sum runs in
    numpy's pairwise order, so the vector is the one numpy builds on a
    host whose ``power`` is libm's, on every host.
    """
    from repro.engine.rng import pairwise_sum

    weights = [float(rank) ** -theta for rank in range(1, num_pages + 1)]
    total = pairwise_sum(weights)
    return tuple(weight / total for weight in weights)


@dataclass(frozen=True)
class ZipfianAccess(AccessPattern):
    """Zipfian page popularity with skew ``theta``.

    ``theta = 0`` degenerates to uniform; classic OLTP skew sits around
    0.8-1.0.  Page ids double as popularity ranks (page 0 hottest), which
    keeps closed-form frequencies checkable in tests.
    """

    theta: float = 0.8

    def __post_init__(self) -> None:
        if self.theta < 0:
            raise ConfigurationError(f"theta must be >= 0, got {self.theta}")

    @property
    def kind(self) -> str:
        return "zipfian"

    def probabilities(self, num_pages: int) -> tuple[float, ...]:
        """The per-page selection probabilities (closed form, memoized)."""
        return _zipf_probabilities(self.theta, num_pages)

    def select_pages(
        self, rng: PCG64Stream, num_pages: int, write_flags: Sequence[bool]
    ) -> list[int]:
        size = len(write_flags)
        p = self.probabilities(num_pages)
        return rng.choice(num_pages, size=size, replace=False, p=p)


@lru_cache(maxsize=64)
def _hotspot_probabilities(
    hot_count: int, hot_access_fraction: float, num_pages: int
) -> tuple[float, ...]:
    cold_count = num_pages - hot_count
    return (hot_access_fraction / hot_count,) * hot_count + (
        (1.0 - hot_access_fraction) / cold_count,
    ) * cold_count


@dataclass(frozen=True)
class HotspotAccess(AccessPattern):
    """The b-c rule: ``hot_access_fraction`` of accesses hit the first
    ``hot_page_fraction`` of pages (e.g. 80% of traffic on 10% of data)."""

    hot_page_fraction: float = 0.1
    hot_access_fraction: float = 0.8

    def __post_init__(self) -> None:
        if not 0.0 < self.hot_page_fraction < 1.0:
            raise ConfigurationError(
                f"hot_page_fraction must be in (0, 1), got {self.hot_page_fraction}"
            )
        if not 0.0 < self.hot_access_fraction < 1.0:
            raise ConfigurationError(
                f"hot_access_fraction must be in (0, 1), got "
                f"{self.hot_access_fraction}"
            )

    @property
    def kind(self) -> str:
        return "hotspot"

    def hot_pages(self, num_pages: int) -> int:
        """Number of pages inside the hotspot for a given database size."""
        hot = max(1, int(round(self.hot_page_fraction * num_pages)))
        return min(hot, num_pages - 1)

    def probabilities(self, num_pages: int) -> tuple[float, ...]:
        """The per-page selection probabilities (closed form, memoized)."""
        return _hotspot_probabilities(
            self.hot_pages(num_pages), self.hot_access_fraction, num_pages
        )

    def select_pages(
        self, rng: PCG64Stream, num_pages: int, write_flags: Sequence[bool]
    ) -> list[int]:
        size = len(write_flags)
        p = self.probabilities(num_pages)
        return rng.choice(num_pages, size=size, replace=False, p=p)


@dataclass(frozen=True)
class PartitionedAccess(AccessPattern):
    """Disjoint write-hot and read-hot page regions.

    Pages ``[0, split)`` form the write-hot region, ``[split, num_pages)``
    the read-hot region, with ``split = write_region_fraction * num_pages``.
    Updates land in the write-hot region and pure reads in the read-hot
    region, modelling e.g. append-heavy tables next to reference data —
    the regime where read-only transactions should sail while writers
    fight each other.
    """

    write_region_fraction: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 < self.write_region_fraction < 1.0:
            raise ConfigurationError(
                f"write_region_fraction must be in (0, 1), got "
                f"{self.write_region_fraction}"
            )

    @property
    def kind(self) -> str:
        return "partitioned"

    def split(self, num_pages: int) -> int:
        """First page id of the read-hot region."""
        split = int(round(self.write_region_fraction * num_pages))
        return min(max(split, 1), num_pages - 1)

    def validate(self, num_pages: int, num_steps: int) -> None:
        super().validate(num_pages, num_steps)
        split = self.split(num_pages)
        # Worst case all steps land on one side of the split.
        smallest = min(split, num_pages - split)
        if num_steps > smallest:
            raise ConfigurationError(
                f"partitioned access needs regions of >= {num_steps} pages; "
                f"smallest region has {smallest} of {num_pages}"
            )

    def select_pages(
        self, rng: PCG64Stream, num_pages: int, write_flags: Sequence[bool]
    ) -> list[int]:
        split = self.split(num_pages)
        num_writes = sum(write_flags)
        # Write pages, then read pages: the pages stream's order for this
        # pattern since it was added, so partitioned workloads stay the same.
        writes = iter(rng.choice(split, size=num_writes, replace=False))
        reads = iter(
            rng.choice(
                num_pages - split, size=len(write_flags) - num_writes, replace=False
            )
        )
        return [next(writes) if flag else split + next(reads) for flag in write_flags]


_PATTERN_KINDS: dict[str, type[AccessPattern]] = {
    "uniform": UniformAccess,
    "zipfian": ZipfianAccess,
    "hotspot": HotspotAccess,
    "partitioned": PartitionedAccess,
}


def access_pattern_from_dict(payload: dict) -> AccessPattern:
    """Rebuild an :class:`AccessPattern` from its
    :meth:`~AccessPattern.to_dict` form, e.g. ``{"kind": "zipfian",
    "theta": 0.95}``."""
    data = dict(payload)
    kind = data.pop("kind", None)
    pattern_cls = _PATTERN_KINDS.get(kind)
    if pattern_cls is None:
        raise ConfigurationError(
            f"unknown access kind {kind!r}; choose from {sorted(_PATTERN_KINDS)}"
        )
    try:
        return pattern_cls(**data)
    except TypeError as exc:
        raise ConfigurationError(f"bad {kind!r} access parameters: {exc}") from exc
