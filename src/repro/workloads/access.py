"""Access patterns: which pages a transaction touches.

The paper's baseline selects pages uniformly without replacement over a
1,000-page database.  Contention-sensitive protocols (every SCC variant,
WAIT-50, 2PL-PA) behave very differently once accesses skew: a Zipfian
tail, a flash-sale hotspot, or split read-hot/write-hot regions each
concentrate conflicts in ways uniform selection never produces.  This
module holds the interface and the uniform default; the Zipfian, hotspot
and partitioned patterns live in :mod:`repro.workloads.extensions`,
loaded when a scenario or payload names one.

Patterns are frozen, stateless records so the scenario registry can
store, compare, and pickle them; the skewed patterns memoize their
per-database probability vectors.  A pattern draws one transaction's
pages from the stream it is handed (the ``"pages"`` stream), given the
transaction's write flags (drawn beforehand from the ``"writes"``
stream), and never touches the arrival stream — swapping patterns must
not move arrival times.  Probability vectors are tuples of floats,
computed with Python arithmetic and normalized by numpy's pairwise sum
(:func:`~repro.engine.rng.pairwise_sum`), so they do not depend on the
host CPU.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Sequence

from repro._record import FrozenRecord, asdict
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.engine.rng import PCG64Stream

__all__ = [
    "AccessPattern",
    "UniformAccess",
    "access_pattern_from_dict",
]


class AccessPattern(FrozenRecord, ABC):
    """Strategy for drawing one transaction's page accesses."""

    __slots__ = ()

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


class UniformAccess(AccessPattern):
    """Uniform selection without replacement — the paper baseline."""

    __slots__ = ()

    @property
    def kind(self) -> str:
        return "uniform"

    def select_pages(
        self, rng: PCG64Stream, num_pages: int, write_flags: Sequence[bool]
    ) -> list[int]:
        return rng.choice(num_pages, size=len(write_flags), replace=False)


def access_pattern_from_dict(payload: dict) -> AccessPattern:
    """Rebuild an :class:`AccessPattern` from its
    :meth:`~AccessPattern.to_dict` form, e.g. ``{"kind": "zipfian",
    "theta": 0.95}``.

    Every kind but ``uniform`` lives in :mod:`repro.workloads.extensions`,
    imported here when the payload names one.
    """
    data = dict(payload)
    kind = data.pop("kind", None)
    if kind == "uniform":
        pattern_cls: type[AccessPattern] = UniformAccess
    else:
        from repro.workloads.extensions import extension_kind

        pattern_cls = extension_kind("access", kind)
    try:
        return pattern_cls(**data)
    except TypeError as exc:
        raise ConfigurationError(f"bad {kind!r} access parameters: {exc}") from exc
