"""A database page: the unit of access, conflict, and versioning.

Pages carry a monotone version counter bumped at every committed install.
Versions are how the protocols reason *exactly* about staleness: a shadow
that read ``(page, version=v)`` is "exposed" by a commit that installs
version ``v+1`` of that page.  The payload value is an opaque integer the
serializability oracle uses to validate read-from relationships.
"""

from __future__ import annotations

from repro._record import Record


class Page(Record):
    """A single page of the shared database.

    Attributes:
        page_id: Index of the page within the database.
        version: Number of committed installs so far (0 = initial load).
        value: Opaque payload; rewritten on every committed install.
        last_writer: Transaction id of the last committed writer, or ``None``
            for the initial load.  Used by the serializability oracle.
    """

    __slots__ = ("page_id", "version", "value", "last_writer")

    def __init__(
        self,
        page_id: int,
        version: int = 0,
        value: int = 0,
        last_writer: int | None = None,
    ) -> None:
        self.page_id = page_id
        self.version = version
        self.value = value
        self.last_writer = last_writer

    def install(self, value: int, writer: int) -> None:
        """Install a committed write, bumping the version."""
        self.version += 1
        self.value = value
        self.last_writer = writer
