"""Per-run metrics (paper §4).

Primary measures:

* **Missed Ratio** — percentage of completed transactions that committed
  after their deadline.
* **Average Tardiness** — the average time by which *late* transactions
  miss their deadlines ("a transaction that commits within its deadline has
  a tardiness of zero"; we report the late-only mean as the headline figure
  and also expose the all-transactions mean).
* **System Value** — Σ V_u(commit) normalized by the maximum attainable
  Σ v_u, in percent (Figure 14's axis runs −100..100: tardy critical
  transactions contribute negative value).

Secondary measures the paper mentions ("number of transaction restarts,
average wasted computation, ...") are collected too and are invaluable for
explaining protocol behaviour.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ProtocolError
from repro.txn.spec import TransactionSpec

if TYPE_CHECKING:
    import numpy as np


@dataclass
class CommitRecord:
    """Outcome of one committed transaction."""

    txn_id: int
    class_name: str
    arrival: float
    deadline: float
    commit_time: float
    value_attained: float
    value_max: float
    restarts: int

    @property
    def tardiness(self) -> float:
        """Seconds past the deadline (0 when on time)."""
        return max(0.0, self.commit_time - self.deadline)

    @property
    def missed(self) -> bool:
        """Whether the deadline was missed."""
        return self.commit_time > self.deadline

    @property
    def response_time(self) -> float:
        """Commit time minus arrival time."""
        return self.commit_time - self.arrival


@dataclass
class RunSummary:
    """Aggregated measures of one simulation run."""

    committed: int
    missed_ratio: float  # percent
    avg_tardiness_late: float  # seconds, mean over late transactions
    avg_tardiness_all: float  # seconds, mean over all transactions
    system_value: float  # percent of maximum attainable value
    avg_response_time: float
    restarts: int
    shadow_aborts: int
    wasted_work: float  # seconds of aborted service time
    useful_work: float  # seconds of committed service time
    deferred_commits: int
    per_class_missed: dict[str, float] = field(default_factory=dict)
    per_class_value: dict[str, float] = field(default_factory=dict)

    @property
    def wasted_fraction(self) -> float:
        """Wasted work as a fraction of all work performed."""
        total = self.wasted_work + self.useful_work
        return self.wasted_work / total if total > 0 else 0.0

    def to_dict(self) -> dict:
        """Plain-dict form, invertible by :meth:`from_dict`.

        Every field is a JSON-native scalar or a flat ``str -> float``
        mapping, and JSON round-trips Python floats exactly (shortest
        repr), so ``from_dict(json.loads(json.dumps(to_dict())))`` is
        *bit-identical* to the original summary.  This is the property the
        persistent run store (:mod:`repro.results`) builds on.
        """
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "RunSummary":
        """Rebuild a summary from its :meth:`to_dict` form.

        Raises:
            ProtocolError: If the payload is missing fields or carries
                unknown ones (a schema mismatch, e.g. a store written by a
                different library version).
        """
        field_names = {f.name for f in dataclasses.fields(cls)}
        data = dict(payload)
        unknown = set(data) - field_names
        missing = field_names - set(data)
        if unknown or missing:
            raise ProtocolError(
                f"RunSummary payload mismatch: missing {sorted(missing)}, "
                f"unknown {sorted(unknown)}"
            )
        data["per_class_missed"] = dict(data["per_class_missed"])
        data["per_class_value"] = dict(data["per_class_value"])
        return cls(**data)


#: Rows per columnar commit chunk.  The tail row buffer is bounded at
#: this size; each time it fills it is converted to one float64 chunk in
#: a single C-level pass.
_CHUNK_ROWS = 1024

#: Column order of a commit chunk (all float64; ids/restart counts are
#: integer-valued and exact well past any simulated transaction count).
_COL_TXN_ID = 0
_COL_ARRIVAL = 1
_COL_DEADLINE = 2
_COL_COMMIT = 3
_COL_VALUE = 4
_COL_VALUE_MAX = 5
_COL_RESTARTS = 6
_NUM_COLS = 7


class MetricsCollector:
    """Accumulates per-transaction outcomes during a run.

    Transactions committed before ``warmup_commits`` completions are counted
    for progress but excluded from the summary statistics, the standard
    transient-removal discipline.

    Storage is columnar: commit outcomes land in float64 chunks (plus a
    class-name column) instead of per-commit :class:`CommitRecord`
    objects — rows accumulate in a bounded buffer that is converted to a
    chunk in one C-level pass each time it fills — and :meth:`summary`
    aggregates over the concatenated columns.  The reductions deliberately run left-to-right
    over Python floats in record order — the float-summation order is part
    of the golden-gated result, so the columnar layout must reproduce the
    exact bits the record-at-a-time collector produced.  The old
    record-object view survives as the :attr:`records` property for
    diagnostics.
    """

    def __init__(self, warmup_commits: int = 0) -> None:
        self.warmup_commits = warmup_commits
        self.total_committed = 0
        self.restarts = 0
        self.shadow_aborts = 0
        self.wasted_work = 0.0
        self.useful_work = 0.0
        self.deferred_commits = 0
        self._restart_counts: dict[int, int] = {}
        self._chunks: list[np.ndarray] = []
        self._tail: list[tuple] = []
        self._class_names: list[str] = []

    # ------------------------------------------------------------------
    # columnar storage
    # ------------------------------------------------------------------

    @property
    def records(self) -> list[CommitRecord]:
        """Post-warmup commits as :class:`CommitRecord` objects.

        A diagnostics/compatibility view materialized on demand from the
        columnar buffers; the hot recording path never builds it.
        """
        columns = self._columns()
        return [
            CommitRecord(
                txn_id=int(columns[i, _COL_TXN_ID]),
                class_name=self._class_names[i],
                arrival=float(columns[i, _COL_ARRIVAL]),
                deadline=float(columns[i, _COL_DEADLINE]),
                commit_time=float(columns[i, _COL_COMMIT]),
                value_attained=float(columns[i, _COL_VALUE]),
                value_max=float(columns[i, _COL_VALUE_MAX]),
                restarts=int(columns[i, _COL_RESTARTS]),
            )
            for i in range(len(self._class_names))
        ]

    def _columns(self) -> np.ndarray:
        """The rows of every chunk, concatenated in commit order."""
        import numpy as np

        parts = list(self._chunks)
        if self._tail or not parts:
            parts.append(
                np.array(self._tail, dtype=np.float64).reshape(-1, _NUM_COLS)
            )
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts, axis=0)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def record_restart(self, txn: TransactionSpec) -> None:
        """A transaction lost all shadows / was aborted and started over."""
        self.restarts += 1
        self._restart_counts[txn.txn_id] = self._restart_counts.get(txn.txn_id, 0) + 1

    def record_shadow_abort(self, work: float) -> None:
        """An execution (shadow or run) was aborted after doing ``work``."""
        self.shadow_aborts += 1
        self.wasted_work += work

    def record_deferred_commit(self) -> None:
        """A finished execution's commitment was deferred at least once."""
        self.deferred_commits += 1

    def record_commit(self, txn: TransactionSpec, commit_time: float, work: float) -> None:
        """A transaction committed at ``commit_time`` with ``work`` service time."""
        if commit_time < txn.arrival:
            raise ProtocolError(
                f"T{txn.txn_id} committed at {commit_time} before arrival {txn.arrival}"
            )
        self.total_committed += 1
        self.useful_work += work
        if self.total_committed <= self.warmup_commits:
            return
        tail = self._tail
        if len(tail) == _CHUNK_ROWS:
            import numpy as np

            self._chunks.append(np.array(tail, dtype=np.float64))
            del tail[:]
        value_function = txn.value_function
        tail.append(
            (
                txn.txn_id,
                txn.arrival,
                txn.deadline,
                commit_time,
                value_function(commit_time),
                value_function.value,
                self._restart_counts.get(txn.txn_id, 0),
            )
        )
        self._class_names.append(txn.txn_class.name)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    def summary(self) -> RunSummary:
        """Aggregate the recorded commits into a :class:`RunSummary`.

        Elementwise terms (tardiness, response time) are computed as
        float64 column operations — bitwise equal to the per-record
        arithmetic they replace — while every *reduction* runs as a
        left-to-right Python-float ``sum`` in commit order, because the
        golden gate pins the summation order of the original
        record-at-a-time collector.
        """
        import numpy as np

        n = len(self._class_names)
        if n == 0:
            raise ProtocolError("no committed transactions recorded after warmup")
        columns = self._columns()
        deadline = columns[:, _COL_DEADLINE]
        commit = columns[:, _COL_COMMIT]
        late_mask = commit > deadline
        late_count = int(np.count_nonzero(late_mask))
        total_tardiness = sum((commit[late_mask] - deadline[late_mask]).tolist())
        value_attained = sum(columns[:, _COL_VALUE].tolist())
        value_max = sum(columns[:, _COL_VALUE_MAX].tolist())
        response_total = sum((commit - columns[:, _COL_ARRIVAL]).tolist())
        return RunSummary(
            committed=n,
            missed_ratio=100.0 * late_count / n,
            avg_tardiness_late=(total_tardiness / late_count) if late_count else 0.0,
            avg_tardiness_all=total_tardiness / n,
            system_value=100.0 * value_attained / value_max if value_max > 0 else 0.0,
            avg_response_time=response_total / n,
            restarts=self.restarts,
            shadow_aborts=self.shadow_aborts,
            wasted_work=self.wasted_work,
            useful_work=self.useful_work,
            deferred_commits=self.deferred_commits,
            per_class_missed=self._per_class_missed(late_mask),
            per_class_value=self._per_class_value(columns),
        )

    def _per_class_groups(self) -> dict[str, list[int]]:
        # Buckets appear in first-commit order and hold row indices in
        # commit order — both orders are part of the summary's identity
        # (dict iteration and per-class summation order).
        by_class: dict[str, list[int]] = {}
        for i, name in enumerate(self._class_names):
            by_class.setdefault(name, []).append(i)
        return by_class

    def _per_class_missed(self, late_mask: np.ndarray) -> dict[str, float]:
        import numpy as np

        return {
            name: 100.0 * int(np.count_nonzero(late_mask[rows])) / len(rows)
            for name, rows in self._per_class_groups().items()
        }

    def _per_class_value(self, columns: np.ndarray) -> dict[str, float]:
        result = {}
        for name, rows in self._per_class_groups().items():
            vmax = sum(columns[rows, _COL_VALUE_MAX].tolist())
            result[name] = (
                100.0 * sum(columns[rows, _COL_VALUE].tolist()) / vmax
                if vmax > 0
                else 0.0
            )
        return result
