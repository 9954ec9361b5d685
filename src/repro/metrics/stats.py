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

from typing import Optional

from repro._record import Record, asdict, fields
from repro.errors import ProtocolError
from repro.txn.spec import TransactionSpec


class CommitRecord(Record):
    """Outcome of one committed transaction."""

    __slots__ = (
        "txn_id",
        "class_name",
        "arrival",
        "deadline",
        "commit_time",
        "value_attained",
        "value_max",
        "restarts",
    )

    def __init__(
        self,
        txn_id: int,
        class_name: str,
        arrival: float,
        deadline: float,
        commit_time: float,
        value_attained: float,
        value_max: float,
        restarts: int,
    ) -> None:
        self.txn_id = txn_id
        self.class_name = class_name
        self.arrival = arrival
        self.deadline = deadline
        self.commit_time = commit_time
        self.value_attained = value_attained
        self.value_max = value_max
        self.restarts = restarts

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


class RunSummary(Record):
    """Aggregated measures of one simulation run."""

    __slots__ = (
        "committed",
        "missed_ratio",
        "avg_tardiness_late",
        "avg_tardiness_all",
        "system_value",
        "avg_response_time",
        "restarts",
        "shadow_aborts",
        "wasted_work",
        "useful_work",
        "deferred_commits",
        "per_class_missed",
        "per_class_value",
    )

    def __init__(
        self,
        committed: int,
        missed_ratio: float,  # percent
        avg_tardiness_late: float,  # seconds, mean over late transactions
        avg_tardiness_all: float,  # seconds, mean over all transactions
        system_value: float,  # percent of maximum attainable value
        avg_response_time: float,
        restarts: int,
        shadow_aborts: int,
        wasted_work: float,  # seconds of aborted service time
        useful_work: float,  # seconds of committed service time
        deferred_commits: int,
        per_class_missed: Optional[dict[str, float]] = None,
        per_class_value: Optional[dict[str, float]] = None,
    ) -> None:
        self.committed = committed
        self.missed_ratio = missed_ratio
        self.avg_tardiness_late = avg_tardiness_late
        self.avg_tardiness_all = avg_tardiness_all
        self.system_value = system_value
        self.avg_response_time = avg_response_time
        self.restarts = restarts
        self.shadow_aborts = shadow_aborts
        self.wasted_work = wasted_work
        self.useful_work = useful_work
        self.deferred_commits = deferred_commits
        self.per_class_missed = {} if per_class_missed is None else per_class_missed
        self.per_class_value = {} if per_class_value is None else per_class_value

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
        payload = asdict(self)
        payload["per_class_missed"] = dict(self.per_class_missed)
        payload["per_class_value"] = dict(self.per_class_value)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "RunSummary":
        """Rebuild a summary from its :meth:`to_dict` form.

        Raises:
            ProtocolError: If the payload is missing fields or carries
                unknown ones (a schema mismatch, e.g. a store written by a
                different library version).
        """
        field_names = set(fields(cls))
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


# Field positions in a commit row, which is laid out as the fields of
# :class:`CommitRecord`.
_CLASS = 1
_ARRIVAL = 2
_DEADLINE = 3
_COMMIT = 4
_VALUE = 5
_VALUE_MAX = 6


class MetricsCollector:
    """Accumulates per-transaction outcomes during a run.

    Transactions committed before ``warmup_commits`` completions are counted
    for progress but excluded from the summary statistics, the standard
    transient-removal discipline.

    Each post-warmup commit is one row tuple laid out as the fields of
    :class:`CommitRecord` (no record object is built while the run
    goes), and :meth:`summary` aggregates over the rows.  Every
    reduction runs left to right over Python floats in commit order: the
    float-summation order is part of the golden-gated result.  The
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
        self._rows: list[tuple] = []

    @property
    def records(self) -> list[CommitRecord]:
        """Post-warmup commits as :class:`CommitRecord` objects.

        A diagnostics view built on demand from the commit rows; the hot
        recording path never builds it.
        """
        return [CommitRecord(*row) for row in self._rows]

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
        value_function = txn.value_function
        self._rows.append(
            (
                txn.txn_id,
                txn.txn_class.name,
                txn.arrival,
                txn.deadline,
                commit_time,
                value_function(commit_time),
                value_function.value,
                self._restart_counts.get(txn.txn_id, 0),
            )
        )

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    def summary(self) -> RunSummary:
        """Aggregate the recorded commits into a :class:`RunSummary`.

        Every reduction is a left-to-right Python-float ``sum`` in commit
        order, because the golden gate pins the summation order of the
        original record-at-a-time collector.
        """
        rows = self._rows
        n = len(rows)
        if n == 0:
            raise ProtocolError("no committed transactions recorded after warmup")
        late = [row for row in rows if row[_COMMIT] > row[_DEADLINE]]
        late_count = len(late)
        total_tardiness = sum([row[_COMMIT] - row[_DEADLINE] for row in late])
        value_attained = sum([row[_VALUE] for row in rows])
        value_max = sum([row[_VALUE_MAX] for row in rows])
        response_total = sum([row[_COMMIT] - row[_ARRIVAL] for row in rows])
        per_class_missed = {}
        per_class_value = {}
        for name, class_rows in self._per_class_rows().items():
            class_late = sum(1 for row in class_rows if row[_COMMIT] > row[_DEADLINE])
            per_class_missed[name] = 100.0 * class_late / len(class_rows)
            vmax = sum([row[_VALUE_MAX] for row in class_rows])
            per_class_value[name] = (
                100.0 * sum([row[_VALUE] for row in class_rows]) / vmax
                if vmax > 0
                else 0.0
            )
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
            per_class_missed=per_class_missed,
            per_class_value=per_class_value,
        )

    def _per_class_rows(self) -> dict[str, list[tuple]]:
        # Buckets appear in first-commit order and hold rows in commit
        # order — both orders are part of the summary's identity (dict
        # iteration and per-class summation order).
        by_class: dict[str, list[tuple]] = {}
        for row in self._rows:
            by_class.setdefault(row[_CLASS], []).append(row)
        return by_class
