"""The record contract: every value type keeps what it had as a generated class.

The package's value types are slotted classes on :mod:`repro._record`'s
two bases.  Each row of :data:`SIGNATURES` is one such class with the
constructor it had as a standard-library data class (parameter names,
order and defaults, generated once from that version with
``inspect.signature``; ``FACTORY`` marks a default built per instance)
and whether it was frozen.  :func:`test_record_contract` holds every
class to that: the constructor, assignment and deletion refused on a
frozen record, ``==`` and ``hash`` over the field tuple, the
``Name(field=value, ...)`` repr, ``replace`` re-running the checks, and
equal copies through ``copy``, ``deepcopy`` and ``pickle``, and weak
references.
"""

import copy
import importlib
import inspect
import pickle
import pkgutil
import weakref

import pytest

import repro
from repro._record import FrozenRecord, Record, fields, replace
from repro.core.conflict_table import ConflictTable
from repro.errors import ConfigurationError
from repro.experiments.config import baseline_class
from repro.experiments.parallel import CellError, SweepCell
from repro.metrics.stats import RunSummary
from repro.protocols.locks import LockMode, LockRequest
from repro.protocols.registry import ParamSpec, ProtocolSpec
from repro.txn.spec import Step, TransactionSpec
from repro.values.classes import TransactionClass
from repro.values.value_function import ValueFunction
from repro.workloads.extensions import MMPPSpec, ZipfianAccess
from repro.workloads.generator import SlackDeadlines

#: A default the constructor builds afresh for each instance.
FACTORY = object()

#: ``(module, class, frozen, ((param,) | (param, repr(default)) |
#: (param, FACTORY), ...))`` as the classes were before they became
#: records.
SIGNATURES = [
    ("repro.analysis.history", "CommittedTransaction", True, (
        ("txn_id",), ("commit_time",), ("reads",), ("writes",),
    )),
    ("repro.analysis.timeline", "TimelineEvent", True, (
        ("time",), ("kind",), ("txn_id",), ("lane",), ("mode",), ("position",),
    )),
    ("repro.analysis.timeline", "TimelineRow", True, (
        ("txn_id",), ("serial",), ("mode",), ("promoted",), ("label",), ("track",),
    )),
    ("repro.analysis.timeline", "_Lane", False, (
        ("txn_id",), ("serial",), ("mode",), ("promoted", "False"), ("events", FACTORY),
    )),
    ("repro.core.probability", "AdoptionProfile", False, (
        ("p_optimistic",), ("p_writer", FACTORY),
    )),
    ("repro.core.probability", "ShadowComponent", True, (
        ("probability",), ("elapsed",),
    )),
    ("repro.core.scc_base", "SCCTxnRuntime", False, (
        ("spec",), ("optimistic",), ("speculatives", FACTORY), ("conflicts", FACTORY),
        ("restarts", "0"), ("deferred", "False"),
    )),
    ("repro.db.page", "Page", False, (
        ("page_id",), ("version", "0"), ("value", "0"), ("last_writer", "None"),
    )),
    ("repro.experiments.config", "ExperimentConfig", True, (
        ("classes",), ("num_pages", "1000"), ("cpu_time", "0.001"),
        ("io_time", "0.007"), ("num_transactions", "4000"), ("warmup_commits", "200"),
        ("replications", "3"), ("seed", "901995"),
        ("arrival_rates", "(10, 25, 50, 75, 100, 125, 150, 175, 200)"),
        ("check_serializability", "True"), ("confidence_level", "0.9"),
        ("workload", "None"), ("num_servers", "None"),
    )),
    ("repro.experiments.parallel", "SweepCell", True, (
        ("index",), ("protocol",), ("rate_index",), ("arrival_rate",), ("replication",),
    )),
    ("repro.experiments.parallel", "CellError", True, (
        ("exc_type",), ("message",), ("traceback",),
    )),
    ("repro.experiments.parallel", "CellOutcome", True, (
        ("cell",), ("summary",), ("error",), ("elapsed",), ("telemetry", "None"),
    )),
    ("repro.experiments.parallel", "ProgressEvent", True, (
        ("kind",), ("cell",), ("completed",), ("total",), ("elapsed",), ("eta",),
        ("ok", "True"),
    )),
    ("repro.experiments.runner", "SweepResult", False, (
        ("protocol",), ("arrival_rates",), ("replications",),
    )),
    ("repro.experiments.spec", "ExperimentSpec", True, (
        ("protocols",), ("scenario", "None"), ("scenario_def", "None"),
        ("arrival_rates", "None"), ("replications", "None"),
        ("num_transactions", "None"), ("warmup_commits", "None"), ("seed", "None"),
        ("executor", "None"), ("workers", "None"), ("store", "None"),
        ("store_backend", "None"), ("telemetry", "None"),
    )),
    ("repro.gateway.routes", "Request", False, (
        ("method",), ("path",), ("headers", FACTORY), ("body", "b''"),
    )),
    ("repro.gateway.routes", "Response", False, (
        ("status",), ("body",), ("headers", FACTORY),
    )),
    ("repro.gateway.routes", "EventStream", False, (
        ("experiment_id",),
    )),
    ("repro.metrics.confidence", "ConfidenceInterval", True, (
        ("mean",), ("half_width",), ("level",), ("n",),
    )),
    ("repro.metrics.stats", "CommitRecord", False, (
        ("txn_id",), ("class_name",), ("arrival",), ("deadline",), ("commit_time",),
        ("value_attained",), ("value_max",), ("restarts",),
    )),
    ("repro.metrics.stats", "RunSummary", False, (
        ("committed",), ("missed_ratio",), ("avg_tardiness_late",),
        ("avg_tardiness_all",), ("system_value",), ("avg_response_time",),
        ("restarts",), ("shadow_aborts",), ("wasted_work",), ("useful_work",),
        ("deferred_commits",), ("per_class_missed", FACTORY),
        ("per_class_value", FACTORY),
    )),
    ("repro.protocols.locks", "LockRequest", False, (
        ("txn_id",), ("mode",), ("key",), ("alive", "True"),
    )),
    ("repro.protocols.locks", "_LockEntry", False, (
        ("holders", FACTORY), ("queue", FACTORY),
    )),
    ("repro.protocols.occ", "_TxnRuntime", False, (
        ("spec",), ("execution",), ("restarts", "0"),
    )),
    ("repro.protocols.occ_bc", "_TxnRuntime", False, (
        ("spec",), ("execution",), ("restarts", "0"),
    )),
    ("repro.protocols.registry", "ParamSpec", True, (
        ("name",), ("kind",), ("default",), ("optional", "False"), ("choices", "None"),
        ("doc", "''"),
    )),
    ("repro.protocols.registry", "ProtocolFamily", True, (
        ("name",), ("builder",), ("params", "()"), ("description", "''"),
        ("label", "''"), ("label_params", FACTORY),
    )),
    ("repro.protocols.registry", "ProtocolSpec", True, (
        ("family",), ("items", "()"),
    )),
    ("repro.protocols.twopl_pa", "_TxnRuntime", False, (
        ("spec",), ("execution",), ("restarts", "0"), ("generation", "0"),
    )),
    ("repro.protocols.wait50", "_TxnRuntime", False, (
        ("spec",), ("execution",), ("restarts", "0"), ("deferred_once", "False"),
    )),
    ("repro.results.record", "RunRecord", True, (
        ("fingerprint",), ("config_fingerprint",), ("protocol",), ("arrival_rate",),
        ("replication",), ("seed",), ("summary",), ("scenario", "None"),
        ("elapsed", "0.0"), ("protocol_spec", "None"), ("telemetry", "None"),
    )),
    ("repro.telemetry.bus", "SweepEvent", True, (
        ("kind",), ("payload",),
    )),
    ("repro.telemetry.events", "TraceEvent", True, (
        ("time",), ("kind",), ("txn",), ("lane", "None"), ("mode", "None"),
        ("pos", "None"), ("data", FACTORY),
    )),
    ("repro.txn.spec", "Step", True, (
        ("page",), ("is_write",),
    )),
    ("repro.txn.spec", "TransactionSpec", False, (
        ("txn_id",), ("arrival",), ("deadline",), ("steps",), ("value_function",),
        ("txn_class",), ("estimated_duration",),
    )),
    ("repro.values.classes", "TransactionClass", True, (
        ("name",), ("num_steps",), ("write_probability",), ("slack_factor",),
        ("value", "1.0"), ("alpha_degrees", "45.0"), ("weight", "1.0"),
    )),
    ("repro.values.value_function", "ValueFunction", True, (
        ("value",), ("deadline",), ("penalty_gradient",), ("arrival", "0.0"),
    )),
    ("repro.workloads.access", "UniformAccess", True, (
    )),
    ("repro.workloads.arrivals", "PoissonSpec", True, (
    )),
    ("repro.workloads.extensions", "ZipfianAccess", True, (
        ("theta", "0.8"),
    )),
    ("repro.workloads.extensions", "HotspotAccess", True, (
        ("hot_page_fraction", "0.1"), ("hot_access_fraction", "0.8"),
    )),
    ("repro.workloads.extensions", "PartitionedAccess", True, (
        ("write_region_fraction", "0.25"),
    )),
    ("repro.workloads.extensions", "MMPPSpec", True, (
        ("burst_factor", "8.0"), ("on_fraction", "0.25"), ("mean_cycle", "10.0"),
    )),
    ("repro.workloads.extensions", "DiurnalSpec", True, (
        ("amplitude", "0.7"), ("period", "60.0"),
    )),
    ("repro.workloads.extensions", "TraceSpec", True, (
        ("times", "()"), ("cycle", "True"),
    )),
    ("repro.workloads.extensions", "FixedOffsetDeadlines", True, (
        ("offset", "0.5"),
    )),
    ("repro.workloads.generator", "SlackDeadlines", True, (
        ("factor", "None"),
    )),
    ("repro.workloads.generator", "WorkloadSpec", True, (
        ("arrivals", "PoissonSpec()"), ("access", "UniformAccess()"),
        ("deadlines", "SlackDeadlines(factor=None)"),
    )),
    ("repro.workloads.scenarios", "Scenario", True, (
        ("name",), ("description",), ("arrivals", "PoissonSpec()"),
        ("access", "UniformAccess()"), ("classes", FACTORY),
        ("deadlines", "SlackDeadlines(factor=None)"), ("num_pages", "1000"),
        ("arrival_rates", "(10, 25, 50, 75, 100, 125, 150, 175, 200)"),
        ("stresses", "''"),
    )),
]

#: What each ``FACTORY`` default builds.
FACTORIES = {
    ("_Lane", "events"): list,
    ("AdoptionProfile", "p_writer"): dict,
    ("SCCTxnRuntime", "speculatives"): dict,
    ("SCCTxnRuntime", "conflicts"): ConflictTable,
    ("Request", "headers"): dict,
    ("Response", "headers"): dict,
    ("RunSummary", "per_class_missed"): dict,
    ("RunSummary", "per_class_value"): dict,
    ("_LockEntry", "holders"): dict,
    ("_LockEntry", "queue"): list,
    ("ProtocolFamily", "label_params"): frozenset,
    ("TraceEvent", "data"): dict,
    ("Scenario", "classes"): lambda: (baseline_class(),),
}

#: Fields a constructor derives rather than takes: they follow the
#: parameters in the field order.
DERIVED = {"SCCTxnRuntime": ("txn_id",)}

#: Classes with a hand-written ``__eq__``/``__hash__`` or ``__repr__``.
OWN_EQ = {"TransactionSpec"}
OWN_REPR = {"Step": lambda step: f"{'W' if step.is_write else 'R'}({step.page})"}


def _txn(txn_id=1):
    return TransactionSpec(
        txn_id=txn_id, arrival=0.0, deadline=1.0, steps=(Step(3, True), Step(4, False)),
        value_function=ValueFunction(1.0, 1.0, 1.0),
        txn_class=TransactionClass("c", 2, 0.5, 2.0), estimated_duration=0.5,
    )


def _summary(**changes):
    values = dict(
        committed=10, missed_ratio=12.5, avg_tardiness_late=0.25,
        avg_tardiness_all=0.05, system_value=80.0, avg_response_time=0.3,
        restarts=2, shadow_aborts=1, wasted_work=0.1, useful_work=1.2,
        deferred_commits=0, per_class_missed={"c": 12.5}, per_class_value={"c": 80.0},
    )
    values.update(changes)
    return values


def _cell():
    return SweepCell(index=0, protocol="P", rate_index=0, arrival_rate=40.0,
                     replication=1)


#: ``class -> (sample constructor arguments, a change for replace, an
#: invalid change its checks refuse or None)``.  Values that stand in for
#: runtime objects (shadows, executions) compare by value, so copies of
#: a sample compare equal.
SAMPLES = {
    "CommittedTransaction": (
        lambda: dict(txn_id=1, commit_time=0.5, reads={1: 0}, writes={1: 1}),
        {"commit_time": 0.75}, None,
    ),
    "TimelineEvent": (
        lambda: dict(time=0.1, kind="spawn", txn_id=1, lane=2, mode="optimistic",
                     position=0),
        {"position": 3}, None,
    ),
    "TimelineRow": (
        lambda: dict(txn_id=1, serial=2, mode="speculative", promoted=False,
                     label="T1 shadow#2", track="=="),
        {"promoted": True}, None,
    ),
    "_Lane": (
        lambda: dict(txn_id=1, serial=2, mode="optimistic", promoted=True,
                     events=["e"]),
        {"serial": 5}, None,
    ),
    "AdoptionProfile": (
        lambda: dict(p_optimistic=0.5, p_writer={2: 0.5}), {"p_optimistic": 1.0}, None,
    ),
    "ShadowComponent": (
        lambda: dict(probability=0.5, elapsed=None), {"elapsed": 0.25}, None,
    ),
    "SCCTxnRuntime": (
        lambda: dict(spec=_txn(), optimistic="optimistic", speculatives={2: "shadow"},
                     conflicts="conflicts", restarts=1, deferred=True),
        {"spec": _txn(7)}, None,
    ),
    "Page": (
        lambda: dict(page_id=3, version=1, value=7, last_writer=2), {"value": 8}, None,
    ),
    "ExperimentConfig": (
        lambda: dict(classes=(baseline_class(),), num_transactions=100,
                     warmup_commits=10, arrival_rates=(40.0,)),
        {"replications": 2}, {"replications": 0},
    ),
    "SweepCell": (lambda: dict(
        index=0, protocol="P", rate_index=0, arrival_rate=40.0, replication=1,
    ), {"replication": 2}, None),
    "CellError": (
        lambda: dict(exc_type="ValueError", message="bad", traceback="tb"),
        {"message": "worse"}, None,
    ),
    "CellOutcome": (
        lambda: dict(cell=_cell(), summary=None,
                     error=CellError("ValueError", "bad", "tb"), elapsed=0.5),
        {"elapsed": 0.75}, None,
    ),
    "ProgressEvent": (
        lambda: dict(kind="completed", cell=_cell(), completed=1, total=2,
                     elapsed=0.5, eta=0.5),
        {"ok": False}, None,
    ),
    "SweepResult": (
        lambda: dict(protocol="P", arrival_rates=(40.0,), replications=[[1.0]]),
        {"protocol": "Q"}, None,
    ),
    "ExperimentSpec": (
        lambda: dict(protocols=(ProtocolSpec("scc-2s"),), seed=5),
        {"seed": 6}, {"protocols": ()},
    ),
    "Request": (
        lambda: dict(method="GET", path="/healthz", headers={"x-client": "a"}),
        {"path": "/experiments"}, None,
    ),
    "Response": (
        lambda: dict(status=200, body={"ok": True}, headers={"retry-after": "1"}),
        {"status": 404}, None,
    ),
    "EventStream": (lambda: dict(experiment_id="abc"), {"experiment_id": "d"}, None),
    "ConfidenceInterval": (
        lambda: dict(mean=1.0, half_width=0.5, level=0.9, n=3), {"n": 4}, None,
    ),
    "CommitRecord": (
        lambda: dict(txn_id=1, class_name="c", arrival=0.0, deadline=1.0,
                     commit_time=0.5, value_attained=1.0, value_max=1.0, restarts=0),
        {"restarts": 1}, None,
    ),
    "RunSummary": (_summary, {"restarts": 3}, None),
    "LockRequest": (
        lambda: dict(txn_id=1, mode=LockMode.READ, key=(0.5, 1)), {"alive": False},
        None,
    ),
    "_LockEntry": (
        lambda: dict(holders={1: LockMode.WRITE},
                     queue=[LockRequest(2, LockMode.READ, (0.7, 2))]),
        {"holders": {}}, None,
    ),
    "_TxnRuntime": (
        lambda: dict(spec=_txn(), execution="execution"), {"restarts": 1}, None,
    ),
    "ParamSpec": (
        lambda: dict(name="k", kind="int", default=2), {"optional": True}, None,
    ),
    "ProtocolFamily": (
        lambda: dict(name="x", builder=dict, params=(ParamSpec("k", "int", 2),),
                     label="X", label_params=frozenset({"k"})),
        {"description": "d"}, None,
    ),
    "ProtocolSpec": (
        lambda: dict(family="scc-ks", items=(("k", 3),)), {"items": ()}, None,
    ),
    "RunRecord": (
        lambda: dict(fingerprint="ab" * 16, config_fingerprint="cd" * 16,
                     protocol="P", arrival_rate=40.0, replication=0, seed=1,
                     summary=RunSummary(**_summary()), telemetry={"events": 3}),
        {"elapsed": 1.5}, None,
    ),
    "SweepEvent": (
        lambda: dict(kind="cell_done", payload={"index": 0}), {"kind": "x"}, None,
    ),
    "TraceEvent": (
        lambda: dict(time=0.5, kind="arrival", txn=1, pos=0, data={"page": 3}),
        {"txn": 2}, None,
    ),
    "Step": (lambda: dict(page=3, is_write=True), {"is_write": False}, None),
    "TransactionSpec": (
        lambda: dict(txn_id=1, arrival=0.0, deadline=1.0, steps=(Step(3, True),),
                     value_function=ValueFunction(1.0, 1.0, 1.0),
                     txn_class=TransactionClass("c", 1, 0.5, 2.0),
                     estimated_duration=0.5),
        {"deadline": 2.0}, {"steps": ()},
    ),
    "TransactionClass": (
        lambda: dict(name="c", num_steps=4, write_probability=0.25, slack_factor=2.0),
        {"weight": 2.0}, {"num_steps": 0},
    ),
    "ValueFunction": (
        lambda: dict(value=1.0, deadline=2.0, penalty_gradient=1.0, arrival=0.5),
        {"value": 2.0}, {"value": -1.0},
    ),
    "UniformAccess": (dict, {}, None),
    "PoissonSpec": (dict, {}, None),
    "ZipfianAccess": (lambda: dict(theta=0.9), {"theta": 1.1}, {"theta": -1.0}),
    "HotspotAccess": (
        lambda: dict(hot_page_fraction=0.2, hot_access_fraction=0.7),
        {"hot_access_fraction": 0.9}, {"hot_page_fraction": 1.5},
    ),
    "PartitionedAccess": (
        lambda: dict(write_region_fraction=0.3), {"write_region_fraction": 0.4},
        {"write_region_fraction": 0.0},
    ),
    "MMPPSpec": (
        lambda: dict(burst_factor=4.0, on_fraction=0.5, mean_cycle=5.0),
        {"mean_cycle": 6.0}, None,
    ),
    "DiurnalSpec": (lambda: dict(amplitude=0.5, period=30.0), {"period": 20.0}, None),
    "TraceSpec": (
        lambda: dict(times=(0.0, 1.0, 3.0), cycle=False), {"cycle": True},
        {"times": ()},
    ),
    "FixedOffsetDeadlines": (lambda: dict(offset=0.25), {"offset": 0.5},
                             {"offset": 0.0}),
    "SlackDeadlines": (lambda: dict(factor=3.0), {"factor": None}, {"factor": 0.5}),
    "WorkloadSpec": (
        lambda: dict(arrivals=MMPPSpec(), access=ZipfianAccess(),
                     deadlines=SlackDeadlines(2.0)),
        {"access": ZipfianAccess(1.2)}, None,
    ),
    "Scenario": (
        lambda: dict(name="s", description="d", num_pages=100, arrival_rates=(40.0,)),
        {"stresses": "SCC-2S"}, {"name": ""},
    ),
}


def _unhashable(values: tuple) -> bool:
    try:
        hash(values)
    except TypeError:
        return True
    return False


@pytest.mark.parametrize(
    "module_name, name, frozen, params", SIGNATURES,
    ids=[f"{row[0]}.{row[1]}" for row in SIGNATURES],
)
def test_record_contract(module_name, name, frozen, params):
    cls = getattr(importlib.import_module(module_name), name)
    assert issubclass(cls, FrozenRecord if frozen else Record)
    assert issubclass(cls, FrozenRecord) == frozen

    # The constructor: names, order and defaults.
    signature = inspect.signature(cls).parameters
    assert [p.name for p in signature.values()] == [p[0] for p in params]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in signature.values())
    for param, *default in params:
        actual = signature[param].default
        if not default:
            assert actual is inspect.Parameter.empty, param
        elif default[0] is not FACTORY:
            assert repr(actual) == default[0], param
    names = tuple(p[0] for p in params) + DERIVED.get(name, ())
    assert fields(cls) == names

    sample, change, invalid = SAMPLES[name]
    record = cls(**sample())
    twin = cls(**sample())
    values = tuple(getattr(record, field) for field in names)
    assert not hasattr(record, "__dict__")
    assert weakref.ref(record)() is record

    # A factory default is built afresh for each instance.
    factory_params = [p[0] for p in params if p[1:] == (FACTORY,)]
    if factory_params:
        bare = {k: v for k, v in sample().items() if k not in factory_params}
        first, second = cls(**bare), cls(**bare)
        for param in factory_params:
            expected = FACTORIES[name, param]()
            built = getattr(first, param)
            assert type(built) is type(expected), param
            if type(expected) is not ConflictTable:
                assert built == expected, param
            if not isinstance(expected, (tuple, frozenset)):
                assert built is not getattr(second, param), param

    # Frozen records refuse assignment and deletion; mutable ones take
    # assignment to a field but no attribute outside them.
    target = names[0] if names else "anything"
    if frozen:
        with pytest.raises(AttributeError):
            setattr(record, target, None)
        with pytest.raises(AttributeError):
            delattr(record, target)
        assert getattr(record, target, None) == (values[0] if names else None)
    else:
        setattr(twin, target, values[0])
        with pytest.raises(AttributeError):
            record.not_a_field = 1

    # == and hash over the field tuple (TransactionSpec compares by id).
    assert record == twin and not record != twin
    assert record != object()
    if name in OWN_EQ:
        assert hash(record) == record.txn_id
    elif not frozen:
        with pytest.raises(TypeError):
            hash(record)
    elif _unhashable(values):
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(values) == hash(twin)

    # The repr.
    if name in OWN_REPR:
        assert repr(record) == OWN_REPR[name](record)
    else:
        body = ", ".join(f"{field}={value!r}" for field, value in zip(names, values))
        assert repr(record) == f"{name}({body})"

    # replace: an equal, distinct copy; the change applied; checks rerun.
    same = replace(record)
    assert same == record and same is not record
    changed = replace(record, **change)
    for field in names:
        expected = change.get(field, getattr(record, field))
        if field in DERIVED.get(name, ()):
            expected = getattr(changed.spec, field)
        assert getattr(changed, field) == expected, field
    if change and name not in OWN_EQ:
        assert changed != record
    if invalid is not None:
        with pytest.raises(ConfigurationError):
            replace(record, **invalid)

    # copy, deepcopy and pickle give equal instances of the same class.
    for duplicate in (
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
    ):
        assert type(duplicate) is cls
        assert duplicate == record
        assert tuple(getattr(duplicate, field) for field in names) == values


def test_every_record_class_is_in_the_table():
    listed = {(module, name) for module, name, _, _ in SIGNATURES}
    found = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and issubclass(value, Record)
                and value.__module__ == info.name
                and not inspect.isabstract(value)
                and value not in (Record, FrozenRecord)
            ):
                found.add((info.name, value.__name__))
    assert found == listed
    assert set(SAMPLES) == {name for _, name in listed}
