"""A spec that validates also runs.

Every load-time check ``repro run`` and ``POST /experiments`` apply
(``ExperimentSpec.from_dict``, ``to_config`` and ``normalize_protocols``)
either refuses a spec with a ``ConfigurationError`` or lets it through to
cells that run.  Specs are drawn over every registered protocol family's
declared parameters, each from edge values (zero, negatives,
subnormals, 1e308) and ordinary ones, with the arrival rate drawn the
same way; a spec that passes must run one cell of at most 30
transactions without raising.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.experiments.runner import normalize_protocols, run_once
from repro.experiments.spec import ExperimentSpec
from repro.protocols.registry import all_protocol_families

#: Floats at and past every range's edge.
EDGE_FLOATS = (
    0.0, -0.0, -1.0, -1e308, 5e-324, 1e-310, 2.2250738585072014e-308,
    1e-300, 1e-9, 1.0, 2.0, 1e308,
)
EDGE_INTS = (-(2**31), -1, 0, 1, 2, 3, 2**31)

#: The specs that once validated and then failed every cell.
UNRUNNABLE = (
    {"protocol": "scc-2s", "rate": 1e-308},
    {"protocol": "scc-2s", "rate": 5e-324},
    {"protocol": "scc-ks?k=0", "rate": 60.0},
    {"protocol": "wait-50?wait_threshold=0", "rate": 60.0},
    {"protocol": "scc-vw?commit_threshold=2", "rate": 60.0},
    {"protocol": "scc-dc?period=1e-300", "rate": 60.0},
)

FLOATS = st.sampled_from(EDGE_FLOATS) | st.floats(
    min_value=1e-3, max_value=10.0, allow_nan=False
)
RATES = st.sampled_from(EDGE_FLOATS) | st.floats(
    min_value=1.0, max_value=400.0, allow_nan=False
)


def _values(param):
    if param.choices is not None:
        values = st.sampled_from(param.choices)
    elif param.kind == "int":
        values = st.sampled_from(EDGE_INTS) | st.integers(-3, 8)
    elif param.kind == "float":
        values = FLOATS
    elif param.kind == "bool":
        values = st.booleans()
    else:
        values = st.text(max_size=4)
    return st.none() | values if param.optional else values


@st.composite
def protocol_entries(draw):
    """A ``{"family": ..., "params": ...}`` entry of a registered family."""
    family = draw(st.sampled_from(list(all_protocol_families())))
    params = {}
    for param in family.params:
        if draw(st.booleans()):
            params[param.name] = draw(_values(param))
    return {"family": family.name, "params": params}


@settings(max_examples=150, deadline=None)
@given(
    protocol=protocol_entries(),
    rate=RATES,
    transactions=st.integers(1, 30),
    seed=st.integers(0, 2**16),
)
@example(protocol=UNRUNNABLE[0]["protocol"], rate=1e-308, transactions=30, seed=1)
@example(protocol=UNRUNNABLE[1]["protocol"], rate=5e-324, transactions=30, seed=1)
@example(protocol=UNRUNNABLE[2]["protocol"], rate=60.0, transactions=30, seed=1)
@example(protocol=UNRUNNABLE[3]["protocol"], rate=60.0, transactions=30, seed=1)
@example(protocol=UNRUNNABLE[4]["protocol"], rate=60.0, transactions=30, seed=1)
@example(protocol=UNRUNNABLE[5]["protocol"], rate=60.0, transactions=30, seed=1)
def test_a_spec_is_refused_at_load_or_runs(protocol, rate, transactions, seed):
    spec_dict = {
        "schema": 1,
        "protocols": [protocol],
        "arrival_rates": [rate],
        "replications": 1,
        "num_transactions": transactions,
        "warmup_commits": 0,
        "seed": seed,
    }
    try:
        spec = ExperimentSpec.from_dict(spec_dict)
        config = spec.to_config()
        [protocol_spec] = normalize_protocols(spec.protocols).values()
    except ConfigurationError:
        return
    summary = run_once(protocol_spec, config, rate, 0)
    assert summary is not None


def test_the_unrunnable_specs_are_refused_at_load():
    for case in UNRUNNABLE:
        spec_dict = {
            "schema": 1, "protocols": [case["protocol"]],
            "arrival_rates": [case["rate"]], "num_transactions": 30,
        }
        try:
            spec = ExperimentSpec.from_dict(spec_dict)
            spec.to_config()
            normalize_protocols(spec.protocols)
        except ConfigurationError:
            continue
        raise AssertionError(f"{case} passed every load-time check")
