"""The retired engine choice: old specs still load, new ones carry no key.

Every run uses the one simulation engine, so nothing selects an engine
any more.  Specs saved while the choice existed — and gateway board
payloads, which embed the spec — carry ``"engine": null`` (or
``"array"``), so those values still load and are dropped.  A spec asking
for the removed object engine is refused with a
:class:`~repro.errors.ConfigurationError`, which is a gateway 400 and a
one-line ``repro run`` error; the CLI no longer has an ``--engine``
flag.  Engine choice never entered result identity, so stores written
under either engine keep serving cells.
"""

import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.experiments.cli import main as cli_main
from repro.experiments.config import baseline_config
from repro.experiments.spec import ExperimentSpec
from repro.results.fingerprint import config_payload

CI_SMOKE = Path(__file__).resolve().parents[2] / "specs" / "ci-smoke.json"

SMALL = baseline_config(
    num_transactions=80,
    warmup_commits=8,
    replications=1,
    arrival_rates=(60.0,),
    check_serializability=False,
)

#: ``ExperimentSpec.load("specs/ci-smoke.json").to_json()`` as written
#: while specs still carried the engine choice.
CI_SMOKE_WITH_ENGINE = """{
  "arrival_rates": [
    60.0,
    140.0
  ],
  "engine": null,
  "executor": null,
  "num_transactions": 200,
  "protocols": [
    {
      "family": "scc-ks",
      "params": {
        "k": 3,
        "replacement": "lbfo"
      }
    },
    {
      "family": "occ-bc",
      "params": {}
    },
    {
      "family": "wait-50",
      "params": {
        "wait_threshold": 0.25
      }
    }
  ],
  "replications": 2,
  "scenario": "flash-sale-hotspot",
  "scenario_def": null,
  "schema": 1,
  "seed": null,
  "store": null,
  "store_backend": null,
  "telemetry": null,
  "warmup_commits": 20,
  "workers": null
}"""


def test_config_payload_carries_no_engine_key():
    payload = config_payload(SMALL)
    assert "engine" not in payload


def test_spec_saved_with_engine_null_loads():
    spec = ExperimentSpec.from_json(CI_SMOKE_WITH_ENGINE)
    assert spec == ExperimentSpec.load(CI_SMOKE)
    assert "engine" not in spec.to_dict()


def test_engine_array_is_accepted_and_dropped():
    payload = ExperimentSpec.create(["scc-2s"]).to_dict()
    spec = ExperimentSpec.from_dict({**payload, "engine": "array"})
    assert spec == ExperimentSpec.from_dict(payload)


@pytest.mark.parametrize("engine", ["object", "vector", 1])
def test_other_engines_are_refused(engine):
    payload = ExperimentSpec.create(["scc-2s"]).to_dict()
    with pytest.raises(ConfigurationError, match="object engine was removed"):
        ExperimentSpec.from_dict({**payload, "engine": engine})


def test_run_refuses_an_object_engine_spec_in_one_line(tmp_path):
    path = tmp_path / "spec.json"
    payload = json.loads(CI_SMOKE_WITH_ENGINE)
    path.write_text(json.dumps({**payload, "engine": "object"}))
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["run", str(path)])
    message = str(excinfo.value)
    assert message.startswith("scc-experiments: error: ")
    assert "object engine was removed" in message
    assert "\n" not in message


def test_cli_rejects_unknown_engine(capsys):
    # The --engine flag went with the choice: any value is an
    # unrecognized argument, on ``fig3`` and on ``run`` alike.
    for args in (
        ["fig3", "--engine", "vector"],
        ["run", str(CI_SMOKE), "--engine", "array"],
    ):
        with pytest.raises(SystemExit):
            cli_main(args)
        assert "unrecognized arguments: --engine" in capsys.readouterr().err
