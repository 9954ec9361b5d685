"""Experiment gateway: the simulator as a long-running HTTP service.

``repro serve`` turns the one-shot sweep pipeline into a multi-tenant
service: clients POST :class:`~repro.experiments.spec.ExperimentSpec`
JSON, the gateway validates it through the spec layer, deduplicates
cells by fingerprint against the shared run store and other in-flight
experiments, enqueues fresh cells on a SQLite job board, executes them
on a worker pool, and streams each experiment's sweep events back as
chunked JSON lines.

The pieces:

* :mod:`repro.gateway.app` — :class:`GatewayApp`, the HTTP-free core
  (validation, dedup, board, workers, drain);
* :mod:`repro.gateway.quotas` — per-client token-bucket admission
  control (:class:`ClientQuotas`);
* :mod:`repro.gateway.breaker` — the worker :class:`CircuitBreaker`
  (park repeat offenders, degrade to partial results);
* :mod:`repro.gateway.routes` / :mod:`repro.gateway.server` — the
  transport (route table + asyncio HTTP server with SIGTERM drain);
* :mod:`repro.gateway.client` — a stdlib :class:`GatewayClient`.

See ``docs/ARCHITECTURE.md`` ("Experiment gateway") for the request
lifecycle.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "EXPERIMENT_STATES": "repro.gateway.app",
    "GatewayApp": "repro.gateway.app",
    "GatewayDraining": "repro.gateway.app",
    "UnknownExperiment": "repro.gateway.app",
    "BREAKER_STATES": "repro.gateway.breaker",
    "CircuitBreaker": "repro.gateway.breaker",
    "GatewayClient": "repro.gateway.client",
    "GatewayError": "repro.gateway.client",
    "ClientQuotas": "repro.gateway.quotas",
    "QuotaExceeded": "repro.gateway.quotas",
    "TokenBucket": "repro.gateway.quotas",
    "GatewayServer": "repro.gateway.server",
    "serve": "repro.gateway.server",
})
