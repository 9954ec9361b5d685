"""Named, parameterized protocol specifications and their registry.

Every concurrency-control protocol in the library — the SCC family
(SCC-2S/kS/CB/DC/VW) and the paper's baselines (2PL-PA, OCC, OCC-BC,
WAIT-50, Serial) — registers a :class:`ProtocolFamily` here.  A
:class:`ProtocolSpec` then names one concrete, fully-parameterized member
of a family (``scc-ks?k=3``) and is the *identity* the experiment stack
deals in:

* it is serializable — dict/JSON and compact-string round-trips are
  exact, so specs can live in experiment files and CLI arguments;
* it is a factory — calling a spec builds a fresh protocol instance,
  which is how :func:`~repro.experiments.runner.run_sweep` builds each
  cell's protocol from its roster;
* it is content-addressable — :meth:`ProtocolSpec.fingerprint_payload`
  feeds the run-store fingerprints
  (:mod:`repro.results.fingerprint`), so two differently-parameterized
  variants of one family (``scc-ks?k=2`` vs ``scc-ks?k=3``) can never
  collide on a cached cell, which bare display names allowed.

Spec strings
------------
``family`` or ``family?param=value&param2=value2``.  Values parse as
``none``/``true``/``false``, integers, floats, or bare strings; every
parameter not mentioned takes its registered default, so
``scc-ks`` == ``scc-ks?k=2`` and equality compares *fully-defaulted*
parameter sets.

The registry is open: :func:`register_protocol` accepts new families
(e.g. an experimental protocol in a research branch), and
:func:`available_protocols` is what the CLI's ``specs`` command prints.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Mapping, Optional, Union

from repro._record import FrozenRecord
from repro.errors import ConfigurationError

__all__ = [
    "ParamSpec",
    "ProtocolFamily",
    "ProtocolSpec",
    "all_protocol_families",
    "available_protocols",
    "get_protocol_family",
    "parse_protocol_spec",
    "protocol_spec",
    "register_protocol",
]

#: Replacement-policy choices accepted by the SCC families' ``replacement``
#: parameter (resolved lazily to policy instances at build time).
REPLACEMENT_CHOICES = ("lbfo", "deadline-aware", "value-aware")


def _replacement_policy(name: str):
    """Resolve a replacement-policy choice string to a fresh instance."""
    from repro.core.replacement import (
        DeadlineAwareReplacement,
        LatestBlockedFirstOut,
        ValueAwareReplacement,
    )

    policies = {
        "lbfo": LatestBlockedFirstOut,
        "deadline-aware": DeadlineAwareReplacement,
        "value-aware": ValueAwareReplacement,
    }
    return policies[name]()


class ParamSpec(FrozenRecord):
    """One declared parameter of a protocol family.

    Parameters
    ----------
    name : str
        Parameter key as it appears in spec strings and dicts.
    kind : str
        Value type: ``"int"``, ``"float"``, ``"str"``, or ``"bool"``.
    default : Any
        Value used when the parameter is omitted.  Part of the spec's
        identity: omitted parameters are *filled in*, not left out.
    optional : bool
        Whether ``None`` (spelled ``none`` in spec strings) is allowed.
    choices : tuple, optional
        Closed set of allowed values (used by ``str`` parameters).
    doc : str
        One-line description shown by the CLI ``specs`` listing.
    """

    __slots__ = ("name", "kind", "default", "optional", "choices", "doc")

    def __init__(
        self,
        name: str,
        kind: str,
        default: Any,
        optional: bool = False,
        choices: Optional[tuple] = None,
        doc: str = "",
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "default", default)
        object.__setattr__(self, "optional", optional)
        object.__setattr__(self, "choices", choices)
        object.__setattr__(self, "doc", doc)

    def coerce(self, value: Any) -> Any:
        """Normalize ``value`` (JSON value or spec-string token) to type.

        Raises
        ------
        ConfigurationError
            If the value cannot be interpreted as this parameter's kind,
            is ``None`` for a non-optional parameter, or falls outside
            ``choices``.
        """
        if isinstance(value, str) and value.lower() in ("none", "null"):
            value = None
        if value is None:
            if not self.optional:
                raise ConfigurationError(
                    f"parameter {self.name!r} does not accept none"
                )
            return None
        try:
            coerced = self._coerce_kind(value)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"parameter {self.name!r} expects {self.kind}, "
                f"got {value!r} ({exc})"
            ) from None
        if self.choices is not None and coerced not in self.choices:
            raise ConfigurationError(
                f"parameter {self.name!r} must be one of "
                f"{', '.join(map(str, self.choices))}; got {coerced!r}"
            )
        return coerced

    def _coerce_kind(self, value: Any) -> Any:
        """Apply the kind-specific conversion (bool/int/float/str)."""
        if self.kind == "bool":
            if isinstance(value, bool):
                return value
            if isinstance(value, str) and value.lower() in ("true", "false"):
                return value.lower() == "true"
            raise ValueError("not a boolean")
        if self.kind == "int":
            if isinstance(value, bool):
                raise ValueError("booleans are not integers here")
            if isinstance(value, int):
                return value
            if isinstance(value, str):
                return int(value)
            raise ValueError("not an integer")
        if self.kind == "float":
            if isinstance(value, bool):
                raise ValueError("booleans are not floats here")
            if isinstance(value, (int, float)):
                return float(value)
            if isinstance(value, str):
                return float(value)
            raise ValueError("not a float")
        if self.kind == "str":
            if isinstance(value, str):
                return value
            raise ValueError("not a string")
        raise ConfigurationError(
            f"parameter {self.name!r} has unknown kind {self.kind!r}"
        )


class ProtocolFamily(FrozenRecord):
    """One registered protocol family: builder, parameters, labelling.

    Parameters
    ----------
    name : str
        Registry key (lower-case, e.g. ``"scc-ks"``).
    builder : callable
        ``builder(**params) -> CCProtocol`` producing a fresh instance.
        Builders import their protocol classes lazily, which keeps this
        module import-light and cycle-free.
    params : tuple of ParamSpec
        Declared parameters (order is the ``specs`` listing order).
    description : str
        One-line description shown by the CLI ``specs`` listing.
    label : str or callable
        Display label: a static string, or ``label(params) -> str`` when
        a parameter is conventionally encoded in the name (``SCC-3S``,
        ``WAIT-25``).  Parameters *not* reflected by the label are
        appended as a bracketed suffix by :attr:`ProtocolSpec.label`.
    label_params : frozenset of str
        The parameters the label callable already encodes.
    """

    __slots__ = ("name", "builder", "params", "description", "label", "label_params")

    def __init__(
        self,
        name: str,
        builder: Callable[..., Any],
        params: tuple[ParamSpec, ...] = (),
        description: str = "",
        label: Union[str, Callable[[Mapping[str, Any]], str]] = "",
        label_params: frozenset = frozenset(),
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "builder", builder)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "label_params", label_params)

    def param(self, name: str) -> ParamSpec:
        """Look one declared parameter up by name.

        Raises
        ------
        ConfigurationError
            Unknown parameter (the message lists the declared ones).
        """
        for spec in self.params:
            if spec.name == name:
                return spec
        declared = ", ".join(p.name for p in self.params) or "(none)"
        raise ConfigurationError(
            f"protocol {self.name!r} has no parameter {name!r}; "
            f"declared: {declared}"
        )

    def defaults(self) -> dict[str, Any]:
        """The fully-defaulted parameter dict of this family."""
        return {p.name: p.default for p in self.params}

    def base_label(self, params: Mapping[str, Any]) -> str:
        """The display label before any non-encoded-parameter suffix."""
        if callable(self.label):
            return self.label(params)
        return self.label or self.name.upper()


class ProtocolSpec(FrozenRecord):
    """A fully-parameterized member of a registered protocol family.

    Instances are frozen, hashable, and *normalized*: every declared
    parameter is present (defaults filled in) and type-coerced, so two
    specs are equal iff they build identically-configured protocols.
    Use :meth:`create`, :func:`parse_protocol_spec`, or
    :meth:`from_dict` rather than the raw constructor.

    A spec is also a zero-argument protocol factory (calling it builds a
    fresh instance), so it can be passed wherever one protocol run takes
    a factory (:func:`~repro.experiments.runner.run_once`).
    """

    __slots__ = ("family", "items")

    def __init__(self, family: str, items: tuple = ()) -> None:
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "items", items)

    @classmethod
    def create(cls, family: str, **params: Any) -> "ProtocolSpec":
        """Build a normalized spec for ``family`` with keyword parameters.

        Raises
        ------
        ConfigurationError
            Unknown family, unknown parameter, or a value that fails the
            parameter's type/choice validation.
        """
        family_def = get_protocol_family(family)
        values = family_def.defaults()
        for key, value in params.items():
            values[key] = family_def.param(key).coerce(value)
        return cls(
            family=family_def.name,
            items=tuple(sorted(values.items())),
        )

    @property
    def params(self) -> dict[str, Any]:
        """The full (defaults-included) parameter dict."""
        return dict(self.items)

    @property
    def label(self) -> str:
        """Display label used as the results/series key.

        The family's base label encodes its conventional parameter
        (``SCC-3S``, ``WAIT-25``); any *other* non-default parameter is
        appended in brackets (``SCC-3S [replacement=value-aware]``).
        Labels are for humans and may collide across distinct specs
        (e.g. label-encoded parameters that round alike) — the run
        store's identity is always :meth:`fingerprint_payload`, and
        in-sweep collisions are rejected by the runner's duplicate-label
        check.
        """
        family_def = get_protocol_family(self.family)
        params = self.params
        base = family_def.base_label(params)
        defaults = family_def.defaults()
        extras = [
            f"{key}={_format_value(value)}"
            for key, value in self.items
            if key not in family_def.label_params and value != defaults[key]
        ]
        return f"{base} [{', '.join(extras)}]" if extras else base

    def canonical(self) -> str:
        """The compact spec string (``scc-ks?k=3``), default params omitted.

        Round-trips exactly: ``parse_protocol_spec(spec.canonical())``
        equals ``spec`` because omitted parameters refill from defaults.
        """
        defaults = get_protocol_family(self.family).defaults()
        query = "&".join(
            f"{key}={_format_value(value)}"
            for key, value in self.items
            if value != defaults[key]
        )
        return f"{self.family}?{query}" if query else self.family

    def to_dict(self) -> dict:
        """Plain-dict (JSON) form, invertible by :meth:`from_dict`."""
        return {"family": self.family, "params": self.params}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ProtocolSpec":
        """Rebuild a spec from its :meth:`to_dict` form.

        Raises
        ------
        ConfigurationError
            On a malformed payload, unknown family, or bad parameters.
        """
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"protocol spec payload must be a dict, "
                f"got {type(payload).__name__}"
            )
        unknown = set(payload) - {"family", "params"}
        if "family" not in payload or unknown:
            raise ConfigurationError(
                f"protocol spec payload needs 'family' (+ optional "
                f"'params'); unknown keys: {sorted(unknown)}"
            )
        params = payload.get("params") or {}
        if not isinstance(params, Mapping):
            raise ConfigurationError("protocol spec 'params' must be a dict")
        return cls.create(payload["family"], **params)

    def fingerprint_payload(self) -> dict:
        """The canonical identity hashed into run-store cell fingerprints.

        Covers the family *and* every parameter (defaults included), so
        parameterized variants are distinct store identities even when
        their display labels collide.
        """
        return {"family": self.family, "params": self.params}

    def build(self):
        """Construct a fresh protocol instance from this spec."""
        family_def = get_protocol_family(self.family)
        return family_def.builder(**self.params)

    def __call__(self):
        """Alias for :meth:`build` — a spec is a protocol factory."""
        return self.build()


def _format_value(value: Any) -> str:
    """Render one parameter value for spec strings and label suffixes."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def parse_protocol_spec(text: str) -> ProtocolSpec:
    """Parse a compact spec string (``family?key=value&key2=value2``).

    Raises
    ------
    ConfigurationError
        Malformed syntax, unknown family, or bad parameters.
    """
    text = text.strip()
    family, _, query = text.partition("?")
    if not family:
        raise ConfigurationError(f"empty protocol spec string {text!r}")
    params: dict[str, Any] = {}
    if query:
        for token in query.split("&"):
            key, sep, value = token.partition("=")
            if not sep or not key:
                raise ConfigurationError(
                    f"bad parameter token {token!r} in protocol spec "
                    f"{text!r} (expected key=value)"
                )
            if key in params:
                raise ConfigurationError(
                    f"duplicate parameter {key!r} in protocol spec {text!r}"
                )
            params[key] = value
    return ProtocolSpec.create(family, **params)


def protocol_spec(
    value: "ProtocolSpec | str | Mapping[str, Any]",
) -> ProtocolSpec:
    """Coerce any accepted protocol designator to a :class:`ProtocolSpec`.

    Accepts an existing spec (returned as-is), a compact spec string, or
    a ``{"family": ..., "params": {...}}`` dict.

    Raises
    ------
    ConfigurationError
        Anything else, a protocol class or factory included: a protocol
        built outside the registry has no store identity until its
        family is registered with :func:`register_protocol`.
    """
    if isinstance(value, ProtocolSpec):
        return value
    if isinstance(value, str):
        return parse_protocol_spec(value)
    if isinstance(value, Mapping):
        return ProtocolSpec.from_dict(value)
    raise ConfigurationError(
        f"cannot interpret {value!r} as a protocol spec: pass a "
        "ProtocolSpec, a spec string such as 'scc-ks?k=3', or a spec "
        "dict, and register a protocol built outside the registry with "
        "register_protocol"
    )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

_REGISTRY: dict[str, ProtocolFamily] = {}


def register_protocol(
    family: ProtocolFamily, replace: bool = False
) -> ProtocolFamily:
    """Add a protocol family to the registry (``replace=True`` overwrites).

    Raises
    ------
    ConfigurationError
        The name is already registered and ``replace`` is not set.
    """
    if family.name in _REGISTRY and not replace:
        raise ConfigurationError(
            f"protocol family {family.name!r} is already registered "
            "(pass replace=True to overwrite)"
        )
    _REGISTRY[family.name] = family
    return family


def get_protocol_family(name: str) -> ProtocolFamily:
    """Look a protocol family up by registry name.

    Raises
    ------
    ConfigurationError
        Unknown name (the message lists the registry).
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown protocol family {name!r}; registered: "
            f"{', '.join(available_protocols())}"
        ) from None


def available_protocols() -> tuple[str, ...]:
    """Registered protocol-family names, sorted."""
    return tuple(sorted(_REGISTRY))


def all_protocol_families() -> Iterator[ProtocolFamily]:
    """Iterate registered protocol families in name order."""
    for name in available_protocols():
        yield _REGISTRY[name]


# ----------------------------------------------------------------------
# the built-in roster (lazy builders keep this module cycle-free)
# ----------------------------------------------------------------------


def _build_scc_2s():
    """Build the two-shadow SCC-2S special case."""
    from repro.core.scc_2s import SCC2S

    return SCC2S()


def _build_scc_ks(k, replacement):
    """Build SCC-kS with a shadow budget and replacement policy."""
    from repro.core.scc_ks import SCCkS

    return SCCkS(k=k, replacement=_replacement_policy(replacement))


def _build_scc_cb():
    """Build the unlimited-shadow SCC-CB member."""
    from repro.core.scc_cb import SCCCB

    return SCCCB()


def _build_scc_dc(k, period, epsilon, max_deferral, replacement):
    """Build SCC-DC (deferred commit, probability-driven termination)."""
    from repro.core.scc_dc import SCCDC

    return SCCDC(
        k=k,
        period=period,
        epsilon=epsilon,
        max_deferral=max_deferral,
        replacement=_replacement_policy(replacement),
    )


def _build_scc_vw(k, period, commit_threshold, max_deferral, replacement):
    """Build SCC-VW (value-cognizant voted-waiting termination)."""
    from repro.core.scc_vw import SCCVW

    return SCCVW(
        k=k,
        period=period,
        commit_threshold=commit_threshold,
        max_deferral=max_deferral,
        replacement=_replacement_policy(replacement),
    )


def _build_twopl_pa():
    """Build two-phase locking with priority abort."""
    from repro.protocols.twopl_pa import TwoPhaseLockingPA

    return TwoPhaseLockingPA()


def _build_occ():
    """Build basic (kill-the-validator) optimistic concurrency control."""
    from repro.protocols.occ import BasicOCC

    return BasicOCC()


def _build_occ_bc():
    """Build OCC with broadcast commit."""
    from repro.protocols.occ_bc import OCCBroadcastCommit

    return OCCBroadcastCommit()


def _build_wait50(wait_threshold):
    """Build the WAIT-X wait-control protocol (X = threshold * 100)."""
    from repro.protocols.wait50 import Wait50

    return Wait50(wait_threshold=wait_threshold)


def _build_serial():
    """Build the serial-execution lower bound."""
    from repro.protocols.serial import SerialExecution

    return SerialExecution()


def _scc_ks_label(params: Mapping[str, Any]) -> str:
    """SCC-kS display convention: SCC-2S / SCC-3S / SCC-CB (k=inf)."""
    k = params["k"]
    if k is None:
        return "SCC-CB (k=inf)"
    return "SCC-2S" if k == 2 else f"SCC-{k}S"


def _wait_label(params: Mapping[str, Any]) -> str:
    """WAIT-X display convention from the wait threshold (WAIT-50...)."""
    return f"WAIT-{int(round(params['wait_threshold'] * 100))}"


def _replacement_param() -> ParamSpec:
    """The shared ``replacement`` parameter of the SCC families."""
    return ParamSpec(
        "replacement",
        "str",
        default="lbfo",
        choices=REPLACEMENT_CHOICES,
        doc="shadow replacement policy",
    )


register_protocol(
    ProtocolFamily(
        name="scc-2s",
        builder=_build_scc_2s,
        description="Two-shadow SCC: one optimistic + one pessimistic shadow",
        label="SCC-2S",
    )
)

register_protocol(
    ProtocolFamily(
        name="scc-ks",
        builder=_build_scc_ks,
        params=(
            ParamSpec(
                "k",
                "int",
                default=2,
                optional=True,
                doc="shadow budget per transaction (none = unlimited)",
            ),
            _replacement_param(),
        ),
        description="k-shadow SCC: bounded speculation with replacement",
        label=_scc_ks_label,
        label_params=frozenset({"k"}),
    )
)

register_protocol(
    ProtocolFamily(
        name="scc-cb",
        builder=_build_scc_cb,
        description="Unlimited-shadow SCC (one shadow per conflict)",
        label="SCC-CB",
    )
)

register_protocol(
    ProtocolFamily(
        name="scc-dc",
        builder=_build_scc_dc,
        params=(
            ParamSpec(
                "k", "int", default=2, optional=True, doc="shadow budget"
            ),
            ParamSpec(
                "period", "float", default=0.01,
                doc="termination re-evaluation period (s)",
            ),
            ParamSpec(
                "epsilon", "float", default=0.01,
                doc="l_i truncation bound (no effect under deterministic "
                "execution times; kept as spec identity)",
            ),
            ParamSpec(
                "max_deferral", "float", default=None, optional=True,
                doc="hard deferral cap (s)",
            ),
            _replacement_param(),
        ),
        description="Deferred-commit SCC (probability-driven termination)",
        label="SCC-DC",
    )
)

register_protocol(
    ProtocolFamily(
        name="scc-vw",
        builder=_build_scc_vw,
        params=(
            ParamSpec(
                "k", "int", default=2, optional=True, doc="shadow budget"
            ),
            ParamSpec(
                "period", "float", default=0.01,
                doc="vote re-evaluation period (s)",
            ),
            ParamSpec(
                "commit_threshold", "float", default=0.5,
                doc="value-weighted commit-vote threshold",
            ),
            ParamSpec(
                "max_deferral", "float", default=None, optional=True,
                doc="hard deferral cap (s)",
            ),
            _replacement_param(),
        ),
        description="Value-cognizant SCC (voted-waiting termination)",
        label="SCC-VW",
    )
)

register_protocol(
    ProtocolFamily(
        name="2pl-pa",
        builder=_build_twopl_pa,
        description="Two-phase locking with priority abort",
        label="2PL-PA",
    )
)

register_protocol(
    ProtocolFamily(
        name="occ",
        builder=_build_occ,
        description="Basic optimistic concurrency control",
        label="OCC",
    )
)

register_protocol(
    ProtocolFamily(
        name="occ-bc",
        builder=_build_occ_bc,
        description="Optimistic concurrency control, broadcast commit",
        label="OCC-BC",
    )
)

register_protocol(
    ProtocolFamily(
        name="wait-50",
        builder=_build_wait50,
        params=(
            ParamSpec(
                "wait_threshold", "float", default=0.5,
                doc="fraction of higher-priority conflicters that forces "
                "a wait",
            ),
        ),
        description="OCC-BC with Haritsa's 50% wait control",
        label=_wait_label,
        label_params=frozenset({"wait_threshold"}),
    )
)

register_protocol(
    ProtocolFamily(
        name="serial",
        builder=_build_serial,
        description="Serial execution (concurrency-free lower bound)",
        label="Serial",
    )
)
