"""The scenario document format and its validation.

A scenario is a small declarative mapping (usually authored as YAML,
see ``library/``) that composes every axis of a run:

.. code-block:: yaml

    format_version: 1
    name: commuter-doze
    description: Dozing clients under modulo timestamps.
    seed: 1999
    protocols: [f-matrix, r-matrix]
    config:                    # any SimulationConfig field except
      num_clients: 8           # protocol/seed/faults, which are owned
      client_executor: cohort  # by the sections around it
      modulo_timestamps: true
    faults:                    # optional; builds a FaultPlan
      seeded:                  # generator block (doze renewal process)
        horizon: 2.0e7
        mean_time_between_dozes: 4.0e6
        mean_doze_duration: 1.0e6
      crashes: []              # explicit events compose with the block
      uplink_loss_probability: 0.0
    envelope:                  # optional; [lo, hi] per metric
      restart_ratio_mean: [0.0, 3.0]
      doze_slots_missed: [1, 100000]

Validation is eager and total: unknown keys anywhere are rejected, and
:func:`parse_scenario` builds a :class:`repro.sim.SimulationConfig` for
every listed protocol before returning, so a scenario that loads is a
scenario that runs.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from ..core.validators import PROTOCOL_NAMES
from ..sim.config import SimulationConfig
from ..sim.faults import DozeInterval, FaultPlan, ServerCrash
from .envelope import MetricEnvelope

__all__ = [
    "SCENARIO_FORMAT_VERSION",
    "ScenarioError",
    "Scenario",
    "parse_scenario",
]

#: the on-disk format revision; bump on incompatible schema changes
SCENARIO_FORMAT_VERSION = 1

_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9-]*$")

_TOP_LEVEL_KEYS = frozenset(
    {
        "format_version",
        "name",
        "description",
        "seed",
        "protocols",
        "config",
        "faults",
        "envelope",
    }
)

#: SimulationConfig fields a scenario's ``config`` section may not set:
#: they are owned by dedicated top-level sections so a document cannot
#: contradict itself
_RESERVED_CONFIG_FIELDS = frozenset({"protocol", "seed", "faults"})

_CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(SimulationConfig))

_FAULTS_KEYS = frozenset(
    {
        "doze",
        "crashes",
        "seeded",
        "uplink_loss_probability",
        "uplink_max_retries",
        "uplink_timeout",
        "uplink_backoff",
    }
)

_SEEDED_KEYS = frozenset(
    {"seed", "horizon", "mean_time_between_dozes", "mean_doze_duration"}
)


class ScenarioError(ValueError):
    """A scenario document failed validation."""


@dataclass(frozen=True)
class Scenario:
    """A validated scenario: named, seeded, and ready to configure runs."""

    name: str
    seed: int
    description: str = ""
    #: protocols the scenario runs under by default (``scenario run``
    #: iterates these; any valid protocol may still be forced per run)
    protocols: Tuple[str, ...] = ("f-matrix",)
    #: raw ``config:`` section — SimulationConfig field overrides
    config_fields: Mapping[str, object] = field(default_factory=dict)
    faults: Optional[FaultPlan] = None
    envelope: Optional[MetricEnvelope] = None

    def config_for(
        self, protocol: Optional[str] = None, **overrides: object
    ) -> SimulationConfig:
        """The :class:`SimulationConfig` this scenario describes.

        ``protocol`` defaults to the scenario's first listed protocol;
        ``overrides`` patch individual config fields on top of the
        scenario's (the CLI uses this for ``--executor``/``--shards``).
        """
        chosen = protocol if protocol is not None else self.protocols[0]
        fields: Dict[str, object] = dict(self.config_fields)
        fields.update(overrides)
        return SimulationConfig(  # type: ignore[arg-type]
            protocol=chosen, seed=self.seed, faults=self.faults, **fields
        )

    def to_dict(self) -> Dict[str, object]:
        """The scenario as a document mapping (parse round-trips it)."""
        payload: Dict[str, object] = {
            "format_version": SCENARIO_FORMAT_VERSION,
            "name": self.name,
            "description": self.description,
            "seed": self.seed,
            "protocols": list(self.protocols),
            "config": dict(self.config_fields),
        }
        if self.faults is not None:
            payload["faults"] = self.faults.to_dict()
        if self.envelope is not None:
            payload["envelope"] = self.envelope.to_dict()
        return payload


def _fail(source: str, message: str) -> "ScenarioError":
    return ScenarioError(f"{source}: {message}")


def _parse_faults(
    section: object, *, seed: int, num_clients: int, source: str
) -> FaultPlan:
    if not isinstance(section, Mapping):
        raise _fail(source, "'faults' must be a mapping")
    unknown = sorted(set(section) - _FAULTS_KEYS)
    if unknown:
        raise _fail(
            source,
            f"unknown faults key(s) {unknown}; known keys: "
            f"{sorted(_FAULTS_KEYS)}",
        )
    seeded = section.get("seeded")
    explicit_doze = section.get("doze", [])
    if seeded is not None and explicit_doze:
        raise _fail(
            source,
            "faults may declare 'doze' intervals or a 'seeded' generator "
            "block, not both",
        )
    try:
        crashes = tuple(
            ServerCrash.from_dict(entry) for entry in section.get("crashes", [])
        )
        uplink = {
            "uplink_loss_probability": float(
                section.get("uplink_loss_probability", 0.0)  # type: ignore[arg-type]
            ),
            "uplink_max_retries": int(
                section.get("uplink_max_retries", 3)  # type: ignore[arg-type]
            ),
            "uplink_timeout": float(
                section.get("uplink_timeout", 16_384.0)  # type: ignore[arg-type]
            ),
            "uplink_backoff": float(
                section.get("uplink_backoff", 2.0)  # type: ignore[arg-type]
            ),
        }
        if seeded is not None:
            if not isinstance(seeded, Mapping):
                raise ValueError("faults 'seeded' must be a mapping")
            bad = sorted(set(seeded) - _SEEDED_KEYS)
            if bad:
                raise ValueError(
                    f"unknown faults.seeded key(s) {bad}; known keys: "
                    f"{sorted(_SEEDED_KEYS)}"
                )
            if "horizon" not in seeded:
                raise ValueError("faults.seeded requires 'horizon'")
            return FaultPlan.seeded(
                int(seeded.get("seed", seed)),  # type: ignore[arg-type]
                num_clients=num_clients,
                horizon=float(seeded["horizon"]),  # type: ignore[arg-type]
                mean_time_between_dozes=float(
                    seeded.get("mean_time_between_dozes", 0.0)  # type: ignore[arg-type]
                ),
                mean_doze_duration=float(
                    seeded.get("mean_doze_duration", 0.0)  # type: ignore[arg-type]
                ),
                crashes=crashes,
                **uplink,  # type: ignore[arg-type]
            )
        doze = tuple(DozeInterval.from_dict(entry) for entry in explicit_doze)
        return FaultPlan(doze=doze, crashes=crashes, **uplink)  # type: ignore[arg-type]
    except ScenarioError:
        raise
    except (ValueError, TypeError, KeyError) as exc:
        raise _fail(source, f"invalid faults section: {exc}") from exc


def parse_scenario(
    payload: object, *, source: str = "<scenario>"
) -> Scenario:
    """Validate a decoded scenario document into a :class:`Scenario`.

    ``source`` names the document in error messages (the loader passes
    the file path).  Validation is eager: a config is built for every
    listed protocol, so constraint violations inside
    :class:`SimulationConfig` (sharded process executor, doze for a
    missing client, …) surface here, not at run time.
    """
    if not isinstance(payload, Mapping):
        raise _fail(source, "scenario document must be a mapping")
    unknown = sorted(set(payload) - _TOP_LEVEL_KEYS)
    if unknown:
        raise _fail(
            source,
            f"unknown top-level key(s) {unknown}; known keys: "
            f"{sorted(_TOP_LEVEL_KEYS)}",
        )
    version = payload.get("format_version")
    if version != SCENARIO_FORMAT_VERSION:
        raise _fail(
            source,
            f"format_version must be {SCENARIO_FORMAT_VERSION}, "
            f"got {version!r}",
        )

    name = payload.get("name")
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise _fail(
            source,
            f"'name' must be a lowercase kebab-case identifier, got {name!r}",
        )
    description = payload.get("description", "")
    if not isinstance(description, str):
        raise _fail(source, "'description' must be a string")

    seed = payload.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise _fail(
            source,
            "scenarios must name an integer 'seed' (reproducibility is "
            f"the point), got {seed!r}",
        )

    protocols_raw = payload.get("protocols", ["f-matrix"])
    if not isinstance(protocols_raw, (list, tuple)) or not protocols_raw:
        raise _fail(source, "'protocols' must be a non-empty list")
    protocols = []
    for proto in protocols_raw:
        if proto not in PROTOCOL_NAMES:
            raise _fail(
                source,
                f"unknown protocol {proto!r}; choose from {PROTOCOL_NAMES}",
            )
        if proto in protocols:
            raise _fail(source, f"duplicate protocol {proto!r}")
        protocols.append(proto)

    config_raw = payload.get("config", {})
    if not isinstance(config_raw, Mapping):
        raise _fail(source, "'config' must be a mapping")
    reserved = sorted(set(config_raw) & _RESERVED_CONFIG_FIELDS)
    if reserved:
        raise _fail(
            source,
            f"config section may not set {reserved}: protocol comes from "
            "'protocols', seed from 'seed', faults from 'faults'",
        )
    bad_fields = sorted(set(config_raw) - _CONFIG_FIELDS)
    if bad_fields:
        raise _fail(
            source,
            f"unknown SimulationConfig field(s) {bad_fields} in config "
            "section",
        )

    faults: Optional[FaultPlan] = None
    if payload.get("faults") is not None:
        faults = _parse_faults(
            payload["faults"],
            seed=seed,
            num_clients=int(config_raw.get("num_clients", 1)),  # type: ignore[arg-type]
            source=source,
        )
        if faults.is_noop:
            faults = None

    envelope: Optional[MetricEnvelope] = None
    if payload.get("envelope") is not None:
        raw_env = payload["envelope"]
        if not isinstance(raw_env, Mapping):
            raise _fail(source, "'envelope' must be a mapping")
        try:
            envelope = MetricEnvelope.from_dict(raw_env)
        except ValueError as exc:
            raise _fail(source, str(exc)) from exc

    scenario = Scenario(
        name=name,
        seed=seed,
        description=description,
        protocols=tuple(protocols),
        config_fields=dict(config_raw),
        faults=faults,
        envelope=envelope,
    )
    for proto in scenario.protocols:
        try:
            scenario.config_for(proto)
        except (ValueError, TypeError) as exc:
            raise _fail(
                source, f"config invalid under protocol {proto!r}: {exc}"
            ) from exc
    return scenario
