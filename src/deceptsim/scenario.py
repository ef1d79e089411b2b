"""World model and deterministic scenario generation.

A scenario is an immutable description of one simulated network: the hosts
behind the target subnet (normal, sensitive and honeypot), the attacker's
exploit and privilege-escalation toolkit, and the initial assignment of
target-subnet addresses, in which an address past the hosts' is empty.
Generation is a pure function of the parameter set, so identical parameters
always yield an identical world. The world JSON dumps these dataclasses.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import asdict, dataclass, fields, replace
from enum import Enum, IntEnum
from functools import cached_property

# An address is its index in the target subnet; subnet 0 holds only the
# attacker. Traces and the world JSON write it as a pair (address_pair).
Address = int

TARGET_SUBNET = 1


def address_pair(address: Address) -> list[int]:
    """``address`` as traces and the world JSON write it: [subnet, index]."""
    return [TARGET_SUBNET, address]


class ParameterError(ValueError):
    """A generator parameter violates its invariants."""


class CapacityError(ValueError):
    """Host counts exceed the target subnet's address capacity."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_bool(token: str) -> bool:
    lowered = token.lower()
    if lowered not in ("true", "false"):
        raise ValueError(f"expected true or false, got {token!r}")
    return lowered == "true"


# For each field annotation: how a config, flag or records token becomes a
# value of it (the inverse of records.format_value), what values it admits,
# and how errors describe it. Python counts booleans as integers, so the
# numeric checks reject them explicitly.
FIELD_TYPES = {
    "int": (int, _is_int, "an integer"),
    "int | None": (lambda token: None if token.lower() == "none" else int(token),
                   lambda value: value is None or _is_int(value), "an integer or none"),
    "float": (float, lambda value: _is_int(value) or isinstance(value, float), "a number"),
    "bool": (_parse_bool, lambda value: isinstance(value, bool), "true or false"),
    "str": (str, lambda value: isinstance(value, str), "a string"),
}


def check_type(name: str, value, annotation: str) -> None:
    """Raise ParameterError unless ``value`` is of the type ``annotation``
    (a key of FIELD_TYPES) names."""
    _, accepts, description = FIELD_TYPES[annotation]
    if not accepts(value):
        raise ParameterError(f"{name}: expected {description}, got {value!r}")


class AccessLevel(IntEnum):
    NONE = 0
    USER = 1
    ROOT = 2


class HostKind(str, Enum):
    NORMAL = "normal"
    SENSITIVE = "sensitive"
    HONEYPOT = "honeypot"


@dataclass(frozen=True)
class GeneratorParams:
    """Scenario generator knobs.

    The first five fields are the ones experiments vary (counts, mutation
    interval, objective, seed); the rest pin the world size and action
    economics and normally stay at their defaults. Paper-table keys that
    model nothing are not fields: ``cli.NOT_MODELLED`` checks them.
    """

    num_hosts: int = 10
    num_honeypots: int = 0
    movement_time: int | None = None
    one_goal: bool = False
    seed: int = 1234
    num_sensitive: int = 3
    num_services: int = 10
    num_os: int = 1
    num_processes: int = 10
    num_exploits: int = 10
    num_privescs: int = 10
    num_vulns: int = 10
    r_sensitive: float = 1000.0
    r_honeypot: float = -1000.0
    base_host_value: float = 1.0
    exploit_prob: float = 1.0
    privesc_prob: float = 1.0
    step_limit: int = 3000
    num_addresses: int = 256

    @property
    def target_capacity(self) -> int:
        """Addresses available in the target subnet (one is the attacker's)."""
        return self.num_addresses - 1

    def validate(self) -> None:
        for spec in fields(self):
            check_type(spec.name, getattr(self, spec.name), spec.type)
        # Every int field is a count, which must be non-negative, but three
        # with bounds of their own, checked below. The seed comes first: a
        # negative one would draw the world of its absolute value.
        own_bounds = ("num_os", "step_limit", "num_addresses")
        for spec in sorted(fields(self), key=lambda spec: spec.name != "seed"):
            value = getattr(self, spec.name)
            if spec.type == "int" and spec.name not in own_bounds and value < 0:
                raise ParameterError(f"{spec.name} must be non-negative, got {value}")
        for name in ("r_sensitive", "r_honeypot", "base_host_value"):
            value = getattr(self, name)
            if not -sys.float_info.max <= value <= sys.float_info.max:  # false for nan
                raise ParameterError(f"{name} must be a finite float, got {value}")
        for name in own_bounds:
            value = getattr(self, name)
            if value < 1:
                raise ParameterError(f"{name} must be at least 1, got {value}")
        if self.movement_time is not None and self.movement_time <= 0:
            raise ParameterError(
                f"movement_time must be positive when set, got {self.movement_time}"
            )
        for name, prob in (("exploit_prob", self.exploit_prob), ("privesc_prob", self.privesc_prob)):
            if not 0.0 <= prob <= 1.0:
                raise ParameterError(f"{name} must be in [0, 1], got {prob}")
        if self.num_sensitive + self.num_honeypots > 0 and self.num_exploits < 1:
            raise ParameterError("at least one exploit is required to reach goal hosts")
        if self.num_exploits > 0 and (self.num_services < 1 or self.num_vulns < 1):
            raise ParameterError("exploits need at least one service and one vulnerability")
        if self.num_privescs > 0 and self.num_processes < 1:
            raise ParameterError("privilege escalations need at least one process")
        real_hosts = self.num_sensitive + self.num_hosts + self.num_honeypots
        if real_hosts > self.target_capacity:
            raise CapacityError(
                f"{real_hosts} hosts do not fit num_addresses = {self.num_addresses}: the "
                f"attacker takes one address, leaving {self.target_capacity} for the target subnet"
            )
        if self.num_privescs == 0 and self.num_sensitive + self.num_honeypots > 0:
            if AccessLevel.ROOT not in _draw_grants(random.Random(self.seed), self.num_exploits):
                raise ParameterError(
                    f"no path to root access: num_privescs = 0 and none of the num_exploits "
                    f"= {self.num_exploits} exploits of seed {self.seed} grants root")


@dataclass(frozen=True)
class HostSpec:
    """One host: a stable identity plus its fixed configuration."""

    id: int
    kind: HostKind
    services: frozenset[int]
    os: int
    processes: frozenset[int]
    vulns: frozenset[int]
    value: float


@dataclass(frozen=True)
class ExploitDef:
    """An exploit: requirements on the target plus the access it grants."""

    id: int
    required_service: int
    required_vuln: int
    required_os: int
    grants: AccessLevel
    prob: float

    def matches(self, services: frozenset[int], vulns: frozenset[int], os: int) -> bool:
        return (
            self.required_service in services
            and self.required_vuln in vulns
            and self.required_os == os
        )


@dataclass(frozen=True)
class PrivEscDef:
    """A privilege escalation: needs user access and a running process."""

    id: int
    required_process: int
    prob: float


@dataclass(frozen=True)
class Scenario:
    """An immutable generated world, shared read-only across episodes.

    Host ids are tuple indices. ``initial_addresses`` is a permutation of
    the target-subnet addresses ``range(params.target_capacity)``, laid out
    as ``engine.NetworkState.addresses`` is: entry ``i < len(hosts)`` is
    host ``i``'s first address, and the rest are the empty addresses.
    """

    params: GeneratorParams
    hosts: tuple[HostSpec, ...]
    exploits: tuple[ExploitDef, ...]
    privescs: tuple[PrivEscDef, ...]
    initial_addresses: tuple[Address, ...]

    @cached_property
    def sensitive_ids(self) -> tuple[int, ...]:
        return tuple(h.id for h in self.hosts if h.kind is HostKind.SENSITIVE)

    @cached_property
    def honeypot_ids(self) -> tuple[int, ...]:
        return tuple(h.id for h in self.hosts if h.kind is HostKind.HONEYPOT)

    @cached_property
    def scan_replies(self) -> dict:
        """The engine's immutable scan replies, keyed by (host id, scan
        kind), with id None for every empty address, and filled as hosts are
        scanned. A reply depends only on the host, so every episode on this
        world shares them."""
        return {}


# generate_scenario's one-entry memo: the last world drawn, by its key.
_last_world: tuple[str, Scenario] | None = None


def generate_scenario(params: GeneratorParams) -> Scenario:
    """Validate ``params`` and return their world; deterministic per seed.

    The world is ``draw_world``'s, taken from a one-entry memo when the last
    call drew the same one. The movement time and the objective never enter
    generation, so the memo is keyed by the params with both reset to their
    defaults, and the agents and objectives of a sweep's world share one
    draw. The key is the repr of those params: ``1 == 1.0``, but a world
    carries ``exploit_prob`` and ``privesc_prob`` into its catalog as
    given. Every call returns a new ``Scenario`` that holds the caller's
    params, and its own per-world caches, such as ``scan_replies``.
    """
    global _last_world
    params.validate()
    key = repr(replace(params, movement_time=None, one_goal=False))
    if _last_world is None or _last_world[0] != key:
        _last_world = key, draw_world(params)
    return replace(_last_world[1], params=params)


def draw_world(params: GeneratorParams) -> Scenario:
    """Draw the world of valid ``params`` afresh, with no memo.

    Host configurations are uniform draws over service/process/vulnerability
    subsets. Sensitive and honeypot hosts are drawn from the same
    distribution and then patched so each one can be taken to root access
    (a matching root exploit, or a matching user exploit plus a matching
    privilege escalation); without that guarantee a seed could produce an
    unwinnable world. Target-subnet addresses left over are empty.
    """
    rng = random.Random(params.seed)

    exploits = tuple(
        ExploitDef(
            id=i,
            required_service=i % params.num_services,
            required_vuln=i % params.num_vulns,
            required_os=i % params.num_os,
            grants=grants,
            prob=params.exploit_prob,
        )
        for i, grants in enumerate(_draw_grants(rng, params.num_exploits))
    )
    privescs = tuple(
        PrivEscDef(id=i, required_process=i % params.num_processes, prob=params.privesc_prob)
        for i in range(params.num_privescs)
    )

    kinds = (
        [HostKind.SENSITIVE] * params.num_sensitive
        + [HostKind.NORMAL] * params.num_hosts
        + [HostKind.HONEYPOT] * params.num_honeypots
    )
    values = {
        HostKind.SENSITIVE: float(params.r_sensitive),
        HostKind.NORMAL: float(params.base_host_value),
        HostKind.HONEYPOT: float(params.r_honeypot),
    }
    hosts = []
    for host_id, kind in enumerate(kinds):
        services = _draw_subset(rng, params.num_services)
        os_id = rng.randrange(params.num_os)
        processes = _draw_subset(rng, params.num_processes)
        vulns = _draw_subset(rng, params.num_vulns)
        if kind is not HostKind.NORMAL:
            services, os_id, processes, vulns = _ensure_rootable(
                rng, exploits, privescs, services, os_id, processes, vulns
            )
        hosts.append(HostSpec(host_id, kind, services, os_id, processes, vulns, values[kind]))
    addresses = list(range(params.target_capacity))
    rng.shuffle(addresses)

    return Scenario(
        params=params,
        hosts=tuple(hosts),
        exploits=exploits,
        privescs=privescs,
        initial_addresses=tuple(addresses),
    )


# Subsets recur across worlds, so each is built once per process. A subset
# depends only on its mask, whose set bits are its elements; masks below
# SUBSET_MEMO_LIMIT are kept, which bounds the memo however large a draw's
# range is.
_subsets: dict[int, frozenset[int]] = {}
SUBSET_MEMO_LIMIT = 1 << 12


def _draw_grants(rng: random.Random, num_exploits: int):
    """Each exploit's grants, in id order, drawn lazily: a world's first draws."""
    return (rng.choice((AccessLevel.USER, AccessLevel.ROOT)) for _ in range(num_exploits))


def _draw_subset(rng: random.Random, n: int) -> frozenset[int]:
    """Uniform draw over all subsets of range(n), one bit per element."""
    if n <= 0:
        return frozenset()
    mask = rng.getrandbits(n)
    subset = _subsets.get(mask)
    if subset is None:
        subset = frozenset(i for i in range(n) if mask >> i & 1)
        if mask < SUBSET_MEMO_LIMIT:
            _subsets[mask] = subset
    return subset


def _ensure_rootable(rng, exploits, privescs, services, os_id, processes, vulns):
    """Patch a goal/decoy host's configuration until root access is reachable."""
    matching = [e for e in exploits if e.matches(services, vulns, os_id)]
    if not matching:
        e = exploits[rng.randrange(len(exploits))]
        services |= {e.required_service}
        vulns |= {e.required_vuln}
        os_id = e.required_os
        matching = [e for e in exploits if e.matches(services, vulns, os_id)]
    if not any(e.grants is AccessLevel.ROOT for e in matching):
        if privescs:
            if not any(p.required_process in processes for p in privescs):
                p = privescs[rng.randrange(len(privescs))]
                processes |= {p.required_process}
        else:
            # GeneratorParams.validate ensures one without privescs.
            root_exploits = [e for e in exploits if e.grants is AccessLevel.ROOT]
            e = root_exploits[rng.randrange(len(root_exploits))]
            services |= {e.required_service}
            vulns |= {e.required_vuln}
            os_id = e.required_os
    return services, os_id, processes, vulns


def _json_fields(pairs) -> dict:
    """A dataclass's fields as JSON values: sets sorted, access levels by
    lower-case name."""
    return {
        name: sorted(value) if isinstance(value, frozenset)
        else value.name.lower() if isinstance(value, AccessLevel)
        else value
        for name, value in pairs
    }


def scenario_to_dict(scenario: Scenario) -> dict:
    """The world's dataclasses as JSON values, each initial address as its
    [subnet, index] pair."""
    data = asdict(scenario, dict_factory=_json_fields)
    data["initial_addresses"] = list(map(address_pair, scenario.initial_addresses))
    return data


def scenario_to_json(scenario: Scenario) -> str:
    """Canonical single-line JSON (sorted keys) for golden files."""
    return json.dumps(scenario_to_dict(scenario), sort_keys=True, separators=(",", ":"))
