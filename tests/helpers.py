"""Hand-built worlds and reference trace automata shared by the test modules.

The validators at the bottom re-encode the three attacker scripts directly
from their documented phase rules, independently of the agent classes, so a
drifting implementation fails trace replay instead of silently agreeing
with itself.
"""

from collections import deque

from deceptsim.engine import ActionKind
from deceptsim.experiment import run_episode
from deceptsim.scenario import (
    AccessLevel,
    ExploitDef,
    GeneratorParams,
    HostKind,
    HostSpec,
    PrivEscDef,
    Scenario,
)

# Uniform configuration for every hand-built host.
HOST_SERVICES = frozenset({0})
HOST_OS = 0
HOST_PROCESSES = frozenset({0})
HOST_VULNS = frozenset({0})

KIND_VALUES = {
    HostKind.SENSITIVE: 1000.0,
    HostKind.NORMAL: 1.0,
    HostKind.HONEYPOT: -1000.0,
}


def build_world(
    *,
    num_sensitive=1,
    num_normal=0,
    num_honeypots=0,
    num_empty=0,
    exploits=((0, 0, 0, AccessLevel.ROOT, 1.0),),
    privescs=((0, 1.0),),
    movement_time=None,
    one_goal=True,
    step_limit=3000,
):
    """Fully explicit world: every host runs service 0, vuln 0, process 0 on
    OS 0, addresses are assigned in host-id order, and the ``num_empty``
    addresses after the hosts' are empty.

    ``exploits`` rows are (service, vuln, os, grants, prob); ``privescs``
    rows are (process, prob).
    """
    kinds = (
        [HostKind.SENSITIVE] * num_sensitive
        + [HostKind.NORMAL] * num_normal
        + [HostKind.HONEYPOT] * num_honeypots
    )
    hosts = [
        HostSpec(host_id, kind, HOST_SERVICES, HOST_OS, HOST_PROCESSES, HOST_VULNS,
                 KIND_VALUES[kind])
        for host_id, kind in enumerate(kinds)
    ]
    capacity = len(hosts) + num_empty
    params = GeneratorParams(
        num_hosts=num_normal,
        num_honeypots=num_honeypots,
        num_sensitive=num_sensitive,
        movement_time=movement_time,
        one_goal=one_goal,
        step_limit=step_limit,
        num_exploits=max(len(exploits), 1),
        num_privescs=len(privescs),
        num_addresses=capacity + 1,
    )
    return Scenario(
        params=params,
        hosts=tuple(hosts),
        exploits=tuple(
            ExploitDef(i, service, vuln, os_id, grants, prob)
            for i, (service, vuln, os_id, grants, prob) in enumerate(exploits)
        ),
        privescs=tuple(
            PrivEscDef(i, process, prob) for i, (process, prob) in enumerate(privescs)
        ),
        initial_addresses=tuple(range(capacity)),
    )


def degenerate_world(num_honeypots, *, one_goal):
    """Oracle world: 3 sensitive + H honeypots, no normal or empty hosts,
    every exploit grants root on every host, no address mutation."""
    return build_world(
        num_sensitive=3,
        num_honeypots=num_honeypots,
        exploits=(
            (0, 0, 0, AccessLevel.ROOT, 1.0),
            (0, 0, 0, AccessLevel.ROOT, 1.0),
        ),
        privescs=((0, 1.0),),
        one_goal=one_goal,
    )


def collect_trace(scenario, agent_kind, episode_seed):
    """Run one episode and capture its (action, observation) sequence."""
    trace = []
    record = run_episode(
        scenario,
        agent_kind,
        episode_seed,
        trace_sink=lambda action, obs, state, reset: trace.append((action, obs)),
    )
    return record, trace


class TraceError(AssertionError):
    """A trace step violated the attacker's documented script."""


_HOST_SCANS = (
    ActionKind.SERVICE_SCAN,
    ActionKind.OS_SCAN,
    ActionKind.VULN_SCAN,
    ActionKind.PROCESS_SCAN,
)

_SCAN_FIELDS = {
    ActionKind.SERVICE_SCAN: "services",
    ActionKind.OS_SCAN: "os",
    ActionKind.VULN_SCAN: "vulns",
    ActionKind.PROCESS_SCAN: "processes",
}


def _best_exploit_for(exploits, belief, failed, address):
    """Root-preferring lowest-id exploit matching the believed config."""
    if not {"services", "vulns", "os"} <= belief.keys():
        return None
    candidates = [
        e
        for e in exploits
        if (address, ActionKind.EXPLOIT, e.id) not in failed
        and e.matches(belief["services"], belief["vulns"], belief["os"])
    ]
    if not candidates:
        return None
    return min(candidates, key=lambda e: (-int(e.grants), e.id))


def _next_privesc_for(privescs, belief, failed, address):
    if "processes" not in belief:
        return None
    candidates = [
        p
        for p in privescs
        if (address, ActionKind.PRIVESC, p.id) not in failed
        and p.required_process in belief["processes"]
    ]
    return min(candidates, key=lambda p: p.id) if candidates else None


def validate_careful_trace(scenario, trace):
    """Accepts a trace iff it follows the scan-everything-then-attack script:
    subnet scan, full service/vuln/os coverage of all discovered addresses,
    best-exploit attacks, process scan after user access, wiretap right after
    root, and a full restart after any detected mutation."""
    exploits, privescs = scenario.exploits, scenario.privescs
    known: list = []
    beliefs: dict = {}
    failed: set = set()
    owed: set = set()  # (scan kind, address) still owed in this scan cycle
    expect_subnet = True
    reaction = None  # forced (kind, address) reaction to the previous success

    def has_options():
        for address in known:
            belief = beliefs.get(address)
            if belief is None:
                continue
            access = belief.get("access", AccessLevel.NONE)
            if access is AccessLevel.NONE:
                if _best_exploit_for(exploits, belief, failed, address) is not None:
                    return True
            elif access is AccessLevel.USER:
                if "processes" not in belief:
                    return True
                if _next_privesc_for(privescs, belief, failed, address) is not None:
                    return True
        return False

    def reset():
        nonlocal known, owed, reaction, expect_subnet
        beliefs.clear()
        failed.clear()
        known = []
        owed = set()
        reaction = None
        expect_subnet = True

    for i, (action, obs) in enumerate(trace):
        kind = action.kind

        def fail(message):
            raise TraceError(f"careful step {i} ({kind.value}): {message}")

        was_reaction = False
        if reaction is not None:
            if (kind, action.target) != reaction:
                fail(f"expected forced reaction {reaction[0].value} on {reaction[1]}")
            reaction = None
            was_reaction = True
        elif expect_subnet and kind is not ActionKind.SUBNET_SCAN:
            fail("expected a subnet scan restart")

        if kind is ActionKind.SUBNET_SCAN:
            if not expect_subnet:
                if owed:
                    fail("rescan before completing the scan cycle")
                if has_options():
                    fail("rescan while attacks were still available")
            discovered = list(obs.discovered_addresses)
            if known and set(discovered) != set(known):
                beliefs.clear()
                failed.clear()
            known = discovered
            owed = {
                (scan, address)
                for address in known
                for scan in (ActionKind.SERVICE_SCAN, ActionKind.VULN_SCAN, ActionKind.OS_SCAN)
            }
            expect_subnet = False
            continue

        if action.target not in known:
            fail(f"clairvoyant target {action.target}")
        if obs.connection_failed:
            reset()
            continue

        if kind in (ActionKind.SERVICE_SCAN, ActionKind.VULN_SCAN, ActionKind.OS_SCAN):
            if (kind, action.target) not in owed:
                fail("scan outside the owed scan cycle")
            owed.discard((kind, action.target))
            belief = beliefs.setdefault(action.target, {})
            field, value = _SCAN_FIELDS[kind], obs.scanned
            if field in belief and belief[field] != value:
                reset()
                continue
            belief[field] = value
            continue

        if kind is ActionKind.PROCESS_SCAN:
            belief = beliefs.get(action.target, {})
            if belief.get("access", AccessLevel.NONE) is not AccessLevel.USER:
                fail("process scan on a host not at user access")
            if "processes" in belief:
                fail("repeated process scan")
            belief["processes"] = obs.scanned
            continue

        if owed:
            fail("attack before finishing the scan cycle")
        belief = beliefs.get(action.target)

        if kind is ActionKind.EXPLOIT:
            if belief is None or belief.get("access", AccessLevel.NONE) is not AccessLevel.NONE:
                fail("exploit against an already-owned host")
            best = _best_exploit_for(exploits, belief, failed, action.target)
            if best is None or action.ident != best.id:
                fail(f"exploit {action.ident} is not the best untried match")
            if obs.success:
                belief["access"] = obs.access_gained
                if obs.access_gained is AccessLevel.ROOT:
                    reaction = (ActionKind.WIRETAP, action.target)
                else:
                    reaction = (ActionKind.PROCESS_SCAN, action.target)
            else:
                failed.add((action.target, ActionKind.EXPLOIT, action.ident))
            continue

        if kind is ActionKind.PRIVESC:
            if belief is None or belief.get("access") is not AccessLevel.USER:
                fail("privilege escalation without user access")
            expected = _next_privesc_for(privescs, belief, failed, action.target)
            if expected is None or action.ident != expected.id:
                fail(f"privesc {action.ident} is not the next untried applicable one")
            if obs.success:
                belief["access"] = AccessLevel.ROOT
                reaction = (ActionKind.WIRETAP, action.target)
            else:
                failed.add((action.target, ActionKind.PRIVESC, action.ident))
            continue

        if kind is ActionKind.WIRETAP:
            if not was_reaction:
                fail("wiretap not forced by a root success")
            continue

        fail("unexpected action kind")


def validate_standard_trace(scenario, trace):
    """Accepts a trace iff it follows the one-host-at-a-time script: subnet
    scan, four scans on a picked candidate, best-exploit/privesc/wiretap on
    that host only, moving on after success or exhaustion, restarting after
    any detected mutation."""
    exploits, privescs = scenario.exploits, scenario.privescs
    known: list = []
    beliefs: dict = {}
    failed: set = set()
    exhausted: set = set()
    focus = None
    owed: deque = deque()
    expect_subnet = True

    def candidates():
        return [
            address
            for address in known
            if address not in exhausted
            and beliefs.get(address, {}).get("access") is not AccessLevel.ROOT
        ]

    def applicable(address):
        belief = beliefs.get(address, {})
        access = belief.get("access", AccessLevel.NONE)
        if access is AccessLevel.NONE:
            return _best_exploit_for(exploits, belief, failed, address) is not None
        if access is AccessLevel.USER:
            return _next_privesc_for(privescs, belief, failed, address) is not None
        return True  # root: wiretap is always applicable

    def reset():
        nonlocal known, focus, owed, expect_subnet
        beliefs.clear()
        failed.clear()
        exhausted.clear()
        known = []
        focus = None
        owed = deque()
        expect_subnet = True

    for i, (action, obs) in enumerate(trace):
        kind = action.kind

        def fail(message):
            raise TraceError(f"standard step {i} ({kind.value}): {message}")

        if expect_subnet and kind is not ActionKind.SUBNET_SCAN:
            fail("expected a subnet scan restart")

        if kind is ActionKind.SUBNET_SCAN:
            if not expect_subnet:
                if focus is not None:
                    if owed:
                        fail("abandoned the host scans")
                    if applicable(focus):
                        fail("abandoned a still-attackable host")
                    exhausted.add(focus)
                    focus = None
                if candidates():
                    fail("subnet rescan while candidates remained")
            discovered = list(obs.discovered_addresses)
            if known and set(discovered) != set(known):
                beliefs.clear()
                failed.clear()
                exhausted.clear()
            known = discovered
            focus = None
            owed = deque()
            expect_subnet = False
            continue

        if action.target not in known:
            fail(f"clairvoyant target {action.target}")
        if obs.connection_failed:
            reset()
            continue

        if kind in _HOST_SCANS:
            if focus is not None and (kind is not ActionKind.SERVICE_SCAN or action.target == focus):
                if action.target != focus:
                    fail("scan off the focused host")
                if not owed or kind is not owed[0]:
                    fail("host scans out of order")
                owed.popleft()
            else:
                if focus is not None:
                    # switching hosts: the old focus must be exhausted
                    if owed:
                        fail("abandoned the host scans")
                    if applicable(focus):
                        fail("abandoned a still-attackable host")
                    exhausted.add(focus)
                if kind is not ActionKind.SERVICE_SCAN:
                    fail("host cycle must start with a service scan")
                if action.target not in candidates():
                    fail("picked a non-candidate host")
                focus = action.target
                owed = deque(
                    [ActionKind.OS_SCAN, ActionKind.VULN_SCAN, ActionKind.PROCESS_SCAN]
                )
            belief = beliefs.setdefault(action.target, {})
            field, value = _SCAN_FIELDS[kind], obs.scanned
            if field in belief and belief[field] != value:
                reset()
                continue
            belief[field] = value
            continue

        if focus is None:
            fail("attack without a focused host")
        if action.target != focus:
            fail("attack off the focused host")
        if owed:
            fail("attack before finishing the host scans")
        belief = beliefs.setdefault(focus, {})
        access = belief.get("access", AccessLevel.NONE)

        if kind is ActionKind.EXPLOIT:
            if access is not AccessLevel.NONE:
                fail("exploit at elevated access")
            best = _best_exploit_for(exploits, belief, failed, focus)
            if best is None or action.ident != best.id:
                fail(f"exploit {action.ident} is not the best untried match")
            if obs.success:
                belief["access"] = obs.access_gained
                if obs.access_gained is AccessLevel.USER:
                    focus = None  # success: move on, revisit later for privesc
            else:
                failed.add((focus, ActionKind.EXPLOIT, action.ident))
            continue

        if kind is ActionKind.PRIVESC:
            if access is not AccessLevel.USER:
                fail("privilege escalation without user access")
            expected = _next_privesc_for(privescs, belief, failed, focus)
            if expected is None or action.ident != expected.id:
                fail(f"privesc {action.ident} is not the next untried applicable one")
            if obs.success:
                belief["access"] = AccessLevel.ROOT
            else:
                failed.add((focus, ActionKind.PRIVESC, action.ident))
            continue

        if kind is ActionKind.WIRETAP:
            if access is not AccessLevel.ROOT:
                fail("wiretap below root access")
            focus = None
            continue

        fail("unexpected action kind")


def validate_aggressive_trace(scenario, trace):
    """Accepts a trace iff it follows the sweep script: one subnet scan, then
    a single exploit/privesc swept over known addresses without repeats,
    wiretap immediately after each success, new subnet scan only after a
    connection failure (mutation) or total exhaustion."""
    catalog = [(ActionKind.EXPLOIT, e.id) for e in scenario.exploits]
    catalog += [(ActionKind.PRIVESC, p.id) for p in scenario.privescs]
    known: list = []
    failed: set = set()
    current = None
    swept: set = set()
    wiretap_due = None
    expect_subnet = True

    for i, (action, obs) in enumerate(trace):
        kind = action.kind

        def fail(message):
            raise TraceError(f"aggressive step {i} ({kind.value}): {message}")

        if wiretap_due is not None:
            if kind is not ActionKind.WIRETAP or action.target != wiretap_due:
                fail(f"expected wiretap on {wiretap_due} after the success")
            wiretap_due = None
            if obs.connection_failed:
                failed.clear()
                known = []
                expect_subnet = True
            continue

        if kind is ActionKind.SUBNET_SCAN:
            if not expect_subnet:
                viable = any(
                    (address, ck, ci) not in failed
                    for (ck, ci) in catalog
                    for address in known
                )
                if viable:
                    fail("subnet rescan while untried attacks remained")
            discovered = list(obs.discovered_addresses)
            if known and set(discovered) != set(known):
                failed.clear()
            known = discovered
            swept = set()
            expect_subnet = False
            continue

        if expect_subnet:
            fail("expected a subnet scan restart")
        if kind in _HOST_SCANS:
            fail("aggressive agent never scans hosts")
        if kind is ActionKind.WIRETAP:
            fail("wiretap without a preceding success")

        if action.target not in known:
            fail(f"clairvoyant target {action.target}")
        spec = (kind, action.ident)
        pair = (action.target, kind, action.ident)
        if pair in failed:
            fail("re-attempted a failed pair")
        if current is None:
            current = spec
            swept = {action.target}
        elif spec != current:
            unfinished = any(
                address not in swept and (address, *current) not in failed
                for address in known
            )
            if unfinished:
                fail(f"switched from {current} to {spec} mid-sweep")
            current = spec
            swept = {action.target}
        else:
            if action.target in swept:
                fail("repeated an address within one sweep")
            swept.add(action.target)

        if obs.connection_failed:
            failed.clear()
            known = []
            swept = set()
            expect_subnet = True
            continue
        if obs.success:
            wiretap_due = action.target
            current = None
            swept = set()
        else:
            failed.add(pair)


TRACE_VALIDATORS = {
    "careful": validate_careful_trace,
    "standard": validate_standard_trace,
    "aggressive": validate_aggressive_trace,
}
