"""Property tests: config resolution fails only with ConfigError, the sweep
and run manifests round-trip through JSON, and a replay refuses any config
its writer would not write back, naming the key."""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from deceptsim import cli  # noqa: E402
from deceptsim.agents import AGENT_KINDS  # noqa: E402
from deceptsim.experiment import Cell, SweepConfig, scenario_params  # noqa: E402
from deceptsim.scenario import GeneratorParams, ParameterError  # noqa: E402

KEYS = sorted({*cli.LIST_KEYS, *cli.FIXED_KEYS, *cli.SCALAR_KEYS, *cli.NOT_MODELLED})
TOKENS = st.one_of(
    st.sampled_from(("none", "true", "false", "0", "1", "2", "-1", "25", "0.5", "",
                     "nan", "inf", "1e400", "9" * 5000, *AGENT_KINDS)),
    st.integers().map(str),
    st.floats().map(repr),
    st.text(max_size=6),
)
ENTRIES = st.dictionaries(
    st.one_of(st.sampled_from(KEYS), st.text(max_size=8)),
    st.lists(TOKENS, min_size=1, max_size=3).map(",".join),
    max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(entries=ENTRIES)
def test_resolve_sweep_raises_only_config_errors(entries):
    try:
        cli.resolve_sweep(entries, cli.build_parser().parse_args(["sweep"]))
    except cli.ConfigError:
        pass


@pytest.mark.parametrize("flags", [(), ("--agent", "standard")])
@settings(max_examples=150, deadline=None)
@given(entries=ENTRIES)
def test_resolve_single_episode_raises_only_config_errors(flags, entries):
    try:
        cli.resolve_single_episode(entries, cli.build_parser().parse_args(["run", *flags]))
    except cli.ConfigError:
        pass


INTS = st.integers(min_value=-(2**70), max_value=2**70)
# Scenario seeds are non-negative: a negative one would draw the world of
# its absolute value.
SEEDS = st.integers(min_value=0, max_value=2**70)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
PROBABILITIES = st.floats(min_value=0.0, max_value=1.0)
# Fixed parameters that pass validation, the swept ones, which every cell
# sets, left at their defaults: a manifest only ever holds those.
PARAMS = st.builds(
    GeneratorParams,
    num_sensitive=st.integers(0, 10),
    num_services=st.integers(1, 20),
    num_os=st.integers(1, 4),
    num_processes=st.integers(1, 20),
    num_exploits=st.integers(1, 20),
    num_privescs=st.integers(0, 20),
    num_vulns=st.integers(1, 20),
    r_sensitive=FINITE | INTS,
    r_honeypot=FINITE | INTS,
    base_host_value=FINITE | INTS,
    exploit_prob=PROBABILITIES,
    privesc_prob=PROBABILITIES,
    step_limit=st.integers(1, 10**9),
    num_addresses=st.integers(256, 4096),
)
CELLS = st.builds(
    Cell,
    num_honeypots=st.integers(0, 10),
    movement_time=st.none() | st.integers(1, 10**6),
    num_hosts=st.integers(0, 60),
    one_goal=st.booleans(),
    seed=SEEDS,
    agent=st.sampled_from(AGENT_KINDS),
)


def tuples(elements):
    return st.lists(elements, max_size=4).map(tuple)


SWEEPS = st.builds(
    SweepConfig,
    num_honeypots=tuples(st.integers(0, 10)),
    movement_time=tuples(st.none() | st.integers(1, 10**6)),
    num_hosts=tuples(st.integers(0, 60)),
    one_goal=tuples(st.booleans()),
    seeds=tuples(SEEDS),
    agents=tuples(st.sampled_from(AGENT_KINDS)),
    repetitions=st.integers(1, 10**6),
    master_seed=INTS,
    fixed=PARAMS,
)


def through_json(data):
    return json.loads(json.dumps(data, sort_keys=True))


@settings(max_examples=150, deadline=None)
@given(config=SWEEPS)
def test_sweep_manifest_config_round_trips(config):
    data = through_json(cli.sweep_config_to_dict(config))
    assert cli.config_from_manifest("sweep", data) == config


@settings(max_examples=150, deadline=None)
@given(cell=CELLS, fixed=PARAMS, master_seed=INTS, repetition=st.integers(0, 2**70))
def test_run_manifest_config_round_trips(cell, fixed, master_seed, repetition):
    data = through_json(cli.run_config_dict(cell, fixed, master_seed, repetition))
    try:
        scenario_params(fixed, cell).validate()
    except ParameterError:
        # A world with no path to root access: its replay is refused.
        with pytest.raises(cli.ConfigError, match="no path to root access"):
            cli.config_from_manifest("run", data)
        return
    assert cli.config_from_manifest("run", data) == (cell, fixed, master_seed, repetition)


MANIFESTS = st.one_of(
    SWEEPS.map(lambda config: ("sweep", cli.sweep_config_to_dict(config))),
    st.builds(cli.run_config_dict, CELLS, PARAMS, INTS, st.integers(0, 2**70))
    .map(lambda config: ("run", config)),
)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=5,
)
# The fixed entries a replay never reads: the swept and the not-modelled fields.
UNREAD_FIXED = sorted(set(cli.sweep_config_to_dict(SweepConfig())["fixed"])
                      - {spec.name for spec in cli.FIXED_KEYS.values()})
# Values equal under == to one of those entries' defaults, but of another type.
LOOKALIKES = st.sampled_from((0, 1, 2, 0.0, 1.0, 2.0, 10.0, 1234.0, False, True))


@settings(max_examples=300, deadline=None)
@given(manifest=MANIFESTS, data=st.data())
def test_replay_refuses_an_edited_config_naming_the_key(manifest, data):
    command, config = manifest
    config = through_json(config)
    edit = data.draw(st.sampled_from(("drop", "add", "retype")))
    in_fixed = edit == "retype" or data.draw(st.booleans())
    where, prefix = (config["fixed"], "fixed.") if in_fixed else (config, "")
    if edit == "drop":
        key = data.draw(st.sampled_from(sorted(where)))
        del where[key]
        named = f"manifest config is incomplete: it lacks {prefix}{key}"
    elif edit == "add":
        key = data.draw(st.text(max_size=8).filter(lambda key: key not in where))
        where[key] = data.draw(JSON)
        named = f"unknown manifest config key {prefix + key!r}"
    else:
        key = data.draw(st.sampled_from(UNREAD_FIXED))
        unlike = type(where[key])
        where[key] = data.draw((LOOKALIKES | JSON).filter(lambda value: type(value) is not unlike))
        named = f"manifest config key {prefix + key!r} holds "
    with pytest.raises(cli.ConfigError) as info:
        cli.config_from_manifest(command, config)
    assert str(info.value).startswith(named)
