"""``generate_scenario``'s world memo, and ``draw_world``'s per-process
subset cache, against drawing every world afresh.

``generate_scenario`` keeps the last world it drew, keyed by its params
with the movement time and the objective reset, and hands it to the next
call whose params differ from those only in those two fields. The reference
is the straightforward path: validate the params, then ``draw_world``. For
every call of a sequence, both must give the same world JSON, the caller's
own params, and the same error text.

``draw_world`` takes each drawn subset from a cache by its mask. A sequence
of worlds drawn with the cache as earlier draws left it must match the same
worlds each drawn with the cache emptied first.
"""

import dataclasses

import pytest

from deceptsim import scenario as scenario_module
from deceptsim.experiment import SweepConfig, scenario_params
from deceptsim.scenario import (
    GeneratorParams,
    ParameterError,
    draw_world,
    generate_scenario,
    scenario_to_json,
)
from test_golden import GOLDEN_GRID


def reference(params):
    params.validate()
    return draw_world(params)


def result(generate, params):
    """What ``generate`` makes of ``params``: the world JSON and the exact
    params it holds, or the error's type and text."""
    try:
        world = generate(params)
    except ValueError as exc:
        return type(exc), str(exc)
    return scenario_to_json(world), repr(world.params)


def check_sequence(calls):
    for params in calls:
        assert result(generate_scenario, params) == result(reference, params), params


def test_golden_grid_in_grid_order_matches_fresh_worlds():
    check_sequence(scenario_params(GOLDEN_GRID.fixed, cell) for cell in GOLDEN_GRID.cells())


def test_a_group_draws_its_world_once(monkeypatch):
    drawn = []
    monkeypatch.setattr(scenario_module, "draw_world", lambda p: drawn.append(p) or draw_world(p))
    params = GeneratorParams(num_honeypots=3, seed=99)
    for movement_time in (None, 25):
        for one_goal in (False, True):
            generate_scenario(dataclasses.replace(
                params, movement_time=movement_time, one_goal=one_goal))
    generate_scenario(dataclasses.replace(params, seed=100))
    assert drawn == [params, dataclasses.replace(params, seed=100)]


def test_an_invalid_movement_time_after_a_hit_still_raises():
    params = GeneratorParams(num_honeypots=2, movement_time=25)
    generate_scenario(params)
    generate_scenario(dataclasses.replace(params, one_goal=True))
    invalid = dataclasses.replace(params, movement_time=0)
    with pytest.raises(ParameterError) as caught:
        generate_scenario(invalid)
    assert result(reference, invalid) == (ParameterError, str(caught.value))


def test_drawn_call_sequences_match_fresh_worlds():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # Fields that enter generation, and the two that do not. exploit_prob
    # is drawn as 1 and 1.0, and 0.0 and -0.0, which compare equal but
    # give different world JSON.
    world_fields = {
        "seed": st.integers(0, 5),
        "num_honeypots": st.integers(0, 3),
        "num_hosts": st.integers(0, 12),
        "num_sensitive": st.integers(0, 3),
        "exploit_prob": st.sampled_from((0.3, 1.0, 1, 0.0, -0.0, 0)),
    }
    other_fields = {
        "movement_time": st.sampled_from((None, 7, 25, 0)),
        "one_goal": st.booleans(),
    }

    @st.composite
    def call_sequences(draw):
        # A 32-address subnet keeps each world's JSON small.
        params = GeneratorParams(num_addresses=32, **{
            name: draw(values) for name, values in {**world_fields, **other_fields}.items()
        })
        calls = [params]
        for _ in range(draw(st.integers(1, 8))):
            fields = draw(st.sampled_from((world_fields, other_fields, other_fields)))
            name = draw(st.sampled_from(sorted(fields)))
            params = dataclasses.replace(params, **{name: draw(fields[name])})
            calls.append(params)
        return calls

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(calls=call_sequences())
    def check(calls):
        check_sequence(calls)

    check()


def cold(params):
    """The reference drawn with the subset cache emptied first."""
    scenario_module._subsets.clear()
    return reference(params)


def check_caches(calls):
    # Every warm draw first, so no cold draw refills the cache it reads.
    calls = list(calls)
    warm = [result(generate_scenario, params) for params in calls]
    assert warm == [result(cold, params) for params in calls]


def test_default_grid_in_sweep_order_matches_cold_draws():
    # Neither the agent, the movement time nor the objective enters a draw,
    # so these are the default grid's 36 worlds, in sweep order.
    config = dataclasses.replace(
        SweepConfig(), movement_time=(None,), one_goal=(False,), agents=("careful",))
    check_caches(scenario_params(config.fixed, cell) for cell in config.cells())


def test_drawn_worlds_match_cold_draws():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # Subsets over ranges above and below the memo's 12 bits, and empty
    # ones; subnets small enough to overflow, and big ones.
    worlds = st.builds(
        GeneratorParams,
        seed=st.integers(0, 2**40),
        num_hosts=st.integers(0, 40),
        num_honeypots=st.integers(0, 5),
        num_sensitive=st.integers(0, 4),
        num_services=st.sampled_from((0, 1, 3, 10, 12, 13, 40)),
        num_processes=st.sampled_from((0, 1, 10, 13)),
        num_vulns=st.sampled_from((0, 2, 10, 16)),
        num_os=st.integers(1, 3),
        num_exploits=st.integers(0, 12),
        num_privescs=st.integers(0, 12),
        num_addresses=st.sampled_from((16, 48, 256, 300)),
    )

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(calls=st.lists(worlds, min_size=1, max_size=6))
    def check(calls):
        check_caches(calls)

    check()
