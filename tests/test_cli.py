"""Command-line behavior: config ingestion, outputs, manifests, exit codes."""

import argparse
import contextlib
import csv
import errno
import hashlib
import json
import multiprocessing
import os
import random
import re
import signal
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from deceptsim import cli, experiment
from deceptsim.agents import make_agent
from deceptsim.experiment import Cell, SweepConfig, derive_episode_seed, scenario_params
from deceptsim.records import MANIFEST_PREFIX, RECORD_COLUMNS, format_value, manifest_line
from deceptsim.scenario import GeneratorParams, generate_scenario

SMALL_SWEEP = (
    "--honeypots", "0,2",
    "--movement-times", "none",
    "--hosts", "10",
    "--one-goal", "false",
    "--seeds", "1234",
    "--agents", "standard",
    "--repetitions", "3",
)


def run_cli(*argv):
    return cli.main(list(argv))


def read_data_rows(path):
    with open(path, encoding="utf-8", newline="") as handle:
        lines = [line for line in handle.read().splitlines() if not line.startswith("#")]
    return list(csv.DictReader(lines))


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


# ---------------------------------------------------------------------------
# run


def test_run_prints_one_episode_record(capsys):
    assert run_cli("run", "--agent", "standard", "--hosts", "10",
                   "--honeypots", "2", "--seed", "1234") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith(MANIFEST_PREFIX)
    fields = dict(pair.split("=", 1) for pair in out[1].split())
    assert fields["agent"] == "standard"
    assert fields["num_honeypots"] == "2"
    assert fields["movement_time"] == "none"
    assert fields["outcome"] in {"win", "loss_honeypot", "timeout"}
    assert int(fields["steps"]) >= 1


def test_run_record_matches_library_seed_derivation(capsys):
    assert run_cli("run", "--agent", "aggressive", "--seed", "42",
                   "--master-seed", "7", "--repetition", "3") == 0
    fields = dict(pair.split("=", 1) for pair in capsys.readouterr().out.splitlines()[1].split())
    cell = Cell(num_honeypots=0, movement_time=None, num_hosts=10,
                one_goal=False, seed=42, agent="aggressive")
    assert int(fields["episode_seed"]) == derive_episode_seed(7, cell, 3)


def test_run_invalid_agent_names_the_field(capsys):
    assert run_cli("run", "--agent", "bogus") == 1
    err = capsys.readouterr().err
    assert "agent" in err
    assert "bogus" in err


def test_run_without_agent_is_a_config_error(capsys):
    assert run_cli("run", "--hosts", "10") == 1
    assert "agent" in capsys.readouterr().err


def test_run_config_file_flags_override(tmp_path, capsys):
    config = tmp_path / "episode.cfg"
    config.write_text(
        "# single-episode settings\n"
        "agents = standard\n"
        "num_honeypots_options = 4\n"
        "num_creds = none\n"
        "step_limit = 500\n"
    )
    assert run_cli("run", "--config", str(config), "--honeypots", "2") == 0
    fields = dict(pair.split("=", 1) for pair in capsys.readouterr().out.splitlines()[1].split())
    assert fields["agent"] == "standard"
    assert fields["num_honeypots"] == "2"


def test_run_movement_time_none_spelled_out(capsys):
    assert run_cli("run", "--agent", "standard", "--movement-time", "none") == 0
    line = capsys.readouterr().out.splitlines()[1]
    assert "movement_time=none" in line


def test_trace_marks_knowledge_reset_after_post_mutation_failure(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    assert run_cli("run", "--agent", "careful", "--movement-time", "25",
                   "--trace", str(trace_path)) == 0
    lines = trace_path.read_text().splitlines()
    assert lines[0].startswith(MANIFEST_PREFIX)
    rows = [json.loads(line) for line in lines[1:]]
    assert [row["step"] for row in rows] == list(range(1, len(rows) + 1))
    failures = [row for row in rows if row.get("connection_failed")]
    assert failures, "mutation never produced a stale-address failure"
    first = failures[0]
    assert first["step"] > 25
    assert first.get("knowledge_reset") is True


def test_run_from_manifest_reproduces_trace(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    assert run_cli("run", "--agent", "standard", "--honeypots", "2",
                   "--trace", str(trace_path)) == 0
    first_stdout = capsys.readouterr().out
    original = read_bytes(trace_path)
    assert run_cli("run", "--from-manifest", str(trace_path)) == 0
    assert capsys.readouterr().out == first_stdout
    assert read_bytes(trace_path) == original


# The sha256 of each trace, manifest line included; a row writes its target
# as [subnet, index]. A change to how the engine holds addresses, plays an
# episode or writes a row must leave these bytes alone.
TRACE_SHA256 = {
    ("--agent", "standard"):
        "66e5e6e9bf95642eab4a94d27e93eeb15337a2de1b3636595455c34d964bf4bc",
    ("--agent", "careful", "--hosts", "10", "--honeypots", "2", "--movement-time", "25"):
        "de4fdce7a8639e23808fba6ab7ed2de9c67db152aa86e1deb98539a564429397",
    # Aggressive re-plans its sweep after every gain and exhausted sweep, and
    # under mutation after each of its resets.
    ("--agent", "aggressive"):
        "343c22bc5d0ed58c3a88b09ae8cf6d3265b876e7f944777ca08ab47f049a6fde",
    ("--agent", "aggressive", "--movement-time", "25"):
        "b8c03660d4d5bd63cb1fd00dda9ee40f512b450afdaec25072efb0c647e7fc14",
}


@pytest.mark.parametrize("argv", TRACE_SHA256, ids=[
    "static_standard", "mtd_careful", "static_aggressive", "mtd_aggressive"])
def test_trace_bytes_are_pinned(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.TIMESTAMP_ENV_VAR, raising=False)
    assert run_cli("run", *argv, "--trace", "trace.jsonl") == 0
    assert hashlib.sha256(read_bytes("trace.jsonl")).hexdigest() == TRACE_SHA256[argv]


# ---------------------------------------------------------------------------
# sweep


def test_sweep_row_count_and_order(tmp_path, capsys):
    out = tmp_path / "records.csv"
    assert run_cli("sweep", "--out", str(out), *SMALL_SWEEP) == 0
    rows = read_data_rows(out)
    assert len(rows) == 2 * 3
    keys = [(row["num_honeypots"], row["repetition"]) for row in rows]
    assert keys == [("0", "0"), ("0", "1"), ("0", "2"), ("2", "0"), ("2", "1"), ("2", "2")]
    assert set(rows[0]) == set(RECORD_COLUMNS)
    assert rows[0]["movement_time"] == "none"
    assert rows[0]["one_goal"] == "false"


def test_sweep_same_config_twice_is_byte_identical(tmp_path, capsys):
    out = tmp_path / "records.csv"
    assert run_cli("sweep", "--out", str(out), *SMALL_SWEEP) == 0
    first = read_bytes(out)
    assert run_cli("sweep", "--out", str(out), *SMALL_SWEEP) == 0
    assert read_bytes(out) == first


def test_sweep_from_manifest_is_byte_identical(tmp_path, capsys):
    out = tmp_path / "records.csv"
    assert run_cli("sweep", "--out", str(out), *SMALL_SWEEP) == 0
    first = read_bytes(out)
    assert run_cli("sweep", "--from-manifest", str(out)) == 0
    assert read_bytes(out) == first


def test_every_reader_takes_the_manifest_before_the_header(tmp_path, capsys):
    # A records file with another file's manifest line appended: aggregate
    # embeds, and a replay replays, the first file's own manifest.
    out, other = tmp_path / "records.csv", tmp_path / "other.csv"
    for path, master_seed in ((out, "3"), (other, "9")):
        assert run_cli("sweep", "--out", str(path), *SMALL_SWEEP, "--master-seed", master_seed) == 0
    first = read_bytes(out)
    with open(out, "a", encoding="utf-8") as handle:
        handle.write(other.read_text(encoding="utf-8").splitlines()[0] + "\n")
    aggregates = tmp_path / "aggregates.csv"
    assert run_cli("aggregate", "--records", str(out), "--out", str(aggregates)) == 0
    line = aggregates.read_text(encoding="utf-8").splitlines()[0]
    assert json.loads(line[len(MANIFEST_PREFIX):])["config"]["master_seed"] == 3
    assert cli.load_manifest(str(out), "sweep")["config"]["master_seed"] == 3
    assert run_cli("sweep", "--from-manifest", str(out)) == 0
    assert read_bytes(out) == first


def test_sweep_parallel_matches_serial(tmp_path, capsys):
    out = tmp_path / "records.csv"
    assert run_cli("sweep", "--out", str(out), "--workers", "1", *SMALL_SWEEP) == 0
    serial = read_bytes(out)
    assert run_cli("sweep", "--out", str(out), "--workers", "3", *SMALL_SWEEP) == 0
    assert read_bytes(out) == serial


def test_sweep_reads_table_style_config_file(tmp_path, capsys):
    config = tmp_path / "grid.cfg"
    config.write_text(
        "num_honeypots_options = 0, 2\n"
        "movement_time_options = none, 25\n"
        "num_hosts_options = 10\n"
        "one_goal_options = false, true\n"
        "seed_options = 1234\n"
        "agents = standard, aggressive\n"
        "repetitions = 2\n"
        "master_seed = 5\n"
        "num_creds = none\n"
        "exploit_probs = 1.0\n"
        "privesc_probs = 1.0\n"
        "addresses = 256\n"
        "subnets = 2\n"
        "step_limit = 400\n"
    )
    out = tmp_path / "records.csv"
    assert run_cli("sweep", "--config", str(config), "--out", str(out)) == 0
    rows = read_data_rows(out)
    assert len(rows) == 2 * 2 * 2 * 2 * 2
    assert {row["movement_time"] for row in rows} == {"none", "25"}
    assert {row["agent"] for row in rows} == {"standard", "aggressive"}


def test_sweep_flag_overrides_config_key(tmp_path, capsys):
    config = tmp_path / "grid.cfg"
    config.write_text("agents = careful\nrepetitions = 9\n")
    out = tmp_path / "records.csv"
    assert run_cli("sweep", "--config", str(config), "--out", str(out),
                   "--honeypots", "0", "--movement-times", "none", "--hosts", "10",
                   "--one-goal", "false", "--seeds", "1234",
                   "--agents", "standard", "--repetitions", "2") == 0
    rows = read_data_rows(out)
    assert len(rows) == 2
    assert {row["agent"] for row in rows} == {"standard"}


def test_sweep_unknown_config_key_exits_1(tmp_path, capsys):
    config = tmp_path / "grid.cfg"
    config.write_text("num_wormholes = 3\n")
    assert run_cli("sweep", "--config", str(config), "--out", str(tmp_path / "r.csv")) == 1
    assert "num_wormholes" in capsys.readouterr().err


SMALL_SWEEP_CONFIG = (
    "num_honeypots_options = 0\n"
    "movement_time_options = none\n"
    "num_hosts_options = 10\n"
    "one_goal_options = false\n"
    "seed_options = 1234\n"
    "agents = standard\n"
    "repetitions = 1\n"
)


@pytest.mark.parametrize("line, field", [
    ("num_sensitive = 2.5", "num_sensitive"),
    ("seed_options = abc", "seeds"),
    ("step_limit = 1.5", "step_limit"),
    ("movement_time_options = 2.5", "movement_time"),
    ("num_hosts_options = true", "num_hosts"),
    ("one_goal_options = 1", "one_goal"),
    ("repetitions = true", "repetitions"),
    ("master_seed = 1.5", "master_seed"),
    ("workers = true", "workers"),
    ("exploit_probs = true", "exploit_prob"),
    ("uniform = 1", "uniform"),
    # Keys the model does not use take only their defaults.
    ("action_cost = 5", "action_cost"),
    ("uniform = false", "uniform"),
    ("host_discovery_value = 2.0", "host_discovery_value"),
    ("subnets = 3", "num_subnets"),
    ("num_creds = 3", "num_creds"),
])
def test_sweep_mistyped_config_value_exits_1(tmp_path, capsys, line, field):
    # The small grid keeps a wrongly accepted value from running long; the
    # bad line takes the place of the grid's line for its key, since a key
    # set twice exits 1 of itself.
    key = line.partition("=")[0].strip()
    kept = [entry for entry in SMALL_SWEEP_CONFIG.splitlines(keepends=True)
            if entry.partition("=")[0].strip() != key]
    config = tmp_path / "grid.cfg"
    config.write_text("".join(kept) + line + "\n")
    out = tmp_path / "r.csv"
    assert run_cli("sweep", "--config", str(config), "--out", str(out)) == 1
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_num_creds_other_than_none_is_not_modelled(tmp_path, capsys):
    config = tmp_path / "grid.cfg"
    config.write_text(SMALL_SWEEP_CONFIG + "num_creds = 3\n")
    assert run_cli("sweep", "--config", str(config), "--out", str(tmp_path / "r.csv")) == 1
    assert capsys.readouterr().err == (
        "error: num_creds: not modelled, only 'none' is accepted, got '3'\n"
    )


@pytest.mark.parametrize("line, message", [
    ("uniform = false", "uniform: not modelled, only 'true' is accepted, got 'false'"),
    ("host_discovery_value = 2",
     "host_discovery_value: not modelled, only '1.0' is accepted, got '2'"),
    ("action_cost = 1.0", "action_cost: not modelled, only '1' is accepted, got '1.0'"),
    ("subnets = 3", "num_subnets: not modelled, only '2' is accepted, got '3'"),
    ("num_creds = some", "num_creds: not modelled, only 'none' is accepted, got 'some'"),
], ids=["uniform", "host_discovery_value", "action_cost", "subnets", "num_creds"])
def test_not_modelled_key_names_its_one_value_in_file_order(tmp_path, capsys, line, message):
    # The bad line is reported as it is parsed, before a later bad line.
    config = tmp_path / "grid.cfg"
    config.write_text(SMALL_SWEEP_CONFIG + line + "\nstep_limit = 1.5\n")
    assert run_cli("sweep", "--config", str(config), "--out", str(tmp_path / "r.csv")) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_float_field_spelled_as_integer_writes_the_same_file(tmp_path, capsys):
    # Tokens are parsed by their field's type, so 1000 is the float 1000.0.
    outputs = []
    for spelling in ("1000", "1000.0"):
        config = tmp_path / f"grid_{spelling}.cfg"
        config.write_text(SMALL_SWEEP_CONFIG + f"r_sensitive = {spelling}\n")
        out = tmp_path / "records.csv"
        assert run_cli("sweep", "--config", str(config), "--out", str(out)) == 0
        outputs.append(read_bytes(out))
    assert outputs[0] == outputs[1]
    assert b'"r_sensitive":1000.0' in outputs[0]


def test_not_modelled_keys_at_their_values_write_the_same_file(tmp_path, capsys):
    # Each is parsed by the type of the one value it accepts, in any spelling
    # of that value, and changes nothing; the manifest records the --out path.
    outputs = []
    for lines in ("", "uniform = TRUE\nhost_discovery_value = 1\nsubnets = 2\n"
                      "num_creds = NONE\naction_cost = 1\n"):
        config = tmp_path / "grid.cfg"
        config.write_text(SMALL_SWEEP_CONFIG + lines)
        out = tmp_path / "records.csv"
        assert run_cli("sweep", "--config", str(config), "--out", str(out)) == 0
        outputs.append(read_bytes(out))
    assert outputs[0] == outputs[1]
    assert b'"uniform":true' in outputs[0] and b'"num_subnets":2' in outputs[0]


@pytest.mark.parametrize("command, field, token, value", [
    ("run", "r_sensitive", "nan", float("nan")),
    ("sweep", "r_honeypot", "-inf", float("-inf")),
    ("sweep", "base_host_value", "inf", float("inf")),
    # Only a manifest holds an int too large for a float.
    ("run", "r_sensitive", "1e400", 10**400),
], ids=["run-nan", "sweep-minus-inf", "sweep-inf", "run-int-beyond-float"])
def test_non_finite_reward_exits_1_naming_it(tmp_path, capsys, command, field, token, value):
    # A non-finite reward makes scores nan or infinite, and json.dumps writes
    # it into the manifest as the non-JSON token NaN or Infinity.
    config = tmp_path / "bad.cfg"
    config.write_text(("agents = standard\n" if command == "run" else SMALL_SWEEP_CONFIG)
                      + f"{field} = {token}\n")
    path = tmp_path / "output"
    out_flag = "--trace" if command == "run" else "--out"
    assert run_cli(command, "--config", str(config), out_flag, str(path)) == 1
    assert field in capsys.readouterr().err
    assert not path.exists()
    # The same value in a replayed manifest.
    argv = ("--agent", "standard") if command == "run" else SMALL_SWEEP
    assert run_cli(command, *argv, out_flag, str(path)) == 0
    line, rest = path.read_text().split("\n", 1)
    manifest = json.loads(line[len(MANIFEST_PREFIX):])
    manifest["config"]["fixed"][field] = value
    path.write_text(MANIFEST_PREFIX + json.dumps(manifest) + "\n" + rest)
    before = read_bytes(path)
    capsys.readouterr()
    assert run_cli(command, "--from-manifest", str(path)) == 1
    assert field in capsys.readouterr().err
    assert read_bytes(path) == before


@pytest.mark.parametrize("line, key", [
    ("repetitions = 7", "repetitions"),
    ("workers = 3", "workers"),
])
def test_run_rejects_sweep_only_config_keys(tmp_path, capsys, line, key):
    config = tmp_path / "episode.cfg"
    config.write_text("agents = standard\n" + line + "\n")
    assert run_cli("run", "--config", str(config)) == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("argv, field", [
    (("--agent", "standard", "--honeypots", "0,2"), "num_honeypots"),
    (("--agent", "standard,careful"), "agents"),
    (("--agent", "standard", "--hosts", "ten"), "num_hosts"),
    (("--agent", "standard", "--one-goal", "yes"), "one_goal"),
    (("--agent", "standard", "--step-limit", "1.5"), "step_limit"),
])
def test_run_flag_takes_one_value_of_its_fields_type(capsys, argv, field):
    assert run_cli("run", *argv) == 1
    assert field in capsys.readouterr().err


def test_run_negative_repetition_exits_1(capsys):
    # No sweep plays a negative repetition, so no run may claim one.
    assert run_cli("run", "--agent", "standard", "--repetition", "-1") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "repetition" in captured.err


@pytest.mark.parametrize("good, bad, field", [
    ('"num_sensitive":3', '"num_sensitive":2.5', "num_sensitive"),
    ('"agent":"standard"', '"agent":"bogus"', "agent"),
    ('"master_seed":0', '"master_seed":"abc"', "master_seed"),
    ('"repetition":0', '"repetition":true', "repetition"),
    ('"repetition":0', '"repetition":-1', "repetition"),
])
def test_run_from_manifest_with_bad_value_exits_1(tmp_path, capsys, good, bad, field):
    trace = tmp_path / "trace.jsonl"
    assert run_cli("run", "--agent", "standard", "--trace", str(trace)) == 0
    manifest, rest = trace.read_text().split("\n", 1)
    assert good in manifest
    trace.write_text(manifest.replace(good, bad) + "\n" + rest)
    capsys.readouterr()
    assert run_cli("run", "--from-manifest", str(trace)) == 1
    assert field in capsys.readouterr().err


def _without(key):
    return lambda manifest: {k: v for k, v in manifest.items() if k != key}


@pytest.mark.parametrize("command, edit", [
    pytest.param("sweep", _without("outputs"), id="sweep-no-outputs"),
    pytest.param("sweep", lambda manifest: dict(manifest, outputs=[]), id="sweep-empty-outputs"),
    pytest.param("sweep", _without("config"), id="sweep-no-config"),
    pytest.param("run", _without("config"), id="run-no-config"),
    pytest.param("sweep", list, id="sweep-list-manifest"),
    pytest.param("aggregate", list, id="records-list-manifest"),
])
def test_malformed_manifest_exits_1_naming_it(tmp_path, capsys, command, edit):
    path = tmp_path / "output"
    if command == "run":
        assert run_cli("run", "--agent", "standard", "--trace", str(path)) == 0
    else:
        assert run_cli("sweep", "--out", str(path), *SMALL_SWEEP) == 0
    line, rest = path.read_text().split("\n", 1)
    manifest = edit(json.loads(line[len(MANIFEST_PREFIX):]))
    path.write_text(MANIFEST_PREFIX + json.dumps(manifest) + "\n" + rest)
    capsys.readouterr()
    if command == "aggregate":
        assert run_cli("aggregate", "--records", str(path)) == 1
    else:
        assert run_cli(command, "--from-manifest", str(path)) == 1
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep", "aggregate"])
def test_a_manifest_of_another_version_exits_1_naming_both(tmp_path, capsys, command):
    # Another version may write other records for the same config, so its
    # manifest is not replayed, and nothing is rewritten.
    path = tmp_path / "output"
    if command == "run":
        assert run_cli("run", "--agent", "standard", "--trace", str(path)) == 0
    else:
        assert run_cli("sweep", "--out", str(path), *SMALL_SWEEP) == 0
    if command == "aggregate":
        records, path = path, tmp_path / "agg.csv"
        assert run_cli("aggregate", "--records", str(records), "--group-by", "agent",
                       "--out", str(path)) == 0
    line, rest = path.read_text().split("\n", 1)
    manifest = json.loads(line[len(MANIFEST_PREFIX):])
    assert manifest["version"] == cli.__version__
    manifest["version"] = "9.9.9"
    path.write_text(MANIFEST_PREFIX + json.dumps(manifest) + "\n" + rest)
    before = read_bytes(path)
    capsys.readouterr()
    assert run_cli(command, "--from-manifest", str(path)) == 1
    err = capsys.readouterr().err
    assert f"version '9.9.9', this is {cli.__version__!r}" in err
    assert str(path) in err
    assert read_bytes(path) == before


def _set(**entries):
    return lambda config: config.update(entries)


def _set_fixed(**entries):
    return lambda config: config["fixed"].update(entries)


def _drop_fixed(*keys):
    def edit(config):
        for key in keys:
            del config["fixed"][key]
    return edit


@pytest.mark.parametrize("command, edit, named", [
    pytest.param("sweep", _set(bogus=1), "'bogus'", id="sweep-config-key"),
    pytest.param("run", _set(bogus=1), "'bogus'", id="run-config-key"),
    pytest.param("sweep", _set_fixed(num_honeypots=7, num_hosts=33), "fixed.num_honeypots",
                 id="sweep-swept-field"),
    pytest.param("run", _set_fixed(num_honeypots=5, seed=99), "fixed.num_honeypots",
                 id="run-swept-field"),
    # The default's value, but not its type: the writer never writes it.
    pytest.param("sweep", _set_fixed(one_goal=0), "fixed.one_goal", id="sweep-swept-type"),
    pytest.param("sweep", _set_fixed(bogus=1), "fixed.bogus", id="sweep-fixed-key"),
    pytest.param("run", _set_fixed(bogus=1), "fixed.bogus", id="run-fixed-key"),
    # A missing field would replay at today's default, not the recorded value.
    pytest.param("sweep", _drop_fixed("step_limit", "num_sensitive"),
                 "fixed.num_sensitive, fixed.step_limit", id="sweep-missing-fixed"),
    pytest.param("run", _drop_fixed("exploit_prob"), "fixed.exploit_prob", id="run-missing-fixed"),
    # The model ignores these fields; manifests hold each at exactly its one value.
    pytest.param("sweep", _set_fixed(uniform=False), "fixed.uniform", id="sweep-not-modelled"),
    pytest.param("run", _set_fixed(action_cost=1.0), "fixed.action_cost",
                 id="run-not-modelled-type"),
    pytest.param("sweep", _drop_fixed("num_subnets"), "fixed.num_subnets",
                 id="sweep-missing-not-modelled"),
    # The writers write every field, the swept ones included.
    pytest.param("sweep", _drop_fixed("num_honeypots"),
                 "manifest config is incomplete: it lacks fixed.num_honeypots",
                 id="sweep-missing-swept-field"),
])
def test_replay_refuses_what_it_would_ignore(tmp_path, capsys, command, edit, named):
    path = tmp_path / "output"
    if command == "run":
        assert run_cli("run", "--agent", "standard", "--trace", str(path)) == 0
    else:
        assert run_cli("sweep", "--out", str(path), *SMALL_SWEEP) == 0
    line, rest = path.read_text().split("\n", 1)
    manifest = json.loads(line[len(MANIFEST_PREFIX):])
    edit(manifest["config"])
    path.write_text(MANIFEST_PREFIX + json.dumps(manifest) + "\n" + rest)
    before = read_bytes(path)
    capsys.readouterr()
    assert run_cli(command, "--from-manifest", str(path)) == 1
    err = capsys.readouterr().err
    assert named in err
    assert "GeneratorParams" not in err
    assert read_bytes(path) == before


@pytest.mark.parametrize("command, flags", [
    ("sweep", ("--honeypots", "5", "--agents", "careful", "--repetitions", "9",
               "--config", "x.conf")),
    ("sweep", ("--one-goal", "true", "--step-limit", "7", "--master-seed", "3")),
    ("run", ("--agent", "careful", "--honeypots", "7")),
    ("run", ("--repetition", "2", "--movement-time", "none")),
    ("aggregate", ("--records", "other.csv", "--group-by", "agent")),
])
def test_from_manifest_rejects_the_flags_it_would_ignore(tmp_path, capsys, command, flags):
    path = tmp_path / "output"
    if command == "run":
        assert run_cli("run", "--agent", "standard", "--trace", str(path)) == 0
    else:
        assert run_cli("sweep", "--out", str(path), *SMALL_SWEEP) == 0
    if command == "aggregate":
        records, path = path, tmp_path / "agg.csv"
        assert run_cli("aggregate", "--records", str(records), "--out", str(path)) == 0
    before = read_bytes(path)
    capsys.readouterr()
    assert run_cli(command, "--from-manifest", str(path), *flags) == 1
    err = capsys.readouterr().err
    for flag in flags[::2]:
        assert flag in err
    assert read_bytes(path) == before
    # The flags a replay reads are still accepted.
    kept = {"sweep": ("--out", str(path), "--workers", "2"),
            "run": ("--trace", str(path)),
            "aggregate": ("--out", str(path))}[command]
    assert run_cli(command, "--from-manifest", str(path), *kept) == 0
    assert read_bytes(path) == before


def test_sweep_oversized_network_exits_1(tmp_path, capsys):
    assert run_cli("sweep", "--out", str(tmp_path / "r.csv"),
                   "--hosts", "300", "--agents", "standard") == 1
    assert "hosts" in capsys.readouterr().err


def test_sweep_validation_names_the_first_bad_cell_before_any_episode(tmp_path, capsys,
                                                                     monkeypatch):
    # Two params sets overflow the subnet, each under every agent; the sweep
    # checks each params set once, and must name the same first error as
    # checking every cell in cell order.
    def no_episode(*args, **kwargs):
        raise AssertionError("an episode was played")

    monkeypatch.setattr(experiment, "run_episode", no_episode)
    config = SweepConfig(num_honeypots=(0, 2, 4), movement_time=(None, 25),
                         num_hosts=(10, 251), repetitions=1)
    expected = None
    for cell in config.cells():
        try:
            scenario_params(config.fixed, cell).validate()
        except ValueError as exc:
            expected = str(exc)
            break
    assert expected == ("256 hosts do not fit num_addresses = 256: the attacker takes one "
                        "address, leaving 255 for the target subnet")
    out = tmp_path / "r.csv"
    assert run_cli("sweep", "--out", str(out), "--honeypots", "0,2,4",
                   "--movement-times", "none,25", "--hosts", "10,251",
                   "--repetitions", "1", "--workers", "1") == 1
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert not out.exists()


def test_sweep_unknown_agent_exits_1(tmp_path, capsys):
    assert run_cli("sweep", "--out", str(tmp_path / "r.csv"),
                   "--agents", "careful,bogus") == 1
    assert "bogus" in capsys.readouterr().err


# A repeated value in each swept list: (SweepConfig field, flag, tokens).
REPEATED_VALUES = [
    ("num_honeypots", "--honeypots", "2,0,2"),
    ("movement_time", "--movement-times", "none,none"),
    ("num_hosts", "--hosts", "10,10"),
    ("one_goal", "--one-goal", "true,true"),
    ("seeds", "--seeds", "1234,1234"),
    ("agents", "--agents", "standard,standard"),
]


@pytest.mark.parametrize("source", ["flag", "config", "manifest"])
@pytest.mark.parametrize("field, flag, tokens", REPEATED_VALUES)
def test_sweep_repeated_swept_value_exits_1(tmp_path, capsys, source, field, flag, tokens):
    # Repeated values would repeat cells, and so every record of them.
    out = tmp_path / "r.csv"
    index = SMALL_SWEEP.index(flag)
    others = SMALL_SWEEP[:index] + SMALL_SWEEP[index + 2:]
    if source == "flag":
        argv = ("sweep", "--out", str(out), *others, flag, tokens)
    elif source == "config":
        key = {name: key for key, name in cli.LIST_KEYS.items()}[field]
        config = tmp_path / "sweep.cfg"
        config.write_text(f"{key} = {tokens}\n")
        argv = ("sweep", "--out", str(out), "--config", str(config), *others)
    else:
        assert run_cli("sweep", "--out", str(out), *SMALL_SWEEP) == 0
        line, rest = out.read_text().split("\n", 1)
        manifest = json.loads(line[len(MANIFEST_PREFIX):])
        key = {name: key for key, name in cli.LIST_KEYS.items()}[field]
        manifest["config"][key] *= 2
        out.write_text(MANIFEST_PREFIX + json.dumps(manifest) + "\n" + rest)
        argv = ("sweep", "--from-manifest", str(out))
    before = out.read_bytes() if out.exists() else None
    capsys.readouterr()
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert f"swept value list {field} repeats a value" in err
    assert (out.read_bytes() if out.exists() else None) == before


def test_workers_env_var_is_honored(tmp_path, capsys, monkeypatch):
    out = tmp_path / "records.csv"
    assert run_cli("sweep", "--out", str(out), "--workers", "1", *SMALL_SWEEP) == 0
    serial = read_bytes(out)
    monkeypatch.setenv(cli.WORKERS_ENV_VAR, "2")
    assert run_cli("sweep", "--out", str(out), *SMALL_SWEEP) == 0
    assert read_bytes(out) == serial
    monkeypatch.setenv(cli.WORKERS_ENV_VAR, "soon")
    assert run_cli("sweep", "--out", str(out), *SMALL_SWEEP) == 1


def test_workers_default_to_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.delenv(cli.WORKERS_ENV_VAR, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert cli.resolve_workers(None, None) == 3
    # The flag, the config key and the environment variable come first.
    assert cli.resolve_workers(4, 2) == 4
    assert cli.resolve_workers(None, 2) == 2
    monkeypatch.setenv(cli.WORKERS_ENV_VAR, "1")
    assert cli.resolve_workers(None, None) == 1
    monkeypatch.delenv(cli.WORKERS_ENV_VAR)
    # Where the platform has no affinity, the machine's CPUs, or one.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert cli.resolve_workers(None, None) == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli.resolve_workers(None, None) == 1


@pytest.mark.parametrize("source", ["--workers", "workers", cli.WORKERS_ENV_VAR])
def test_a_bad_worker_count_names_its_source(tmp_path, capsys, monkeypatch, source):
    config = tmp_path / "grid.cfg"
    config.write_text("workers = 0\n" if source == "workers" else "")
    monkeypatch.delenv(cli.WORKERS_ENV_VAR, raising=False)
    if source == cli.WORKERS_ENV_VAR:
        monkeypatch.setenv(source, "0")
    flags = ("--workers", "0") if source == "--workers" else ()
    out = tmp_path / "records.csv"
    assert run_cli("sweep", "--config", str(config), "--out", str(out), *flags,
                   *SMALL_SWEEP) == 1
    assert capsys.readouterr().err == f"error: {source} must be a positive integer, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ("run", "--agent", "careful", "--seed", "1"),
    ("sweep", "--seeds", "5,1", "--agents", "careful", "--repetitions", "1"),
], ids=["run", "sweep"])
def test_a_world_with_no_path_to_root_exits_1_before_any_episode(
        tmp_path, capsys, monkeypatch, command):
    # Seed 1's one exploit grants user access, and there is no privesc; seed
    # 5's grants root, and its cells would play first.
    config = tmp_path / "noroot.cfg"
    config.write_text("num_exploits = 1\nnum_privescs = 0\n")
    played = []
    for module in (cli, experiment):
        monkeypatch.setattr(module, "run_episode", lambda *args, **kwargs: played.append(args))
    out = ("--out", str(tmp_path / "records.csv")) if command[0] == "sweep" else ()
    assert run_cli(*command, "--config", str(config), *out) == 1
    err = capsys.readouterr().err
    assert "num_privescs = 0" in err and "num_exploits = 1" in err and "seed 1 " in err
    assert played == []
    assert not (tmp_path / "records.csv").exists()


def test_sweep_runs_on_the_default_workers(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(cli.WORKERS_ENV_VAR, raising=False)
    monkeypatch.setattr(cli, "available_cpus", lambda: 3)
    asked = []
    monkeypatch.setattr(cli, "iter_sweep",
                        lambda config, workers: asked.append(workers) or (record for record in ()))
    assert run_cli("sweep", "--out", str(tmp_path / "r.csv"), *SMALL_SWEEP) == 0
    assert asked == [3]


# ---------------------------------------------------------------------------
# aggregate


def sweep_two_agents(tmp_path):
    out = tmp_path / "records.csv"
    assert run_cli("sweep", "--out", str(out),
                   "--honeypots", "0,2", "--movement-times", "none,25",
                   "--hosts", "10", "--one-goal", "false", "--seeds", "1234",
                   "--agents", "standard,aggressive", "--repetitions", "2") == 0
    return out


def test_aggregate_round_trip_loses_no_records(tmp_path, capsys):
    records_path = sweep_two_agents(tmp_path)
    total = len(read_data_rows(records_path))
    out = tmp_path / "agg.csv"
    assert run_cli("aggregate", "--records", str(records_path), "--out", str(out)) == 0
    rows = read_data_rows(out)
    assert len(rows) == 2 * 2 * 2
    assert sum(int(row["episodes"]) for row in rows) == total


def test_aggregate_group_by_projection(tmp_path, capsys):
    records_path = sweep_two_agents(tmp_path)
    out = tmp_path / "agg.csv"
    assert run_cli("aggregate", "--records", str(records_path),
                   "--group-by", "agent,honeypots", "--out", str(out)) == 0
    rows = read_data_rows(out)
    assert len(rows) == 2 * 2
    assert list(rows[0])[:2] == ["agent", "num_honeypots"]
    for row in rows:
        assert int(row["episodes"]) == 4


def test_aggregate_derived_group_fields(tmp_path, capsys):
    records_path = sweep_two_agents(tmp_path)
    out = tmp_path / "agg.csv"
    assert run_cli("aggregate", "--records", str(records_path),
                   "--group-by", "honeypots_on,mtd_on", "--out", str(out)) == 0
    rows = read_data_rows(out)
    assert len(rows) == 4
    assert {(row["honeypots_on"], row["mtd_on"]) for row in rows} == {
        ("false", "false"), ("false", "true"), ("true", "false"), ("true", "true"),
    }


def test_aggregate_to_stdout(tmp_path, capsys):
    records_path = sweep_two_agents(tmp_path)
    capsys.readouterr()
    assert run_cli("aggregate", "--records", str(records_path),
                   "--group-by", "agent") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith(MANIFEST_PREFIX)
    assert out[1].split(",")[:2] == ["agent", "episodes"]
    assert len(out) == 2 + 2


def test_aggregate_probabilities_use_six_significant_digits(tmp_path, capsys):
    records_path = tmp_path / "records.csv"
    header = ",".join(RECORD_COLUMNS)
    rows = [
        "0,none,10,false,1234,standard,0,win,10,3.0,1",
        "0,none,10,false,1234,standard,1,timeout,3000,0.0,2",
        "0,none,10,false,1234,standard,2,timeout,3000,0.0,3",
    ]
    records_path.write_text("\n".join([header, *rows]) + "\n")
    out = tmp_path / "agg.csv"
    assert run_cli("aggregate", "--records", str(records_path),
                   "--group-by", "agent", "--out", str(out)) == 0
    row = read_data_rows(out)[0]
    assert row["win_probability"] == "0.333333"
    assert row["timeout_fraction"] == "0.666667"


def test_aggregate_header_is_the_published_one(tmp_path, capsys):
    records_path = sweep_two_agents(tmp_path)
    capsys.readouterr()
    assert run_cli("aggregate", "--records", str(records_path), "--group-by", "agent") == 0
    assert capsys.readouterr().out.splitlines()[1] == (
        "agent,episodes,win_probability,loss_honeypot_fraction,timeout_fraction,"
        "steps_min,steps_q1,steps_median,steps_q3,steps_max"
    )


def test_aggregate_from_manifest_is_byte_identical(tmp_path, capsys):
    records_path = sweep_two_agents(tmp_path)
    out = tmp_path / "agg.csv"
    assert run_cli("aggregate", "--records", str(records_path),
                   "--group-by", "agent,mtd_on", "--out", str(out)) == 0
    first = read_bytes(out)
    assert run_cli("aggregate", "--from-manifest", str(out)) == 0
    assert read_bytes(out) == first


def test_aggregate_unknown_group_by_exits_1(tmp_path, capsys):
    records_path = sweep_two_agents(tmp_path)
    assert run_cli("aggregate", "--records", str(records_path),
                   "--group-by", "colour") == 1
    assert "colour" in capsys.readouterr().err


def _no_records_read(path, *fields):
    raise AssertionError(f"{path} was read before the group-by was checked")


@pytest.mark.parametrize("spec, field", [
    ("agent,agent", "agent"),
    ("agent,agents,honeypots,num_honeypots", "agent"),
    ("hosts,seed,num_hosts", "num_hosts"),
])
def test_aggregate_repeated_group_by_exits_1(tmp_path, capsys, monkeypatch, spec, field):
    records_path = sweep_two_agents(tmp_path)
    monkeypatch.setattr(cli, "read_records_csv", _no_records_read)
    assert run_cli("aggregate", "--records", str(records_path), "--group-by", spec) == 1
    assert f"group-by repeats the field {field!r}" in capsys.readouterr().err


def test_aggregate_manifest_with_repeated_group_by_exits_1(tmp_path, capsys, monkeypatch):
    records_path = sweep_two_agents(tmp_path)
    out = tmp_path / "agg.csv"
    assert run_cli("aggregate", "--records", str(records_path),
                   "--group-by", "agent,mtd_on", "--out", str(out)) == 0
    manifest, rest = out.read_text().split("\n", 1)
    good = '"group_by":["agent","mtd_on"]'
    assert good in manifest
    out.write_text(manifest.replace(good, '"group_by":["agent","mtd_on","agent"]') + "\n" + rest)
    monkeypatch.setattr(cli, "read_records_csv", _no_records_read)
    capsys.readouterr()
    assert run_cli("aggregate", "--from-manifest", str(out)) == 1
    assert "group-by repeats the field 'agent'" in capsys.readouterr().err


def test_aggregate_requires_records_argument(capsys):
    assert run_cli("aggregate") == 1
    assert "records" in capsys.readouterr().err


def test_aggregate_schema_mismatch_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert run_cli("aggregate", "--records", str(bad), "--group-by", "agent") == 1
    assert "missing record columns" in capsys.readouterr().err


@pytest.mark.parametrize("row", [
    "4,none,10,false,1234,careful,0,win,10,3.0,1,12",
    "x,none,10,false,1234,careful,0,lost,10,3.0,1,12",  # read, it would be named
])
def test_aggregate_header_repeating_a_record_column_exits_1(tmp_path, capsys, row):
    records_path = tmp_path / "records.csv"
    records_path.write_text(",".join([*RECORD_COLUMNS, "steps"]) + "\n" + row + "\n")
    assert run_cli("aggregate", "--records", str(records_path), "--group-by", "agent") == 1
    assert capsys.readouterr().err == \
        f"error: {records_path}: repeated record columns: steps\n"


def test_aggregate_header_repeating_an_unknown_column_reads(tmp_path, capsys):
    records_path = tmp_path / "records.csv"
    records_path.write_text(",".join([*RECORD_COLUMNS, "note", "note"]) + "\n"
                            + "4,none,10,false,1234,careful,0,win,10,3.0,1,a,b\n")
    assert run_cli("aggregate", "--records", str(records_path), "--group-by", "agent") == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("careful,1,1,0,0,10,")


def test_aggregate_missing_file_exits_1(tmp_path, capsys):
    assert run_cli("aggregate", "--records", str(tmp_path / "nope.csv")) == 1


@pytest.mark.parametrize("outcome", ["WIN", "Win", " win", "lost", ""])
def test_aggregate_unknown_outcome_exits_1(tmp_path, capsys, outcome):
    records_path = tmp_path / "records.csv"
    rows = [
        "4,none,10,false,1234,careful,0,win,10,3.0,1",
        f"4,none,10,false,1234,careful,1,{outcome},12,3.0,2",
    ]
    records_path.write_text("\n".join([",".join(RECORD_COLUMNS), *rows]) + "\n")
    assert run_cli("aggregate", "--records", str(records_path), "--group-by", "agent") == 1
    err = capsys.readouterr().err
    assert f"bad record row 2: outcome: expected one of win, loss_honeypot, timeout, got {outcome!r}" in err


def test_aggregate_oversized_field_exits_1(tmp_path, capsys):
    records_path = tmp_path / "records.csv"
    records_path.write_text(",".join(RECORD_COLUMNS) + "\n" + "9" * (csv.field_size_limit() + 1))
    assert run_cli("aggregate", "--records", str(records_path)) == 1
    assert f"cannot read records file {records_path}: field larger than" in capsys.readouterr().err


@pytest.mark.parametrize("argv, reader", [
    (["aggregate", "--records"], "records file"),
    (["sweep", "--config"], "config file"),
    (["run", "--config"], "config file"),
    (["sweep", "--from-manifest"], "manifest from"),
    (["run", "--from-manifest"], "manifest from"),
    (["aggregate", "--from-manifest"], "manifest from"),
])
def test_file_that_is_not_utf8_exits_1_naming_it(tmp_path, capsys, argv, reader):
    path = tmp_path / "latin1.txt"
    path.write_bytes("# caf\u00e9\n".encode("latin-1"))
    assert run_cli(*argv, str(path)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {reader} {path}: 'utf-8' codec can't decode")


# Excel's "CSV UTF-8" format and some Windows editors start a file with a
# UTF-8 byte-order mark; every reader skips it.
BOM = "\ufeff".encode("utf-8")


def test_config_file_with_a_byte_order_mark_reads_alike(tmp_path, capsys):
    config = tmp_path / "episode.cfg"
    outputs = []
    for mark in (b"", BOM):
        config.write_bytes(mark + b"agents = standard\r\nnum_honeypots_options = 2\r\n")
        assert run_cli("run", "--config", str(config)) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "num_honeypots=2 " in outputs[0] and " agent=standard " in outputs[0]


def test_records_file_with_a_byte_order_mark_aggregates_alike(tmp_path, capsys):
    records, marked = tmp_path / "records.csv", tmp_path / "marked.csv"
    assert run_cli("sweep", "--out", str(records), *SMALL_SWEEP) == 0
    marked.write_bytes(BOM + read_bytes(records))
    outputs = []
    for path in (records, marked):
        capsys.readouterr()
        assert run_cli("aggregate", "--records", str(path), "--group-by", "agent,honeypots") == 0
        line, body = capsys.readouterr().out.split("\n", 1)
        manifest = json.loads(line[len(MANIFEST_PREFIX):])
        assert manifest.pop("records") == str(path)
        outputs.append((manifest, body))
    assert outputs[0] == outputs[1]
    assert outputs[0][0]["config"]["repetitions"] == 3


def test_manifest_with_a_byte_order_mark_replays_alike(tmp_path, capsys):
    records, marked = tmp_path / "records.csv", tmp_path / "marked.csv"
    assert run_cli("sweep", "--out", str(records), *SMALL_SWEEP) == 0
    original = read_bytes(records)
    marked.write_bytes(BOM + original)
    records.unlink()
    assert run_cli("sweep", "--from-manifest", str(marked)) == 0
    assert read_bytes(records) == original


# ---------------------------------------------------------------------------
# shared plumbing


def test_usage_error_exits_1(capsys):
    assert run_cli("sweep", "--workers", "many") == 1


def test_unknown_subcommand_exits_1(capsys):
    assert run_cli("observe") == 1


# Each command's --help at 80 columns, as the parser prints it.
HELP_TEXTS = {
    "deceptsim": """\
usage: deceptsim [-h] [--version] {run,sweep,aggregate} ...

Deception-defense sizing simulator: honeypots and address mutation against
scripted attackers.

positional arguments:
  {run,sweep,aggregate}
    run                 run a single episode
    sweep               run the full parameter grid
    aggregate           summarize a records file

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
""",
    "deceptsim run": """\
usage: deceptsim run [-h] [--config CONFIG] [--agent AGENT]
                     [--honeypots HONEYPOTS] [--movement-time MOVEMENT_TIME]
                     [--hosts HOSTS] [--one-goal ONE_GOAL] [--seed SEED]
                     [--master-seed MASTER_SEED] [--repetition REPETITION]
                     [--step-limit STEP_LIMIT] [--trace PATH]
                     [--from-manifest PATH]

options:
  -h, --help            show this help message and exit
  --config CONFIG       key = value config file
  --agent AGENT         attacker script: careful, standard, aggressive
  --honeypots HONEYPOTS
                        number of honeypot hosts
  --movement-time MOVEMENT_TIME
                        address mutation interval, or none
  --hosts HOSTS         number of normal hosts
  --one-goal ONE_GOAL   true: one sensitive host wins; false: all must fall
  --seed SEED           scenario generation seed
  --master-seed MASTER_SEED
                        episode seed derivation root
  --repetition REPETITION
                        repetition index for seed derivation
  --step-limit STEP_LIMIT
                        maximum actions before timeout
  --trace PATH          write a per-step JSONL trace
  --from-manifest PATH  re-run the episode recorded in an output's manifest
""",
    "deceptsim sweep": """\
usage: deceptsim sweep [-h] [--config CONFIG] [--out OUT] [--workers WORKERS]
                       [--honeypots HONEYPOTS]
                       [--movement-times MOVEMENT_TIMES] [--hosts HOSTS]
                       [--one-goal ONE_GOAL] [--seeds SEEDS] [--agents AGENTS]
                       [--repetitions REPETITIONS] [--master-seed MASTER_SEED]
                       [--step-limit STEP_LIMIT] [--from-manifest PATH]

options:
  -h, --help            show this help message and exit
  --config CONFIG       key = value config file
  --out OUT             records CSV path (default records.csv)
  --workers WORKERS     parallel worker processes (default $DECEPTSIM_WORKERS,
                        else the CPUs this process may use)
  --honeypots HONEYPOTS
                        comma-separated honeypot counts
  --movement-times MOVEMENT_TIMES
                        comma-separated intervals, none allowed
  --hosts HOSTS         comma-separated normal host counts
  --one-goal ONE_GOAL   comma-separated objective values (true,false)
  --seeds SEEDS         comma-separated scenario seeds
  --agents AGENTS       comma-separated agent kinds
  --repetitions REPETITIONS
                        episodes per cell
  --master-seed MASTER_SEED
                        episode seed derivation root
  --step-limit STEP_LIMIT
                        maximum actions before timeout
  --from-manifest PATH  re-run the sweep recorded in an output's manifest
""",
    "deceptsim aggregate": """\
usage: deceptsim aggregate [-h] [--records RECORDS] [--group-by GROUP_BY]
                           [--out OUT] [--from-manifest PATH]

options:
  -h, --help            show this help message and exit
  --records RECORDS     records CSV written by sweep
  --group-by GROUP_BY   comma-separated fields, e.g. agent,honeypots or
                        agent,mtd_on
  --out OUT             aggregates CSV path (default stdout)
  --from-manifest PATH  recompute the aggregation recorded in an output's
                        manifest
""",
}


@pytest.mark.parametrize("command", HELP_TEXTS)
def test_help_is_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        run_cli(*command.split()[1:], "--help")
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == HELP_TEXTS[command]


def _parsers():
    """Each command's parser, by the name cli.FLAGS gives its help under."""
    parser = cli.build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    return {"deceptsim": parser, **commands.choices}


@pytest.mark.parametrize("command", ["deceptsim", "run", "sweep", "aggregate"])
def test_every_flag_comes_from_the_flag_table(command):
    held = [option for action in _parsers()[command]._actions
            for option in action.option_strings if option not in ("-h", "--help")]
    assert held == [flag for flag, _, _, helps in cli.FLAGS if command in helps]


def test_the_flag_table_names_each_flag_once_and_only_known_keys():
    flags = [flag for flag, *_ in cli.FLAGS]
    assert len(set(flags)) == len(flags)
    assert set(_parsers()) == {command for *_, helps in cli.FLAGS for command in helps}
    keys = {*cli.LIST_KEYS, *cli.FIXED_KEYS, *cli.SCALAR_KEYS}
    assert {key for _, key, *_ in cli.FLAGS} - {None} <= keys


@pytest.mark.parametrize("timestamp, replays", [
    (5, False), ([], False), (None, True), ("2025-08-15T00:00:00Z", True),
])
def test_replay_takes_a_timestamp_only_if_null_or_a_string(tmp_path, capsys, timestamp, replays):
    out = tmp_path / "records.csv"
    assert run_cli("sweep", "--out", str(out), *SMALL_SWEEP) == 0
    line, rest = out.read_text().split("\n", 1)
    manifest = json.loads(line[len(MANIFEST_PREFIX):])
    manifest["timestamp"] = timestamp
    out.write_text(manifest_line(manifest) + "\n" + rest)
    before = read_bytes(out)
    capsys.readouterr()
    assert run_cli("sweep", "--from-manifest", str(out)) == (0 if replays else 1)
    assert read_bytes(out) == before
    assert ("timestamp" in capsys.readouterr().err) != replays


@pytest.mark.parametrize("value", [10, "10", {"10": 10}], ids=["number", "string", "object"])
def test_sweep_manifest_swept_value_not_a_list_exits_1_naming_it(tmp_path, capsys, value):
    out = tmp_path / "records.csv"
    assert run_cli("sweep", "--out", str(out), *SMALL_SWEEP) == 0
    line, rest = out.read_text().split("\n", 1)
    manifest = json.loads(line[len(MANIFEST_PREFIX):])
    assert manifest["config"]["num_hosts_options"] == [10]
    manifest["config"]["num_hosts_options"] = value
    out.write_text(manifest_line(manifest) + "\n" + rest)
    before = read_bytes(out)
    capsys.readouterr()
    assert run_cli("sweep", "--from-manifest", str(out)) == 1
    assert read_bytes(out) == before
    assert "error: manifest config key 'num_hosts_options' is not a list" in capsys.readouterr().err


def test_source_date_epoch_sets_manifest_timestamp(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.TIMESTAMP_ENV_VAR, "1755216000")
    out = tmp_path / "records.csv"
    assert run_cli("sweep", "--out", str(out), *SMALL_SWEEP) == 0
    manifest = json.loads(out.read_text().splitlines()[0][len(MANIFEST_PREFIX):])
    assert manifest["timestamp"] == "2025-08-15T00:00:00Z"
    capsys.readouterr()
    for epoch in ("not-a-time", "99999999999999"):  # the second is past year 9999
        monkeypatch.setenv(cli.TIMESTAMP_ENV_VAR, epoch)
        assert run_cli("sweep", "--out", str(out), *SMALL_SWEEP) == 1
        assert capsys.readouterr().err == \
            f"error: {cli.TIMESTAMP_ENV_VAR} must be a Unix timestamp, got {epoch!r}\n"


@pytest.mark.parametrize("command, out_flag", [("run", "--trace"), ("sweep", "--out")])
def test_config_key_set_twice_exits_1_naming_both_lines(tmp_path, capsys, command, out_flag):
    config = tmp_path / "grid.cfg"
    config.write_text("num_hosts_options = 10\n# hosts\nagents = standard\nnum_hosts_options=50\n")
    out = tmp_path / "out"
    assert run_cli(command, "--config", str(config), out_flag, str(out)) == 1
    err = capsys.readouterr().err
    assert f"{config}:4: num_hosts_options is set twice, on lines 1 and 4" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("sweep", *SMALL_SWEEP, "--seeds", "5,-5"),
    ("run", "--agent", "standard", "--seed", "-5"),
])
def test_negative_seed_exits_1_naming_seed(tmp_path, capsys, monkeypatch, argv):
    # random.Random seeds by absolute value: -5 would draw seed 5's world.
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == 1
    assert "seed must be non-negative, got -5" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def _run_config_error(tmp_path, capsys, lines):
    """stderr of ``run`` on a config file that holds ``lines`` beside
    ``agents = standard``, once it has exited 1 with nothing on stdout."""
    config = tmp_path / "episode.cfg"
    config.write_text("agents = standard\n" + "".join(line + "\n" for line in lines))
    assert run_cli("run", "--config", str(config)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


# Config keys of the fields that must be non-negative, each with its field.
COUNT_KEYS = {
    "seed_options": "seed",
    "num_hosts_options": "num_hosts",
    "num_honeypots_options": "num_honeypots",
    "num_sensitive": "num_sensitive",
    "num_services": "num_services",
    "num_processes": "num_processes",
    "num_exploits": "num_exploits",
    "num_privescs": "num_privescs",
    "num_vulns": "num_vulns",
}


@pytest.mark.parametrize("key", COUNT_KEYS)
def test_negative_count_exits_1_naming_it(tmp_path, capsys, key):
    err = _run_config_error(tmp_path, capsys, [f"{key} = -1"])
    assert err == f"error: {COUNT_KEYS[key]} must be non-negative, got -1\n"


@pytest.mark.parametrize("line, message", [
    ("num_os = -1", "num_os must be at least 1, got -1"),
    ("num_os = 0", "num_os must be at least 1, got 0"),
    ("step_limit = -1", "step_limit must be at least 1, got -1"),
    ("step_limit = 0", "step_limit must be at least 1, got 0"),
    ("addresses = -1", "num_addresses must be at least 1, got -1"),
    ("addresses = 0", "num_addresses must be at least 1, got 0"),
    # 3 sensitive and 10 normal hosts, and one address is the attacker's.
    ("addresses = 10", "13 hosts do not fit num_addresses = 10: the attacker takes one "
                       "address, leaving 9 for the target subnet"),
])
def test_int_fields_with_their_own_bounds_keep_their_messages(tmp_path, capsys, line, message):
    assert _run_config_error(tmp_path, capsys, [line]) == f"error: {message}\n"


def test_a_negative_seed_is_named_before_a_negative_count(tmp_path, capsys):
    err = _run_config_error(tmp_path, capsys, ["num_hosts_options = -1", "seed_options = -1"])
    assert err == "error: seed must be non-negative, got -1\n"


UNKNOWN_AGENT = "unknown agent kind 'bogus'; expected one of: careful, standard, aggressive"


@pytest.mark.parametrize("source", [
    "run-flag", "sweep-flag", "run-config", "sweep-config", "run-manifest", "sweep-manifest",
    "make_agent",
])
def test_unknown_agent_reads_the_same_from_every_source(tmp_path, capsys, source):
    if source == "make_agent":
        with pytest.raises(ValueError) as info:
            make_agent("bogus", generate_scenario(GeneratorParams()), random.Random(0))
        assert str(info.value) == UNKNOWN_AGENT
        return
    command, _, kind = source.partition("-")
    path = tmp_path / "output"
    out_flag = "--trace" if command == "run" else "--out"
    if kind == "manifest":
        assert run_cli(command, *(("--agent", "standard") if command == "run" else SMALL_SWEEP),
                       out_flag, str(path)) == 0
        line, rest = path.read_text().split("\n", 1)
        manifest = json.loads(line[len(MANIFEST_PREFIX):])
        key, value = ("agent", "bogus") if command == "run" else ("agents", ["bogus"])
        manifest["config"][key] = value
        path.write_text(MANIFEST_PREFIX + json.dumps(manifest) + "\n" + rest)
        argv = ("--from-manifest", str(path))
    elif kind == "flag":
        argv = ("--agent" if command == "run" else "--agents", "bogus", out_flag, str(path))
    else:
        config = tmp_path / "agents.cfg"
        config.write_text("agents = bogus\n")
        argv = ("--config", str(config), out_flag, str(path))
    before = path.read_bytes() if path.exists() else None
    capsys.readouterr()
    assert run_cli(command, *argv) == 1
    assert capsys.readouterr().err == f"error: {UNKNOWN_AGENT}\n"
    assert (path.read_bytes() if path.exists() else None) == before


# ---------------------------------------------------------------------------
# output paths, checked before any work


def _no_work(*args, **kwargs):
    raise AssertionError("work began before the output path was checked")


def test_run_trace_into_a_missing_directory_exits_1_before_playing(tmp_path, capsys,
                                                                   monkeypatch):
    monkeypatch.setattr(cli, "run_episode", _no_work)
    trace = tmp_path / "missing" / "trace.jsonl"
    assert run_cli("run", "--agent", "standard", "--trace", str(trace)) == 1
    assert f"error: cannot write {trace}: " in capsys.readouterr().err
    assert not trace.parent.exists()


def test_replayed_trace_into_a_missing_directory_exits_1_before_playing(tmp_path, capsys,
                                                                        monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "traces").mkdir()
    assert run_cli("run", "--agent", "standard", "--trace", "traces/trace.jsonl") == 0
    (tmp_path / "traces" / "trace.jsonl").rename(tmp_path / "kept.jsonl")
    (tmp_path / "traces").rmdir()
    monkeypatch.setattr(cli, "run_episode", _no_work)
    capsys.readouterr()
    assert run_cli("run", "--from-manifest", "kept.jsonl") == 1
    assert "error: cannot write traces/trace.jsonl: " in capsys.readouterr().err
    assert not (tmp_path / "traces").exists()


@pytest.mark.parametrize("parent", ["missing", "a_file"])
def test_sweep_out_into_a_missing_directory_exits_1_before_simulating(tmp_path, capsys,
                                                                      monkeypatch, parent):
    (tmp_path / "a_file").write_text("")
    monkeypatch.setattr(cli, "iter_sweep", _no_work)
    out = tmp_path / parent / "records.csv"
    assert run_cli("sweep", "--out", str(out), *SMALL_SWEEP) == 1
    assert f"error: cannot write {out}: " in capsys.readouterr().err


DASH = "cannot be -: only aggregate --out takes - for standard output"


def test_sweep_out_dash_exits_1_before_simulating(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "iter_sweep", _no_work)
    assert run_cli("sweep", "--out", "-", *SMALL_SWEEP) == 1
    assert capsys.readouterr() == ("", f"error: --out {DASH}\n")
    assert not (tmp_path / "-").exists()


def test_run_trace_dash_exits_1_before_playing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_episode", _no_work)
    assert run_cli("run", "--agent", "standard", "--trace", "-") == 1
    assert capsys.readouterr() == ("", f"error: --trace {DASH}\n")
    assert not (tmp_path / "-").exists()


def test_aggregate_out_into_a_missing_directory_exits_1_before_reading(tmp_path, capsys,
                                                                       monkeypatch):
    records_path = sweep_two_agents(tmp_path)
    monkeypatch.setattr(cli, "read_records_csv", _no_records_read)
    out = tmp_path / "missing" / "agg.csv"
    capsys.readouterr()
    assert run_cli("aggregate", "--records", str(records_path), "--group-by", "agent",
                   "--out", str(out)) == 1
    assert f"error: cannot write {out}: " in capsys.readouterr().err
    assert not out.parent.exists()


def test_aggregate_out_onto_its_own_records_exits_1_before_reading(tmp_path, capsys,
                                                                   monkeypatch):
    records_path = sweep_two_agents(tmp_path)
    before = read_bytes(records_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "read_records_csv", _no_records_read)
    capsys.readouterr()
    for out in (str(records_path), "./records.csv"):
        assert run_cli("aggregate", "--records", str(records_path), "--group-by", "agent",
                       "--out", out) == 1
        assert f"error: cannot write {out}: it is the records file " in capsys.readouterr().err
    assert read_bytes(records_path) == before


@pytest.mark.parametrize("out_flag", [False, True])
def test_replayed_aggregate_onto_its_own_records_exits_1_before_reading(tmp_path, capsys,
                                                                        monkeypatch, out_flag):
    monkeypatch.chdir(tmp_path)
    sweep_two_agents(tmp_path)
    assert run_cli("aggregate", "--records", "records.csv", "--group-by", "agent",
                   "--out", "agg.csv") == 0
    if not out_flag:
        manifest, rest = (tmp_path / "agg.csv").read_text().split("\n", 1)
        assert '"outputs":["agg.csv"]' in manifest
        (tmp_path / "agg.csv").write_text(
            manifest.replace('"outputs":["agg.csv"]', '"outputs":["records.csv"]') + "\n" + rest)
    before = read_bytes(tmp_path / "records.csv")
    monkeypatch.setattr(cli, "read_records_csv", _no_records_read)
    capsys.readouterr()
    argv = ["--out", "records.csv"] if out_flag else []
    assert run_cli("aggregate", "--from-manifest", "agg.csv", *argv) == 1
    assert "error: cannot write records.csv: it is the records file records.csv" in \
        capsys.readouterr().err
    assert read_bytes(tmp_path / "records.csv") == before


# Each command, its flags writing an output at "adir", and the work that must
# not begin when "adir" is a directory.
OUTPUT_AT_ADIR = {
    "run": (("--agent", "standard", "--trace", "adir"), "run_episode"),
    "sweep": (("--out", "adir", *SMALL_SWEEP), "iter_sweep"),
    "aggregate": (("--records", "records.csv", "--group-by", "agent", "--out", "adir"),
                  "read_records_csv"),
}


@pytest.mark.parametrize("replay", [False, True], ids=["flag", "manifest"])
@pytest.mark.parametrize("command", OUTPUT_AT_ADIR)
def test_output_naming_a_directory_exits_1_before_any_work(tmp_path, capsys, monkeypatch,
                                                           command, replay):
    monkeypatch.chdir(tmp_path)
    if command == "aggregate":
        sweep_two_agents(tmp_path)
    argv, work = OUTPUT_AT_ADIR[command]
    if replay:
        assert run_cli(command, *argv) == 0
        (tmp_path / "adir").rename(tmp_path / "kept")
        argv = ("--from-manifest", "kept")
    (tmp_path / "adir").mkdir()
    monkeypatch.setattr(cli, work, _no_work)
    capsys.readouterr()
    assert run_cli(command, *argv) == 1
    assert "error: cannot write adir: it is a directory" in capsys.readouterr().err
    assert not any((tmp_path / "adir").iterdir())


@pytest.mark.parametrize("argv", [
    ("sweep", "--from-manifest", ""),
    ("sweep", "--config", ""),
    ("sweep", "--out", "", *SMALL_SWEEP),
    ("run", "--agent", "standard", "--trace", ""),
    ("run", "--from-manifest", ""),
    ("run", "--config", "", "--agent", "standard"),
    ("aggregate", "--records", ""),
    ("aggregate", "--records", "records.csv", "--out", ""),
    ("aggregate", "--from-manifest", ""),
])
def test_empty_path_flag_exits_1_naming_it_before_any_work(tmp_path, capsys, monkeypatch, argv):
    # An empty path would name the working directory, or pass for the flag
    # not given.
    monkeypatch.chdir(tmp_path)
    for work in ("run_episode", "iter_sweep", "read_records_csv"):
        monkeypatch.setattr(cli, work, _no_work)
    flag = argv[argv.index("") - 1]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == f"error: argument {flag}: expected a path, got ''\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command, key", [
    ("run", "outputs"), ("sweep", "outputs"), ("aggregate", "outputs"), ("aggregate", "records"),
])
def test_empty_path_in_a_replayed_manifest_exits_1_naming_it(tmp_path, capsys, monkeypatch,
                                                             command, key):
    monkeypatch.chdir(tmp_path)
    if command == "run":
        assert run_cli("run", "--agent", "standard", "--trace", "output") == 0
    else:
        sweep_two_agents(tmp_path)
        (tmp_path / "records.csv").rename(tmp_path / "output")
    if command == "aggregate":
        assert run_cli("aggregate", "--records", "output", "--out", "agg.csv") == 0
        (tmp_path / "agg.csv").rename(tmp_path / "output")
    line, rest = (tmp_path / "output").read_text().split("\n", 1)
    manifest = json.loads(line[len(MANIFEST_PREFIX):])
    manifest[key] = [""] if key == "outputs" else ""
    (tmp_path / "output").write_text(MANIFEST_PREFIX + json.dumps(manifest) + "\n" + rest)
    for work in ("run_episode", "iter_sweep", "read_records_csv"):
        monkeypatch.setattr(cli, work, _no_work)
    capsys.readouterr()
    assert run_cli(command, "--from-manifest", "output") == 1
    assert f"error: output: the manifest's {key} " in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["output"]


# ---------------------------------------------------------------------------
# Writes are whole or not at all


@contextlib.contextmanager
def file_size_limit(limit):
    """Writes past ``limit`` bytes fail with EFBIG in this process, as they
    would on a full disk."""
    resource = pytest.importorskip("resource")
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    previous = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (limit, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        signal.signal(signal.SIGXFSZ, previous)


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_sweep_that_fails_midway_leaves_nothing_behind(tmp_path, capsys, monkeypatch,
                                                         workers, existing):
    # Four tasks of four episodes; each process's sixth episode raises, so a
    # serial sweep fails after its first block of records was written.
    out = tmp_path / "records.csv"
    if existing:
        out.write_text("old\n")
    calls = []
    play = experiment.run_episode

    def fail_on_sixth_call(*args, **kwargs):
        calls.append(None)
        if len(calls) == 6:
            raise RuntimeError("injected episode failure")
        return play(*args, **kwargs)

    monkeypatch.setattr(experiment, "run_episode", fail_on_sixth_call)
    assert run_cli("sweep", "--out", str(out), "--workers", workers, *SMALL_SWEEP,
                   "--honeypots", "0,2,4,6", "--repetitions", "4") == 2
    assert capsys.readouterr() == ("", "error: injected episode failure\n")
    assert os.listdir(tmp_path) == (["records.csv"] if existing else [])
    assert not existing or out.read_text() == "old\n"
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_sweep_interrupted_while_writing_leaves_nothing_behind(tmp_path, monkeypatch, capsys,
                                                                 workers):
    # The interrupt lands in the writer, between two records the stream has
    # yielded, not in the stream itself; the sweep still stops its workers.
    out = tmp_path / "records.csv"
    calls = []

    def interrupt_on_twentieth_token(value):
        calls.append(value)
        if len(calls) == 20:
            raise KeyboardInterrupt
        return format_value(value)

    monkeypatch.setattr("deceptsim.records.format_value", interrupt_on_twentieth_token)
    assert run_cli("sweep", "--out", str(out), "--workers", workers, *SMALL_SWEEP,
                   "--honeypots", "0,2,4,6", "--repetitions", "4") == 130
    assert capsys.readouterr().err == "error: interrupted\n"
    assert os.listdir(tmp_path) == []
    assert multiprocessing.active_children() == []


def test_a_parallel_sweep_interrupted_twice_exits_130_and_leaves_nothing_behind(tmp_path):
    # Ctrl-C signals the whole process group: the sweep and its workers. The
    # second interrupt lands while the pool shuts down, which it must not cut
    # short. The default grid runs for about a minute, so it is still running.
    # faulthandler dumps every thread of each process of the group on SIGABRT,
    # so a sweep that hangs names where.
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONFAULTHANDLER="1", PYTHONPATH=os.pathsep.join(filter(None, (
        str(src), os.environ.get("PYTHONPATH")))))
    sweep = subprocess.Popen(
        [sys.executable, "-m", "deceptsim.cli", "sweep", "--out", "big.csv", "--workers", "2"],
        cwd=tmp_path, env=env, start_new_session=True, text=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        time.sleep(2)
        os.killpg(sweep.pid, signal.SIGINT)
        time.sleep(0.5)
        os.killpg(sweep.pid, signal.SIGINT)
        try:
            _, err = sweep.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(sweep.pid, signal.SIGABRT)
            time.sleep(5)  # for the dumps; then whatever still holds stderr is killed
            with contextlib.suppress(ProcessLookupError):
                os.killpg(sweep.pid, signal.SIGKILL)
            _, err = sweep.communicate(timeout=10)
            pytest.fail(f"the sweep still ran 30 s after the second interrupt:\n{err}")
        assert (sweep.returncode, err) == (130, "error: interrupted\n")
        assert os.listdir(tmp_path) == []
        with pytest.raises(ProcessLookupError):  # no process of its group is left
            os.killpg(sweep.pid, 0)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(sweep.pid, signal.SIGKILL)
        sweep.wait(timeout=10)


@pytest.mark.parametrize("one_goal", ["false", "true,false"])
def test_the_count_line_counts_the_written_records(tmp_path, capsys, one_goal):
    # The count is derived from the grid; the file's data rows are counted.
    out = tmp_path / "records.csv"
    assert run_cli("sweep", "--out", str(out), *SMALL_SWEEP, "--one-goal", one_goal,
                   "--agents", "standard,aggressive") == 0
    count = re.fullmatch(r"wrote (\d+) episode records to .*\n", capsys.readouterr().out)
    assert int(count.group(1)) == len(read_data_rows(out)) == 2 * 2 * 3 * len(one_goal.split(","))


def test_a_write_that_fails_midway_leaves_the_old_records(tmp_path):
    out = sweep_two_agents(tmp_path)
    before = read_bytes(out)
    text = before.decode() * (2**20 // len(before) + 1)
    with file_size_limit(2**18), pytest.raises(OSError) as caught:
        cli.write_text(str(out), text)
    assert caught.value.errno == errno.EFBIG
    assert read_bytes(out) == before
    assert os.listdir(tmp_path) == ["records.csv"]


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["umask_022", "umask_027"])
def test_a_written_file_has_the_mode_open_gives_it(tmp_path, umask):
    existing = tmp_path / "existing.csv"
    existing.write_text("old\n")
    existing.chmod(0o640)
    previous = os.umask(umask)
    try:
        with open(tmp_path / "reference", "w"):
            pass
        cli.write_text(str(tmp_path / "new.csv"), "new\n")
        cli.write_text(str(existing), "new\n")
    finally:
        os.umask(previous)
    reference_mode = stat.S_IMODE((tmp_path / "reference").stat().st_mode)
    assert stat.S_IMODE((tmp_path / "new.csv").stat().st_mode) == reference_mode
    assert stat.S_IMODE(existing.stat().st_mode) == 0o640
    assert existing.read_text() == "new\n"


def test_a_symlinked_output_replaces_its_target_and_keeps_the_link(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    target = data / "records.csv"
    target.write_text("old\n")
    link, dangling = tmp_path / "link.csv", tmp_path / "dangling.csv"
    link.symlink_to(target)
    dangling.symlink_to(data / "missing.csv")
    cli.write_text(str(link), "new\n")
    cli.write_text(str(dangling), "created\n")
    assert os.readlink(link) == str(target) and target.read_text() == "new\n"
    assert (data / "missing.csv").read_text() == "created\n"
    assert sorted(os.listdir(tmp_path)) == ["dangling.csv", "data", "link.csv"]
    assert sorted(os.listdir(data)) == ["missing.csv", "records.csv"]


def test_a_pipe_needs_no_writable_directory(tmp_path, capsys, monkeypatch):
    # As /dev/stdout, in a directory only root may write: a records file is
    # refused there, but a pipe is written in place.
    reference, pipe = tmp_path / "records.csv", tmp_path / "pipe"
    assert run_cli("sweep", "--out", str(reference), "--workers", "1", *SMALL_SWEEP) == 0
    os.mkfifo(pipe)
    monkeypatch.setattr(os, "access", lambda *args, **kwargs: False)
    # Open without blocking, so the sweep finds a reader; the pipe's buffer
    # holds its few records, and a sweep that never writes reads as empty.
    reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert run_cli("sweep", "--out", str(pipe), "--workers", "1", *SMALL_SWEEP) == 0
        received = os.read(reader, 1 << 16).decode()
    finally:
        os.close(reader)
    assert received.split("\n", 1)[1] == reference.read_text().split("\n", 1)[1]
    capsys.readouterr()
    assert run_cli("sweep", "--out", str(reference), "--workers", "1", *SMALL_SWEEP) == 1
    assert f"{tmp_path} is not a writable directory" in capsys.readouterr().err


def test_a_pipe_is_written_in_place(tmp_path):
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(target=lambda: received.append(pipe.read_text()), daemon=True)
    reader.start()
    cli.write_text(str(pipe), "records\n")
    reader.join(timeout=10)
    assert received == ["records\n"]
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)
