"""Command-line front end: run one episode, sweep a parameter grid, aggregate results.

Configuration files are flat ``key = value`` text using the experiment table
field names, e.g. ``num_honeypots_options = 0,2,4,6,9,10``.  Flags override
config-file keys, and every token is parsed by the type of the field it
fills.  ``run`` resolves as a one-cell sweep.  A null movement time is
spelled ``none`` in configs and emitted as the literal string ``none`` in
outputs.

Every output starts with a manifest comment line recording the resolved
configuration, tool version, timestamp, and output paths; ``--from-manifest``
replays a manifest of this version, whose config is accepted only if its
writer writes it back unchanged, and reproduces the original file
byte-for-byte.  The manifest timestamp is null unless SOURCE_DATE_EPOCH is
set, so that repeated runs of the same configuration stay byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import stat
import sys

from . import __version__
from .agents import AGENT_KINDS
from .engine import trace_record
from .experiment import (
    CELL_FIELDS,
    GROUP_GETTERS,
    SWEPT_TYPES,
    Cell,
    SweepConfig,
    aggregate,
    aggregate_fields,
    derive_episode_seed,
    iter_sweep,
    run_episode,
    scenario_params,
)
# Not used here, records_csv_text is kept for callers that render records through cli.
from .records import (
    RECORD_COLUMNS, RecordsError, aggregates_csv_text, format_value, manifest_line,
    read_manifest, read_records_csv, records_csv_text, trace_jsonl_text, write_records_csv,
)
from .scenario import FIELD_TYPES, GeneratorParams, check_type, generate_scenario

WORKERS_ENV_VAR = "DECEPTSIM_WORKERS"
TIMESTAMP_ENV_VAR = "SOURCE_DATE_EPOCH"

# Swept-value config keys (table names) -> SweepConfig field, in field order.
LIST_KEYS = dict(zip(("num_honeypots_options", "movement_time_options", "num_hosts_options",
                      "one_goal_options", "seed_options", "agents"), SWEPT_TYPES))

# Fixed-parameter config keys (table names) -> GeneratorParams field: every
# field that is not swept, under its own name except for three table names.
_TABLE_NAMES = {
    "exploit_prob": "exploit_probs",
    "privesc_prob": "privesc_probs",
    "num_addresses": "addresses",
}
FIXED_KEYS = {
    _TABLE_NAMES.get(spec.name, spec.name): spec
    for spec in dataclasses.fields(GeneratorParams)
    if spec.name not in CELL_FIELDS
}

# Paper-table keys the model ignores -> the name errors give the key, and the
# one value it accepts: no credentials, no reward for discovering a host, one
# step per action, uniform host configurations, and an attacker subnet plus
# one target subnet. Manifests write all but num_creds under fixed.
NOT_MODELLED = {"num_creds": ("num_creds", None),
                "host_discovery_value": ("host_discovery_value", 1.0),
                "action_cost": ("action_cost", 1), "uniform": ("uniform", True),
                "subnets": ("num_subnets", 2)}
_FIXED_NOT_MODELLED = {name: value for name, value in NOT_MODELLED.values()
                       if name != "num_creds"}

# Scalar config keys, each an integer. Only sweep takes repetitions and workers.
SCALAR_KEYS = ("repetitions", "master_seed", "workers")
SWEEP_ONLY_KEYS = ("repetitions", "workers")


def _path(token: str) -> str:
    """A path flag's value: an empty one would name the working directory,
    or be taken for the flag not given."""
    if not token:
        raise argparse.ArgumentTypeError("expected a path, got ''")
    return token


# Every flag of deceptsim and its commands, in --help order, each with the
# config key it overrides (None: it sets none), its argparse options, and its
# help under each command that takes it. run's flags fill sweep's list keys
# with one value.
_PATH = {"type": _path}
_NAMED_PATH = {"type": _path, "metavar": "PATH"}
FLAGS = (
    ("--version", None, {"action": "version", "version": f"%(prog)s {__version__}"},
     {"deceptsim": "show program's version number and exit"}),
    ("--records", None, _PATH, {"aggregate": "records CSV written by sweep"}),
    ("--group-by", None, {},
     {"aggregate": "comma-separated fields, e.g. agent,honeypots or agent,mtd_on"}),
    ("--config", None, _PATH, dict.fromkeys(("run", "sweep"), "key = value config file")),
    ("--out", None, _PATH, {"sweep": "records CSV path (default records.csv)",
                            "aggregate": "aggregates CSV path (default stdout)"}),
    ("--workers", None, {"type": int},
     {"sweep": f"parallel worker processes (default ${WORKERS_ENV_VAR}, "
               "else the CPUs this process may use)"}),
    ("--agent", "agents", {}, {"run": f"attacker script: {', '.join(AGENT_KINDS)}"}),
    ("--honeypots", "num_honeypots_options", {},
     {"run": "number of honeypot hosts", "sweep": "comma-separated honeypot counts"}),
    ("--movement-time", "movement_time_options", {}, {"run": "address mutation interval, or none"}),
    ("--movement-times", "movement_time_options", {},
     {"sweep": "comma-separated intervals, none allowed"}),
    ("--hosts", "num_hosts_options", {},
     {"run": "number of normal hosts", "sweep": "comma-separated normal host counts"}),
    ("--one-goal", "one_goal_options", {},
     {"run": "true: one sensitive host wins; false: all must fall",
      "sweep": "comma-separated objective values (true,false)"}),
    ("--seed", "seed_options", {}, {"run": "scenario generation seed"}),
    ("--seeds", "seed_options", {}, {"sweep": "comma-separated scenario seeds"}),
    ("--agents", "agents", {}, {"sweep": "comma-separated agent kinds"}),
    ("--repetitions", "repetitions", {}, {"sweep": "episodes per cell"}),
    ("--master-seed", "master_seed", {},
     dict.fromkeys(("run", "sweep"), "episode seed derivation root")),
    ("--repetition", None, {"type": int}, {"run": "repetition index for seed derivation"}),
    ("--step-limit", "step_limit", {},
     dict.fromkeys(("run", "sweep"), "maximum actions before timeout")),
    ("--trace", None, _NAMED_PATH, {"run": "write a per-step JSONL trace"}),
    ("--from-manifest", None, _NAMED_PATH,
     {"run": "re-run the episode recorded in an output's manifest",
      "sweep": "re-run the sweep recorded in an output's manifest",
      "aggregate": "recompute the aggregation recorded in an output's manifest"}),
)

GROUP_ALIASES = {name: name for name in GROUP_GETTERS}
GROUP_ALIASES.update({"honeypots": "num_honeypots", "hosts": "num_hosts", "agents": "agent"})


class ConfigError(Exception):
    """Unusable configuration or arguments; maps to exit status 1."""


# ---------------------------------------------------------------------------
# Config files and manifests


def parse_value(name: str, token: str, annotation: str):
    """One config, flag or environment token as a value of field ``name``'s
    annotation."""
    parse, _, description = FIELD_TYPES[annotation]
    token = token.strip()
    try:
        return parse(token)
    except ValueError:
        raise ConfigError(f"{name}: expected {description}, got {token!r}") from None


def read_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    entries: dict[str, str] = {}
    set_on: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = map(str.strip, line.partition("="))
        if key in set_on:
            raise ConfigError(f"{path}:{lineno}: {key} is set twice, on lines {set_on[key]} "
                              f"and {lineno}")
        set_on[key] = lineno
        entries[key] = value
    return entries


def default_timestamp() -> str | None:
    epoch = os.environ.get(TIMESTAMP_ENV_VAR)
    if epoch is None:
        return None
    from datetime import datetime, timezone  # loaded only when a timestamp is asked for

    try:
        moment = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    except (ValueError, OverflowError, OSError) as exc:
        raise ConfigError(f"{TIMESTAMP_ENV_VAR} must be a Unix timestamp, got {epoch!r}") from exc
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ")


def build_manifest(command: str, config, outputs: list[str],
                   timestamp: str | None, **extra) -> dict:
    return dict(command=command, config=config, outputs=outputs, timestamp=timestamp,
                version=__version__, **extra)


def _is_names(value) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


def load_manifest(path: str, command: str) -> dict:
    try:
        with open(path, encoding="utf-8-sig") as handle:
            manifest, _ = read_manifest(handle, path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read manifest from {path}: {exc}") from exc
    if manifest is None:
        raise ConfigError(f"{path}: no manifest line found")
    if manifest.get("command") != command:
        raise ConfigError(
            f"{path}: manifest was written by {manifest.get('command')!r}, expected {command!r}"
        )
    if manifest.get("version") != __version__:  # another version may write other records
        raise ConfigError(f"{path}: manifest was written by version "
                          f"{manifest.get('version')!r}, this is {__version__!r}")
    # What a replay reads besides the config's own fields. Only run may
    # have written no output.
    if not isinstance(manifest.get("timestamp"), (str, type(None))):
        raise ConfigError(f"{path}: the manifest's timestamp must be null or a string")
    outputs = manifest.get("outputs")
    if not _is_names(outputs) or (command != "run" and not outputs):
        raise ConfigError(f"{path}: the manifest's outputs must list the written paths")
    if "" in outputs:
        raise ConfigError(f"{path}: the manifest's outputs hold an empty path")
    if command == "aggregate":
        if not isinstance(manifest.get("records"), str) or not _is_names(manifest.get("group_by")):
            raise ConfigError(f"{path}: the manifest needs a records path and a group_by list")
        if not manifest["records"]:
            raise ConfigError(f"{path}: the manifest's records path is empty")
    elif not isinstance(manifest.get("config"), dict):
        raise ConfigError(f"{path}: the manifest's config must be a JSON object")
    return manifest


def sweep_config_to_dict(config: SweepConfig) -> dict:
    data = {key: list(getattr(config, name)) for key, name in LIST_KEYS.items()}
    data.update(repetitions=config.repetitions, master_seed=config.master_seed,
                fixed=dict(dataclasses.asdict(config.fixed), **_FIXED_NOT_MODELLED))
    return data


# ---------------------------------------------------------------------------
# Configuration resolution


def _split_entries(entries: dict[str, str], args):
    """Lay the given flags over the raw config entries, then parse each token
    by the annotation of the field it fills, into swept lists, fixed
    parameters and scalars."""
    flags = {key: value for flag, key, *_ in FLAGS
             if key and (value := getattr(args, flag[2:].replace("-", "_"), None)) is not None}
    lists: dict[str, tuple] = {}
    fixed: dict[str, object] = {}
    scalars: dict[str, int] = {}
    for key, raw in {**entries, **flags}.items():
        if key in NOT_MODELLED:
            # Parsed by the type of the one value the key accepts.
            name, accepted = NOT_MODELLED[key]
            annotation = "int | None" if accepted is None else type(accepted).__name__
            with contextlib.suppress(ValueError):
                if FIELD_TYPES[annotation][0](raw.strip()) == accepted:
                    continue
            raise ConfigError(f"{name}: not modelled, only {format_value(accepted)!r} is "
                              f"accepted, got {raw!r}")
        if key in LIST_KEYS:
            name = LIST_KEYS[key]
            lists[name] = tuple(
                parse_value(name, token, SWEPT_TYPES[name]) for token in raw.split(",")
            )
        elif key in FIXED_KEYS:
            spec = FIXED_KEYS[key]
            fixed[spec.name] = parse_value(spec.name, raw, spec.type)
        elif key in SCALAR_KEYS:
            scalars[key] = parse_value(key, raw, "int")
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return lists, fixed, scalars


def _checked(validating, *args):
    """``validating(*args)``, whose ValueError, a bad config value, exits 1."""
    try:
        return validating(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _sweep(lists: dict, fixed: dict, scalars: dict) -> SweepConfig:
    """The sweep, not yet validated, that parsed swept lists, fixed params and scalars make."""
    return SweepConfig(
        **lists,
        fixed=GeneratorParams(**fixed),
        **{key: scalars[key] for key in ("repetitions", "master_seed") if key in scalars},
    )


def resolve_sweep(entries: dict[str, str], args) -> tuple[SweepConfig, int | None]:
    lists, fixed, scalars = _split_entries(entries, args)
    return _sweep(lists, fixed, scalars), scalars.get("workers")


def resolve_single_episode(entries: dict[str, str], args) -> tuple[Cell, GeneratorParams, int, int]:
    return _episode(*_split_entries(entries, args), args.repetition or 0)


def _episode(lists: dict, fixed: dict, scalars: dict,
             repetition: int) -> tuple[Cell, GeneratorParams, int, int]:
    """A run's episode, from its flags or its manifest. A run is a one-cell
    sweep, at a repetition a sweep could play: every swept list holds one
    value, which defaults to GeneratorParams' own, except the agent, which
    is required."""
    for key in SWEEP_ONLY_KEYS:
        if key in scalars:
            raise ConfigError(f"{key}: only sweep takes this key; run plays one episode")
    if "agents" not in lists:
        raise ConfigError("agent: required (use --agent or the agents config key)")
    defaults = GeneratorParams()
    for name, cell_field in zip(SWEPT_TYPES, CELL_FIELDS):
        if name not in lists:
            lists[name] = (getattr(defaults, cell_field),)
        elif len(lists[name]) != 1:
            raise ConfigError(f"{name}: run takes a single value, got {len(lists[name])}")
    config = _sweep(lists, fixed, scalars)
    _checked(config.validate)
    if repetition < 0:
        raise ConfigError(f"repetition must be non-negative, got {repetition}")
    return config.cells()[0], config.fixed, config.master_seed, repetition


def available_cpus() -> int:
    """The CPUs this process may run on, or the machine's where the
    platform cannot say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_workers(flag_value: int | None, config_value: int | None) -> int:
    """The flag, else the config key, else the environment variable, else
    the available CPUs. An error names the source of the value."""
    source, value = ("--workers", flag_value) if flag_value is not None \
        else ("workers", config_value)
    if value is None:
        source, env = WORKERS_ENV_VAR, os.environ.get(WORKERS_ENV_VAR)
        value = available_cpus() if env is None else parse_value(source, env, "int")
    if value < 1:
        raise ConfigError(f"{source} must be a positive integer, got {value!r}")
    return value


def normalize_group_by(spec: str | list[str] | None) -> tuple[str, ...]:
    """The fields a ``--group-by`` string or a manifest's ``group_by`` list
    names, aliases resolved, each at most once."""
    if spec is None:
        return CELL_FIELDS
    fields = []
    for token in spec.split(",") if isinstance(spec, str) else spec:
        name = token.strip()
        if name not in GROUP_ALIASES:
            raise ConfigError(
                f"unknown group-by field {name!r}; expected one of: "
                + ", ".join(sorted(set(GROUP_ALIASES)))
            )
        if GROUP_ALIASES[name] in fields:
            raise ConfigError(f"group-by repeats the field {GROUP_ALIASES[name]!r}")
        fields.append(GROUP_ALIASES[name])
    if not fields:
        raise ConfigError("group-by needs at least one field")
    return tuple(fields)


# ---------------------------------------------------------------------------
# Output writing


def check_output_path(path: str, flag: str) -> None:
    """Exit 1 if ``path``, the value of ``flag``, is ``-``, a directory, or a
    file in a directory that is missing or not writable, before any record is
    read or episode simulated. A pipe or a device is written in place."""
    if path == "-":
        raise ConfigError(f"{flag} cannot be -: only aggregate --out takes - for standard output")
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path}: it is a directory")
    if os.path.exists(path) and not os.path.isfile(path):
        return
    directory = os.path.dirname(path) or "."
    if not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
        raise ConfigError(f"cannot write {path}: {directory} is not a writable directory")


def write_text(path: str, text) -> None:
    """Write ``text`` to ``path`` whole or not at all: a str, or a function
    that writes the text onto an open handle as it is made.

    The text goes to a new temporary file in the target's directory, which
    then replaces the target, so a failed or interrupted write leaves the
    old file or none. A symlinked path is resolved first: the target is
    replaced and the link kept. The file gets the mode ``open(path, "w")``
    gives it: an existing file keeps its own, a new one 0o666 under the
    umask. A pipe or a device, such as /dev/stdout, is written in place.
    """
    try:
        info = os.stat(path)
    except FileNotFoundError:
        info = None
    write = text if callable(text) else lambda handle: handle.write(text)
    if info is not None and not stat.S_ISREG(info.st_mode):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            write(handle)
        return
    directory, name = os.path.split(os.path.realpath(path))
    temporary = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    descriptor = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(descriptor, "w", encoding="utf-8", newline="") as handle:
            if info is not None:
                os.fchmod(descriptor, stat.S_IMODE(info.st_mode))
            write(handle)
        os.replace(temporary, os.path.join(directory, name))
    except BaseException:
        os.unlink(temporary)
        raise


# ---------------------------------------------------------------------------
# Subcommands


def run_config_dict(cell: Cell, fixed: GeneratorParams, master_seed: int,
                    repetition: int) -> dict:
    return dict(dataclasses.asdict(cell), master_seed=master_seed, repetition=repetition,
                fixed=dict(dataclasses.asdict(fixed), **_FIXED_NOT_MODELLED))


def config_from_manifest(command: str, data: dict):
    """The sweep, or the run's cell, fixed params, master seed and repetition,
    that a replayed manifest's config records, accepted only if its writer
    writes it back unchanged: no key is ignored or filled in. Of ``fixed``,
    only the modelled fields that are not swept are read."""
    fixed = data.get("fixed", {})
    if not isinstance(fixed, dict):
        raise ConfigError("manifest config is incomplete: fixed is not a JSON object")
    params = {spec.name: fixed[spec.name] for spec in FIXED_KEYS.values() if spec.name in fixed}
    try:
        if command == "sweep":
            for key in LIST_KEYS:
                if key in data and not isinstance(data[key], list):
                    raise ConfigError(f"manifest config key {key!r} is not a list")
            lists = {name: tuple(data[key]) for key, name in LIST_KEYS.items() if key in data}
            config = _sweep(lists, params, data)
            written = sweep_config_to_dict(config)
        else:
            written = run_config_dict(Cell(*map(data.get, CELL_FIELDS)), GeneratorParams(**params),
                                      data.get("master_seed"), data.get("repetition"))
    except TypeError as exc:
        raise ConfigError(f"manifest config is incomplete: {exc}") from exc
    _check_written_back(written, data)
    if command == "sweep":
        return config
    _checked(check_type, "repetition", data["repetition"], "int")
    lists = {name: (data[cell_field],) for name, cell_field in zip(SWEPT_TYPES, CELL_FIELDS)}
    return _episode(lists, params, {"master_seed": data["master_seed"]}, data["repetition"])


def _check_written_back(written: dict, data: dict, prefix: str = "") -> None:
    """Refuse ``data`` unless it is ``written``: first a key it lacks, then,
    in its own order, a key it adds or a value whose JSON text differs, which
    tells 0 from false and 1 from 1.0. Only ``fixed`` is compared key by key."""
    missing = [prefix + key for key in written if key not in data]
    if missing:
        raise ConfigError(f"manifest config is incomplete: it lacks {', '.join(missing)}")
    for key, value in data.items():
        if key not in written:
            raise ConfigError(f"unknown manifest config key {prefix + key!r}")
        if key == "fixed" and not prefix:
            _check_written_back(written[key], value, "fixed.")
        elif json.dumps(value) != json.dumps(written[key]):
            raise ConfigError(f"manifest config key {prefix + key!r} holds {json.dumps(value)}, "
                              f"which its replay would write as {json.dumps(written[key])}")


def _timestamp_and_output(manifest: dict | None, given: str | None,
                         default: str | None) -> tuple[str | None, str | None]:
    """The timestamp and path of a command's output: a replay's manifest's,
    else SOURCE_DATE_EPOCH's and ``default``. A path flag overrides either
    path. Only run may have no output."""
    if manifest is None:
        return default_timestamp(), default if given is None else given
    if given is None and manifest["outputs"]:
        given = manifest["outputs"][0]
    return manifest.get("timestamp"), given


def cmd_run(args, manifest: dict | None) -> int:
    if manifest is None:
        entries = read_config_file(args.config) if args.config else {}
        cell, fixed, master_seed, repetition = resolve_single_episode(entries, args)
    else:
        cell, fixed, master_seed, repetition = config_from_manifest("run", manifest["config"])
    timestamp, trace_path = _timestamp_and_output(manifest, args.trace, None)
    if trace_path:
        check_output_path(trace_path, "--trace")
    episode_seed = derive_episode_seed(master_seed, cell, repetition)
    scenario = generate_scenario(scenario_params(fixed, cell))
    trace_rows = []
    record = run_episode(
        scenario,
        cell.agent,
        episode_seed,
        repetition,
        trace_sink=(lambda *step: trace_rows.append(trace_record(*step))) if trace_path else None,
    )
    outputs = [trace_path] if trace_path else []
    manifest = build_manifest(
        "run", run_config_dict(cell, fixed, master_seed, repetition), outputs, timestamp
    )
    print(manifest_line(manifest))
    tokens = map(format_value, record)
    print(" ".join(f"{column}={token}" for column, token in zip(RECORD_COLUMNS, tokens)))
    if trace_path:
        write_text(trace_path, trace_jsonl_text(manifest, trace_rows))
    return 0


def cmd_sweep(args, manifest: dict | None) -> int:
    if manifest is None:
        entries = read_config_file(args.config) if args.config else {}
        config, config_workers = resolve_sweep(entries, args)
    else:
        config, config_workers = config_from_manifest("sweep", manifest["config"]), None
    timestamp, out_path = _timestamp_and_output(manifest, args.out, "records.csv")
    check_output_path(out_path, "--out")
    records = _checked(iter_sweep, config, resolve_workers(args.workers, config_workers))
    manifest = build_manifest("sweep", sweep_config_to_dict(config), [out_path], timestamp)
    with contextlib.closing(records):  # a failed write cancels the sweep, too
        write_text(out_path, lambda handle: write_records_csv(handle, manifest, records))
    print(f"wrote {len(config.cells()) * config.repetitions} episode records to {out_path}")
    return 0


def cmd_aggregate(args, manifest: dict | None) -> int:
    # A replay reads from its manifest the records and group_by the flags give.
    source = vars(args) if manifest is None else manifest
    records_path, group_by = source["records"], normalize_group_by(source["group_by"])
    timestamp, out_path = _timestamp_and_output(manifest, args.out, "-")
    if out_path != "-":
        check_output_path(out_path, "--out")
        if os.path.exists(out_path) and os.path.exists(records_path) \
                and os.path.samefile(out_path, records_path):
            raise ConfigError(f"cannot write {out_path}: it is the records file {records_path}")
    columns, source_manifest = read_records_csv(records_path, aggregate_fields(group_by))
    try:
        stats = aggregate(columns, group_by)
    except ValueError as exc:  # the records file holds none
        raise ConfigError(f"{records_path}: {exc}") from exc
    source_config = source_manifest.get("config") if source_manifest else None
    manifest = build_manifest(
        "aggregate",
        source_config,
        [out_path],
        timestamp,
        group_by=list(group_by),
        records=records_path,
    )
    text = aggregates_csv_text(manifest, group_by, stats)
    if out_path == "-":
        sys.stdout.write(text)
    else:
        write_text(out_path, text)
        print(f"wrote {len(stats)} aggregate rows to {out_path}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    # Usage problems must exit 1, not argparse's default 2.
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="deceptsim",
        description="Deception-defense sizing simulator: honeypots and address mutation "
        "against scripted attackers.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    parsers = {"deceptsim": parser}
    for name, text, func in (("run", "run a single episode", cmd_run),
                             ("sweep", "run the full parameter grid", cmd_sweep),
                             ("aggregate", "summarize a records file", cmd_aggregate)):
        parsers[name] = subparsers.add_parser(name, help=text)
        parsers[name].set_defaults(func=func)
    for flag, _, options, helps in FLAGS:
        for command, text in helps.items():
            parsers[command].add_argument(flag, help=text, **options)
    return parser


def _reject_flags_beside_manifest(args) -> None:
    """A replay takes its configuration from the manifest and reads only
    --out, --workers and --trace; any other flag given would be ignored."""
    read = ("command", "func", "from_manifest", "out", "workers", "trace")
    ignored = [
        "--" + name.replace("_", "-")
        for name, value in vars(args).items()
        if value is not None and name not in read
    ]
    if ignored:
        raise ConfigError(
            f"--from-manifest replays the manifest's configuration and would ignore "
            f"{', '.join(ignored)}"
        )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.from_manifest:
            _reject_flags_beside_manifest(args)
        elif args.func is cmd_aggregate and not args.records:
            raise ConfigError("aggregate needs --records or --from-manifest")
        manifest = load_manifest(args.from_manifest, args.command) if args.from_manifest else None
        return args.func(args, manifest)
    except (ConfigError, RecordsError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (ConfigError, RecordsError)) else 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
