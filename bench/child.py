"""One measured process of the deceptsim benchmark.

    python3 child.py SRC_DIR setup ARGV_JSON   # import the CLI, parse the command
    python3 child.py SRC_DIR run ARGV_JSON     # time one CLI command
    python3 child.py SRC_DIR trace ARGV_JSON   # the same, with per-layer tracing

``setup`` imports the CLI, parses the command's arguments and resolves them
as the command would before its work starts (``resolve_sweep`` for a sweep,
``normalize_group_by`` for an aggregate).  It prints when ``main`` was
entered, when that work ended, and the work's seconds at the reference
machine speed (``speed.SpeedProbe``); the parent times the rest of the
process's life.

``run`` and ``trace`` time ``deceptsim.cli.main(ARGV)`` from the call until
it returns and print, as the last line of standard output, a JSON object
with the exit code, the seconds, this process's peak resident memory and,
for ``run``, the seconds at the reference machine speed or, for ``trace``,
the trace.  The CLI's own output is kept off standard output.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def import_cli(src: str):
    """``deceptsim.cli``, imported from the sources under ``src`` and from
    nowhere else."""
    sys.path.insert(0, src)
    from deceptsim import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.join(os.path.abspath(src), "")):
        raise SystemExit(f"deceptsim was imported from {cli.__file__}, not from {src}")
    return cli


def setup(src: str, argv: list[str], entered: float) -> None:
    from speed import SpeedProbe

    with SpeedProbe() as probe:
        start = time.perf_counter()
        cli = import_cli(src)
        args = cli.build_parser().parse_args(argv)
        if args.command == "sweep":
            cli.resolve_sweep({}, args)
        else:
            cli.normalize_group_by(args.group_by)
        end = time.perf_counter()
    print(json.dumps({"entered": entered, "left": end,
                      "reference_seconds": probe.reference_seconds(start, end)}))


def main() -> int:
    entered = time.perf_counter()
    src, mode, argv = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
    if mode == "setup":
        setup(src, argv, entered)
        return 0
    cli = import_cli(src)
    tracer = None
    if mode == "trace":
        from layers import Tracer

        tracer = Tracer().install()
        probe = contextlib.nullcontext()
    else:
        from speed import SpeedProbe

        probe = SpeedProbe()
    with contextlib.redirect_stdout(io.StringIO()), probe:
        start = time.perf_counter()
        code = cli.main(argv)
        end = time.perf_counter()
    result = {
        "rc": code,
        "seconds": end - start,
        "reference_seconds": probe.reference_seconds(start, end) if tracer is None else None,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.report() if tracer else None,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
