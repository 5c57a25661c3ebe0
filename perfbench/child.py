"""Run one zqlab command line in this process and report its timings.

    python3 child.py RESULT_FILE [--trace] -- <zqlab arguments>

The parent records the spawn time.  This process imports zqlab, parses
the op's config as the command will (the end of set-up), optionally
installs the tracing wrappers, runs `zqlab.cli.main` and writes a JSON
result: the time set-up ended, the time the command returned, the index
table cache statistics and, when traced, every span.  Timestamps come
from time.monotonic(), which is one system-wide clock on Linux, so the
parent can set them against its own.  The exit code is the command's.
"""

from __future__ import annotations

import json
import sys
import time


def _parse_config(argv: list) -> None:
    """Parse the op's config the way its subcommand will."""
    from zqlab import harness
    from zqlab.errors import Error
    from zqlab.subsets import ConstructionSpec

    path = argv[argv.index("--config") + 1]
    try:
        with open(path) as fh:
            cfg = json.load(fh)
        if argv[0] == "verify":
            harness.ExperimentConfig.from_dict(cfg)
        elif argv[0] == "corr":
            ConstructionSpec.from_json(cfg)
        elif argv[0] == "sweep":
            harness.ExperimentConfig.from_dict(cfg["base"])
    except (Error, OSError, ValueError, KeyError, TypeError):
        pass  # the command reports bad configs itself


def main() -> int:
    result_path = sys.argv[1]
    split = sys.argv.index("--")
    traced = "--trace" in sys.argv[2:split]
    argv = sys.argv[split + 1 :]

    import zqlab.cli
    from zqlab import numtheory

    index_cache = numtheory.build_index_table  # before any wrapper
    _parse_config(argv)
    ready = time.monotonic()
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    code = 1
    try:
        if tracer is not None:
            code = tracer.call("cli", {"command": argv[0]}, zqlab.cli.main, argv)
        else:
            code = zqlab.cli.main(argv)
    finally:
        end = time.monotonic()
        record = {
            "ready": ready,
            "end": end,
            "zqlab_file": zqlab.__file__,
            "index_table_cache": index_cache.cache_info()._asdict(),
            "spans": tracer.spans if tracer is not None else None,
        }
        with open(result_path, "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
