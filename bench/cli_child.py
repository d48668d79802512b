"""Run one ``uschub`` command with the per-layer tracer installed.

    python3 bench/cli_child.py <uschub arguments...>

The traced ``cli`` run starts this instead of ``python -m uschub.cli``.  The
command's stdout and exit code are unchanged; after it returns, the per-layer
aggregate is written to stderr as one JSON line prefixed by ``#bench-trace``.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import TRACE_PREFIX, Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    from uschub import cli

    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
    sys.stdout.flush()
    print(TRACE_PREFIX + json.dumps(tracer.aggregate()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
