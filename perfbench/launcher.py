"""Run one simcores CLI command under the span tracer.

Usage: python perfbench/launcher.py SPANS_JSON [simcores arguments...]

Installs the tracer's wrappers, calls `simcores.cli.main(argv)` and, once the
command has returned, writes the per-span totals to SPANS_JSON.  It exits
with the command's own exit code; stdout is the command's stdout.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import simcores.cli

    code = 1
    try:
        code = simcores.cli.main(argv)
    except SystemExit as exc:  # argparse exits on usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
