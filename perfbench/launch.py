"""Traced start of the minkqm CLI.

    python perfbench/launch.py SUMMARY_PATH [cli arguments...]

Imports `minkqm.cli`, installs the tracer, runs `minkqm.cli.main` on the
arguments and writes the trace summary as JSON to SUMMARY_PATH (spans to
SUMMARY_PATH with `.spans` appended).  The exit code is main's.
"""

from __future__ import annotations

import json
import sys


def main(argv) -> int:
    summary_path, args = argv[0], argv[1:]
    import minkqm.cli
    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer)
    try:
        code = minkqm.cli.main(args)
    finally:
        sys.stdout.flush()
        with open(summary_path, "w") as fh:
            json.dump(tracer.summarize(), fh)
        tracer.dump_spans(summary_path + ".spans")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
