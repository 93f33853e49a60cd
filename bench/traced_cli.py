"""Run the hh1lie CLI with every layer traced, then write the spans as JSON.

usage: python bench/traced_cli.py JOB_ID SPANS_FILE CLI_ARGS...

Stdout, stderr and the exit code are those of ``python -m hh1lie.cli
CLI_ARGS...``; the spans file is written however the CLI ends.
"""

import json
import sys

from tracer import Tracer, installed


def main() -> int:
    job, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from hh1lie import cli

    recorder = Tracer(job)
    try:
        with installed(recorder):
            return cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
