"""Run ``cpmaps.cli.main`` with the span recorder installed.

Usage: ``python launch.py SPANS_FILE <cpmaps CLI arguments...>``.  The
spans are written to ``SPANS_FILE`` when the command returns; the exit code
is the CLI's own.
"""

import json
import sys

import spans


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import cpmaps.cli

    recorder = spans.Recorder()
    spans.install(recorder)
    try:
        with recorder.span("cli.main"):
            code = cpmaps.cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
