"""Run one salad CLI command in this process with the span tracer installed.

Usage: python3 perfbench/traced_cli.py SPANS.json -- <salad arguments>

The spans are written to SPANS.json when the command returns; the exit
code is the command's own.
"""

import sys

from tracer import Tracer


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS.json -- <salad arguments>")
    import salad
    import salad.checks
    import salad.cli
    import salad.runner
    import salad.workload

    tracer = Tracer()
    tracer.install()
    try:
        return salad.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
