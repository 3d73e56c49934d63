"""Run the microruin CLI in this process with per-layer tracing.

Usage: python perfbench/traced_cli.py SPANS_JSON -- CLI_ARGS...

Times the import of microruin.cli as an "import" span, runs cli.main under
a "cli" span with the layer functions wrapped, writes the spans to
SPANS_JSON and exits with the CLI's exit code.
"""

from __future__ import annotations

import importlib
import sys

import tracing


def main(argv) -> int:
    spans_path, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON -- CLI_ARGS...")
    tracer = tracing.Tracer()
    try:
        with tracer.span("import microruin.cli", "import"):
            cli = importlib.import_module("microruin.cli")
        main_fn = getattr(cli, "main", None)
        if main_fn is None:
            tracer.absent.add("microruin.cli.main")
            return 1
        tracer.install()
        with tracer.span("microruin.cli.main", "cli"):
            return main_fn(cli_argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
