"""Traced model server: ``repro serve`` itself, with span recording.

Usage: ``python perfbench/serve_launcher.py MODEL.npz SPANS.json``

Installs the serve-layer wrappers, then runs the CLI's own entry point,
``python -m repro serve MODEL --port 0`` with its defaults, in this
process, so the traced server is the untraced one by construction. When
the server has drained on SIGTERM it writes the recorded spans to
``SPANS.json``.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from layers import install_serve_layers  # noqa: E402
from tracer import Tracer  # noqa: E402


def main(argv) -> int:
    model_path, spans_path = argv
    from repro.__main__ import main as cli

    tracer = Tracer(clock=time.monotonic)
    install_serve_layers(tracer)
    try:
        return cli(["serve", model_path, "--port", "0"])
    finally:
        tracer.unpatch()
        with open(spans_path, "w") as handle:
            json.dump({"spans": [list(span) for span in tracer.spans]}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
