"""Run one CLI command in this process with layer spans recorded.

Usage: ``python perfbench/cli_shim.py OUT.json CLI-ARGS...``

The traced ``cli_session`` launches this instead of ``python -m
frolicher.cli``.  It times ``import frolicher.cli``, installs the span
wrappers, calls ``frolicher.cli.main`` with the remaining arguments, writes
the per-layer sums and the spans to ``OUT.json`` and exits with the CLI's
exit code.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0] = ROOT
sys.path.insert(1, os.path.join(ROOT, "src"))

from perfbench import tracing  # noqa: E402


def main(out_path, argv):
    start = time.perf_counter()
    import frolicher.cli
    import_s = time.perf_counter() - start
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.operation(0):
            code = frolicher.cli.main(argv)
    finally:
        tracer.uninstall()
        raw = tracing.summarize(tracer.spans)
        raw["cli.import_s"] = import_s
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"raw": raw, "spans": tracer.spans,
                       "missing": tracer.missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
