"""Run ``repro serve`` with the benchmark's layer wrappers installed.

Usage: ``python perfbench/serve_traced.py --spans-out PATH serve ...``
(the arguments after ``--spans-out PATH`` are passed to the ``repro``
CLI unchanged).  When the server has drained, the recorded spans and
every evaluator's counters are written to PATH as JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from layers import STAT_FIELDS, StatsRegistry, install_planning, install_service  # noqa: E402
from tracer import Recorder  # noqa: E402


def main(argv) -> int:
    if len(argv) < 2 or argv[0] != "--spans-out":
        print("usage: serve_traced.py --spans-out PATH serve [...]",
              file=sys.stderr)
        return 2
    out = Path(argv[1])
    from repro.cli import main as cli_main

    recorder = Recorder()
    registry = StatsRegistry()
    registry.install(recorder)
    install_planning(recorder)
    install_service(recorder)
    recorder.active = registry.active = True
    try:
        code = cli_main(argv[2:])
    finally:
        recorder.active = registry.active = False
        payload = {
            "spans": recorder.spans,
            "evaluators": [
                [created, {name: getattr(stats, name) for name in STAT_FIELDS}]
                for created, stats in registry.entries
            ],
        }
        out.write_text(json.dumps(payload))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
