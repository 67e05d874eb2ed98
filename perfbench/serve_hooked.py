"""``repro-mtv serve`` with the benchmark's layer wrappers installed.

Usage::

    python3 perfbench/serve_hooked.py SPANS_OUT [serve options...]

Times request keying and workload builds inside the server process, then
writes the spans as JSON lines to ``SPANS_OUT`` when the server exits
(on SIGINT, like an interactive ``serve``).
"""

from __future__ import annotations

import sys
import time

import repro.api.batch as batch
import repro.service.specs as specs
from repro.cli import serve_main
from spans import Tracer


def main(argv: list[str]) -> int:
    tracer = Tracer(clock=time.time)
    tracer.wrap(batch.SimulationRequest, "cache_key", "api")
    tracer.wrap(specs, "build_benchmark", "workloads")
    try:
        return serve_main(argv[1:])
    finally:
        tracer.unwrap_all()
        tracer.write(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
