"""Start one fleet member whose layers can be traced.

The traced serve-warm run starts each member through this launcher instead
of ``python -m repro serve``.  It calls the same daemon entry point, with
the same arguments, and arms ``SIGUSR1``: on that signal the member installs
the layer wrappers (timed in per-thread CPU time) and writes
``<trace-out>.on``.  When the member stops, its layer totals and the CPU
time it used since the signal are written to ``<trace-out>``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--ready-file", required=True)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args()
    out = Path(args.trace_out)
    tracer = Tracer(clock=time.thread_time)
    cpu_at_start = []

    def start_tracing(signum, frame) -> None:
        tracer.install()
        cpu_at_start.append(time.process_time())
        out.with_name(out.name + ".on").write_text("on\n", encoding="utf-8")

    signal.signal(signal.SIGUSR1, start_tracing)
    from repro.service import main_serve
    try:
        return main_serve(args.store, port=0, ready_file=args.ready_file,
                          fleet=True)
    finally:
        cpu_s = time.process_time() - cpu_at_start[0] if cpu_at_start \
            else 0.0
        out.write_text(json.dumps({"layers": tracer.totals(),
                                   "cpu_s": cpu_s}), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
