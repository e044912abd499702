"""Run one weldlab command with the benchmark's spans installed.

    python3 bench/launch.py OUT.json <weldlab arguments...>

Behaves like ``python -m weldlab.cli <arguments>`` (same stdout, stderr and
exit code) and writes the spans, counters and the import time of
``weldlab.cli`` to OUT.json when the command ends.
"""

import json
import sys
import time

import spans


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import weldlab.cli
    import_ms = (time.perf_counter() - t0) * 1e3
    tracer = spans.Tracer()
    tracer.samples["cli.import_ms"].append(import_ms)
    tracer.install(sys.modules["weldlab"])
    try:
        return weldlab.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"aggregates": tracer.aggregates(), "spans": tracer.spans,
                       "dropped": tracer.dropped}, fh)


if __name__ == "__main__":
    sys.exit(main())
