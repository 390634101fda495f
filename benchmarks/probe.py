"""Measure set-up time in a fresh process.

Usage: ``python3 benchmarks/probe.py REQUEST.json`` (written by ``run.py``).

Times importing ``minkdev`` and ``minkdev.cli`` plus serving one warm-up
request through its entry point, so lazy imports and first-use costs land
here and not in request latency.  The request was generated by the parent,
so the benchmark's own random generation is not timed.  Prints the seconds
on the last line of standard output.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    request = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, str(HERE.parent / "src"))
    start = time.perf_counter()
    import minkdev  # noqa: F401
    import minkdev.cli  # noqa: F401
    import workloads

    workloads.bind(request["payload"], request["argv"])()
    print(time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
