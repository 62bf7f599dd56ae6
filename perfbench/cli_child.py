"""Run one coringlab CLI command under the layer tracer.

    python3 perfbench/cli_child.py <metrics.json> <cli arguments...>

Stdout and the exit code are the command's own.  The tracer's counters,
timers and spans go to <metrics.json>, with `cli.import_s`, the time of a
cold `import coringlab.cli`.
"""

import json
import sys
import time

t0 = time.perf_counter()
import coringlab.cli  # noqa: E402

import_s = time.perf_counter() - t0

from tracer import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
try:
    code = coringlab.cli.main(sys.argv[2:])
finally:
    tracer.uninstall()
    metrics = tracer.snapshot()
    metrics["cli.import_s"] = import_s
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, "spans": tracer.spans}, fh)
sys.exit(code)
