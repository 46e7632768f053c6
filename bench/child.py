"""One bellsim CLI run in a fresh interpreter, timed from the inside.

Usage: ``python3 child.py CONFIG OUTDIR RESULT [--trace SPANS RUN_ID]``
with ``src`` on ``PYTHONPATH``.  Writes a JSON result file with the set-up
time (``import bellsim.cli`` plus ``parse_config``), the wall time of
``bellsim.cli.main`` from entry until every artifact is written, the time of
the reference load (``reference.py``) just before and just after it, its exit
code, the process's peak RSS and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list) -> int:
    config, outdir, result_path = argv[:3]
    traced = argv[3:4] == ["--trace"]
    text = Path(config).read_text(encoding="utf-8")

    t0 = time.perf_counter()
    import bellsim.cli
    from bellsim.config import parse_config

    parse_config(text)
    setup_s = time.perf_counter() - t0

    import reference

    restore = tracer = None
    if traced:
        import spans

        tracer = spans.Tracer(argv[5])
        restore = spans.instrument(tracer)
    ref_before_s = reference.reference_s()
    try:
        t1, c1 = time.perf_counter(), time.process_time()
        code = bellsim.cli.main([config, "-o", outdir])
        wall_s, cpu_s = time.perf_counter() - t1, time.process_time() - c1
    finally:
        if restore is not None:
            restore()
    ref_after_s = reference.reference_s()

    import numpy

    result = {
        "exit_code": code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "ref_s": (ref_before_s + ref_after_s) / 2.0,
        "ref_drift": ref_after_s / ref_before_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
        tracer.write(argv[4])
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
