"""Set-up time in a fresh interpreter: import ``mjones.cli`` and complete one
op of the workload (``words.cold_start_op``), lazy caches included.

    python3 perfbench/coldstart.py SRC_DIR WORKLOAD SEED

Prints one JSON line with ``import_s``, ``setup_s``, ``reference_s`` (the
fastest of three runs, after the op, of the workload's reference job in
``reference.py``), the
op's exit code and its captured output; ``run.py`` checks the output, scales
``setup_s`` and takes the median.
"""

import contextlib
import io
import json
import sys
import time

import words


def main(src: str, workload: str, seed: int) -> None:
    op = words.cold_start_op(workload, seed)
    out = io.StringIO()
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import mjones.cli
    t1 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = mjones.cli.main(list(op.argv))
    t2 = time.perf_counter()
    import reference   # after the timer: it imports numpy

    job = reference.JOBS[words.WORKLOADS[workload].reference]
    ref = min(job() for _ in range(3))
    print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0, "reference_s": ref,
                      "code": code, "out": out.getvalue()}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], int(sys.argv[3]))
