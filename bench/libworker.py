"""Library worker: one fresh interpreter that imports citeweight, builds
its seeded matrices and runs the library operation in a closed loop.

The parent spawns it and reads one JSON object from its stdout.  Matrix
generation is timed apart from the rest so the parent can leave it out of
set-up time.  Usage:

    python3 bench/libworker.py SRC N FIRST OPS

FIRST is the matrix id of the untimed first operation and OPS the
comma-separated matrix ids of the timed ones.  OPS may be empty, in which
case the worker stops after the first operation.
"""

import json
import sys
from time import perf_counter


def main(argv):
    src, n, first, ops = argv[1], int(argv[2]), int(argv[3]), argv[4]
    sys.path.insert(0, src)
    from citeweight import metrics, sensitivity

    imported_at = perf_counter()

    from checks import library_digest, library_op
    from inputs import library_matrix

    start = perf_counter()
    ops = [int(m) for m in ops.split(",") if m]
    matrices, input_digests = {}, {}
    for m in dict.fromkeys([first, *ops]):
        matrices[m], input_digests[m] = library_matrix(n, m)
    generate_s = perf_counter() - start

    def run(m):
        t0 = perf_counter()
        try:
            result = library_op(matrices[m], metrics, sensitivity)
        except Exception as exc:  # a failed operation is counted, not fatal
            return perf_counter() - t0, f"error: {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
        return elapsed, library_digest(result)

    first_op_s, first_digest = run(first)
    times, digests = [], []
    for m in ops:
        elapsed, digest = run(m)
        times.append(elapsed)
        digests.append(digest)
    payload = {
        "imported_at": imported_at,
        "generate_s": generate_s,
        "first_op_s": first_op_s,
        "first_digest": first_digest,
        "input_digests": {str(m): d for m, d in input_digests.items()},
        "times": times,
        "digests": digests,
    }
    sys.stdout.write(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
