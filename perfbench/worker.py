"""One round of an in-process workload, in a fresh interpreter.

    python perfbench/worker.py WORKLOAD SEED TRACE SPANS_PATH

Generates the inputs from the seed, imports minkqm, optionally installs the
tracer, then times a cold pass (nothing computed yet in this interpreter)
and a warm pass (the same operations again, module caches filled).  A pass
time is the time spent inside the operations; outputs are checked outside
it.  Prints one JSON line on stdout.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import types

from workloads import WORKLOADS


def run_pass(ops) -> tuple[float, int, dict]:
    """(seconds spent inside the operations, failed count, outputs by key)."""
    clock = time.perf_counter
    elapsed, failed, outputs = 0.0, 0, {}
    for key, fn, args in ops:
        t0 = clock()
        try:
            outputs[key] = fn(*args)
        except Exception:  # a raising operation is a failed operation
            failed += 1
        finally:
            elapsed += clock() - t0
    return elapsed, failed, outputs


def main(argv) -> int:
    workload, seed, trace, spans_path = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    make_inputs, make_ops, check = WORKLOADS[workload]
    inputs = make_inputs(seed)
    import minkqm  # noqa: F401  (loads every engine module)

    mk = types.SimpleNamespace(**{m: importlib.import_module(f"minkqm.{m}") for m in
                                  ("contfrac", "minkowski", "farey", "moments",
                                   "quadrature", "conjecture")})
    tracer = None
    if trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    ops = make_ops(inputs, mk)
    result = {"attempted": 2 * len(ops), "failed": 0, "problems": []}
    for name in ("cold_s", "warm_s"):
        result[name], failed, outputs = run_pass(ops)
        result["failed"] += failed
        result["problems"] += check(inputs, outputs)[:10]
        del outputs  # checked; the next pass starts without them
    if tracer is not None:
        result["layers"] = tracer.summarize()
        tracer.dump_spans(spans_path)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
