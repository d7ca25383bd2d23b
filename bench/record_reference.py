"""Rebuild bench/reference.json: cesarolab's verdict on every candidate
input of the workloads.

    python3 bench/record_reference.py

The benchmark reports a verdict that differs from this file without
contradicting ground truth as drift, not as a failure.
"""

import json
import os
import shutil
import sys

import run  # first: it limits the BLAS/OpenMP threads before numpy loads


def main():
    ref, failed = {}, 0
    out = run.ROOT / ".bench_out" / f"tmp-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        for name, wl in run.WORKLOADS.items():
            env, _ = run.setup(name, str(out))
            for op in wl.all_ops(str(out)):
                _, err, sig = run.run_op(env, op)
                if err:
                    failed += 1
                    print(f"FAILED {op.key}: {err}")
                elif sig is not None:
                    ref[op.key] = sig
    finally:
        shutil.rmtree(out, ignore_errors=True)
    with open(run.REFERENCE, "w") as fh:
        fh.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                    for k, v in sorted(ref.items()))
                 + "\n}\n")
    print(f"{len(ref)} verdicts recorded, {failed} operations failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
