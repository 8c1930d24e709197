"""Every metric of every workload, and a non-zero exit on any failed operation.

    python3 perfbench/check.py [--seed 9100] [--seconds 42] [--workload NAME ...]

For each workload, runs the untraced run and then the traced run of
``run.py`` and prints each end-to-end and per-layer metric as
``workload metric value unit``, followed by the tracing overhead
(traced minus untraced ``localize_s``).  Exits 1 when any operation
failed its correctness check, 2 when the benchmark cannot run at all.
The registered seed is 9100, at which every experiment localizes.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=9100)
    parser.add_argument("--seconds", type=float, default=42)
    parser.add_argument(
        "--workload", action="append", choices=sorted(run.NOMINAL_CYCLE_S)
    )
    args = parser.parse_args(argv)
    failed = 0
    for workload in args.workload or sorted(run.NOMINAL_CYCLE_S):
        docs = []
        for trace in (False, True):
            try:
                doc = run.run(workload, args.seed, args.seconds, trace)
            except run.BenchError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            docs.append(doc)
            result = doc["result"]
            failed += result["failed"]
            for row in doc["rows"]:
                if not row["ok"]:
                    print(f"{workload} FAILED {row['experiment']}: {row['why']}")
            for name, entry in result["metrics"].items():
                print(f"{workload} {name} {entry['value']:.6g} {entry['unit']}")
        untraced, traced = (d["result"]["metrics"] for d in docs)
        if "localize_s" in untraced and "trace.localize_s" in traced:
            overhead = traced["trace.localize_s"]["value"] - untraced["localize_s"]["value"]
            print(f"{workload} trace.overhead_s {overhead:.6g} s")
        print(f"{workload} stamp {json.dumps(docs[0]['stamp'], sort_keys=True)}")
    print("correct" if not failed else f"{failed} operation(s) failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
