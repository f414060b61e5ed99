"""Benchmark entry point.

    python3 perfbench/run.py --workload ishm-syn-a --seed 1 --seconds 20 \
        --trace 0

Runs one workload for ``--seconds`` seconds from the root of a checkout
and prints, as its last stdout line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` makes a separate traced run
and reports the per-layer ledger (see ``perfbench/README.md``), prints
the layer tree and writes every span to ``perfbench/out/``.  The line
before the result holds the run's metadata.  The exit status is 0 only
when every operation was correct.
"""

from __future__ import annotations

import argparse
import json
import sys

import common

WORKLOADS = ("ishm-syn-a", "ishm-emr", "serve-drift")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="'tiny' shrinks every workload for the harness self-tests",
    )
    args = parser.parse_args(argv)
    common.use_source_tree()
    trace = bool(args.trace)
    meta = common.metadata(args.workload, args.seed, args.seconds, trace)
    calibration = [common.calibrate()]

    if args.workload == "serve-drift":
        import serve_workload

        out = serve_workload.run(args.seed, args.seconds, trace, args.size)
    else:
        import solve_workloads

        out = solve_workloads.run(
            args.workload, args.seed, args.seconds, trace, args.size
        )

    recorder = out.pop("recorder", None)
    if recorder is not None:
        common.OUT_DIR.mkdir(exist_ok=True)
        path = common.OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl"
        recorder.write(str(path))
        out["tree"] = recorder.layer_tree()
    if "tree" in out:
        print(f"layer tree ({args.workload}; spans in {common.OUT_DIR}):")
        print(out.pop("tree"))
    calibration.append(common.calibrate())
    meta["calibration_s"] = calibration
    meta.update(out.pop("meta", {}))
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": out["failed"] == 0,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in out["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
