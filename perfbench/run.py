"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload svm_steady --seed 42 --seconds 25 --trace 0

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
the per-layer metrics of a traced run, whose ``layers.json`` and Chrome
``trace.json`` land in ``perfbench/out/<workload>/``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs every workload,
each in its own process.  ``--record-digests`` rewrites
``perfbench/digests.json`` for the default and held-out seeds.

Run from a checkout that holds ``src/repro``; without it the command
fails with exit code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _table(rows) -> None:
    for name, (value, unit) in rows:
        print(f"  {name:<34} {value:>16.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from perfbench import bench
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=bench.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if args.record_digests:
        bench.record_digests()
        print(f"wrote {bench.DIGESTS}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        status = 0
        for name in WORKLOADS:
            print(f"== {name}", flush=True)
            status |= subprocess.run([
                sys.executable, __file__, "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ]).returncode
        return status

    workload = WORKLOADS[args.workload]
    print(f"{workload.name} (seed {args.seed}): {workload.why}")
    if args.trace:
        out_dir = ROOT / "perfbench" / "out" / workload.name
        report, _ = bench.measure_layers(workload, args.seed, out_dir)
        _table(report.metrics.items())
        print(f"  per-layer table and Chrome trace in {out_dir}")
    else:
        report, extras = bench.measure(workload, args.seed, args.seconds)
        _table(report.metrics.items())
        _table(extras.items())
    for problem in report.problems:
        print(f"  check failed: {problem}")
    print(report.line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
