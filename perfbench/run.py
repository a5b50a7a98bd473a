"""Run one stemsep benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train_reduced --seed 1 --seconds 50 --trace 0

Run from a checkout of the repository: stemsep is imported from its
``src/`` directory. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it give every metric with its unit and how it was counted,
and the machine fingerprint. ``--trace 1`` reports the per-layer metrics
instead of the end-to-end ones and writes the spans under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train_reduced", "separate_long")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "stemsep" / "__init__.py").is_file():
        print(f"perfbench: no stemsep sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("\n".join(format_result(result)))
    return 0


def format_result(result) -> list:
    """One line per metric with its unit and how it was counted (the JSON
    line's metrics first, then table-only ones), the machine fingerprint,
    and the JSON result line."""
    rows = {**result.metrics, **result.extra}
    lines = [f"  {name:<32} {value:>14.6g} {unit:<8} {result.notes.get(name, '')}".rstrip()
             for name, (value, unit) in rows.items()]
    lines.append("machine " + json.dumps(result.fingerprint, sort_keys=True))
    lines.append(json.dumps(result.line()))
    return lines


if __name__ == "__main__":
    sys.exit(main())
