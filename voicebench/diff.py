"""Compare two voicebench result files metric by metric.

Write result files with ``run.py --out``; a traced run (``--trace 1``)
gives the per-layer rows, an untraced run the end-to-end rows::

    python3 voicebench/diff.py before.json after.json

Each row shows both values, the relative change, and -- for metrics
``BENCHMARK.json`` declares -- whether the change is a regression beyond
the declared bound (end-to-end) or just a move in the worse direction
(per-layer, which has no bound).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declared() -> dict[str, dict]:
    """Metric name -> its BENCHMARK.json entry (empty when absent)."""
    if not BENCHMARK.exists():
        return {}
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def rows(before: dict, after: dict) -> list[str]:
    spec = declared()
    out = []
    for name in sorted(set(before["metrics"]) | set(after["metrics"])):
        old = before["metrics"].get(name, {}).get("value")
        new = after["metrics"].get(name, {}).get("value")
        if old is None or new is None:
            out.append(f"{name:<36} {old!s:>14} {new!s:>14}  (missing)")
            continue
        change = (new - old) / abs(old) if old else 0.0
        entry = spec.get(name, {})
        worse = (change > 0) == (entry.get("better") == "lower") \
            and change != 0
        flag = ""
        if worse and "bound" in entry:
            flag = "REGRESSION" if abs(change) > entry["bound"] else ""
        elif worse and entry:
            flag = "worse"
        out.append(f"{name:<36} {old:>14.4f} {new:>14.4f} "
                   f"{change:>+9.1%}  {flag}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    results = [json.loads(Path(p).read_text(encoding="utf-8"))
               for p in (args.before, args.after)]
    for key in ("workload", "trace", "rows"):
        values = {r["context"][key] for r in results}
        if len(values) > 1:
            print(f"warning: the files differ in {key}: {sorted(values)}")
    print("\n".join(rows(*results)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
