"""CLI for inspecting recorded observability artifacts.

Usage::

    python -m repro.obs validate trace.json     # Chrome schema check
    python -m repro.obs timeline trace.json     # ASCII timeline render

Both commands exit 1 if the trace violates the Chrome ``trace_event``
schema, printing the problems; CI runs ``validate`` against the
smoke-test trace.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.obs.trace import render_timeline, validate_chrome_trace


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Validate or render recorded obs traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser(
        "validate", help="check a trace against the Chrome trace-event schema"
    )
    validate.add_argument("trace", help="trace JSON path")

    timeline = sub.add_parser(
        "timeline", help="render a trace as an ASCII timeline"
    )
    timeline.add_argument("trace", help="trace JSON path")
    timeline.add_argument("--width", type=int, default=72)

    args = parser.parse_args(argv)
    if args.command == "timeline" and args.width < 1:
        parser.error("--width must be >= 1")

    try:
        with open(args.trace, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {args.trace}: {exc}", file=sys.stderr)
        return 2

    errors = validate_chrome_trace(doc)
    if errors:
        for line in errors[:20]:
            print(f"error: {line}", file=sys.stderr)
        if len(errors) > 20:
            print(f"error: ... {len(errors) - 20} more", file=sys.stderr)
        return 1

    if args.command == "validate":
        events = doc.get("traceEvents", [])
        tracks = sum(1 for e in events
                     if e.get("ph") == "M" and e.get("name") == "thread_name")
        print(f"{args.trace}: OK ({len(events)} events, {tracks} tracks)")
        return 0

    print(render_timeline(doc, width=args.width), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
