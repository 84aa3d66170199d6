"""Worker processes started by ``run.py``; each does one thing and exits.

    worker.py setup [--spans FILE]
        time ``import crglobal`` plus ``families.corpus("full")`` in this fresh
        interpreter and print the seconds (with --spans, trace it instead)
    worker.py cycle MANIFEST OUT [--spans FILE]
        run one cycle of items in-process, closed loop, and write per-item
        times, exit codes and captured output to OUT
    worker.py verify ITEM_ID --spans FILE
        one traced ``crglobal verify --profile full`` for the battery workload

The program is imported from ``src`` through PYTHONPATH, set by ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced(spans_path: str | None):
    if spans_path is None:
        return None
    from spans import Tracer, install

    tracer = Tracer()
    install(tracer)
    return tracer


def cmd_setup(args) -> int:
    if args.spans is None:
        start = time.perf_counter()
        from crglobal.families import corpus

        corpus("full")
        print(repr(time.perf_counter() - start))
        return 0
    tracer = traced(args.spans)
    from crglobal.families import corpus

    tracer.begin_item("setup")
    corpus("full")
    tracer.end_item()
    tracer.dump(args.spans)
    return 0


def run_item(cli, item: dict) -> dict:
    """Every CLI call of the item, timed together; an exception or an exit
    from argparse ends the item and is recorded, never raised."""
    rcs, outs, errs, error = [], [], [], None
    start = time.perf_counter()
    try:
        for argv in item["argv"]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 2
            rcs.append(rc)
            outs.append(out.getvalue())
            errs.append(err.getvalue())
    except Exception:  # the item fails; the cycle goes on
        error = traceback.format_exc(limit=4)
    seconds = time.perf_counter() - start
    return {"id": item["id"], "s": seconds, "rcs": rcs, "stdout": outs, "stderr": errs, "error": error}


def cmd_cycle(args) -> int:
    with open(args.manifest, "r", encoding="utf-8") as fh:
        items = json.load(fh)
    tracer = traced(args.spans)
    from crglobal import cli

    results = []
    for item in items:
        if tracer:
            tracer.begin_item(item["id"])
        results.append(run_item(cli, item))
        if tracer:
            tracer.end_item()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"items": results, "peak_rss_mb": peak_rss_mb()}, fh)
    if tracer:
        tracer.dump(args.spans)
    return 0


def cmd_verify(args) -> int:
    tracer = traced(args.spans)
    from crglobal import cli

    tracer.begin_item(args.item_id)
    try:
        rc = cli.main(["verify", "--profile", "full"])
    finally:
        tracer.end_item()
        tracer.dump(args.spans)
    return rc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--spans")
    p.set_defaults(func=cmd_setup)
    p = sub.add_parser("cycle")
    p.add_argument("manifest")
    p.add_argument("out")
    p.add_argument("--spans")
    p.set_defaults(func=cmd_cycle)
    p = sub.add_parser("verify")
    p.add_argument("item_id")
    p.add_argument("--spans", required=True)
    p.set_defaults(func=cmd_verify)
    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
