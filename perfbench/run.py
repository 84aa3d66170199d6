"""The crglobal benchmark: three seeded, closed-loop workloads with one client.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from anywhere; it works on the checkout it sits in, builds nothing,
and reads and writes only inside that checkout (``.perfbench_work/``).

Workloads (``workloads.json`` has the item definitions and the baseline):

* ``battery``: an item is one ``python -m crglobal.cli verify --profile
  full`` in a fresh interpreter, so every cache starts cold.
* ``transfer``: an item is one in-process ``cli.main(["globaliso", A, B,
  "--max-order", "6", "--emit-eta", F])``; three items in four are a corpus
  member of order 4 to 6 against a relabelled copy, the rest are
  non-isomorphic pairs of one order.
* ``breakable-scan``: an item is ``cli.main(["analyze", T])`` then
  ``cli.main(["breakable", T])`` on a relabelled order 8 to 12 table; each
  family runs as S and then as S^op.

The in-process workloads run in cycles, one pass over their pool per cycle,
each cycle in a fresh worker process; new cycles start until ``--seconds``
have passed, so a run measures at least that long and always whole passes.
All outputs are checked by ``oracles.py`` after the timed part.

With ``--trace 0`` the last line carries the end-to-end metrics.  With
``--trace 1`` the run measures the same items twice, first untraced for
half of ``--seconds`` and then traced, and the last line carries the
per-layer metrics and the tracing overhead.  Either way the lines before it
are a readable report; ``item_s.p90`` and ``fail_ratio`` appear only there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import oracles
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKER = HERE / "worker.py"
WORKLOADS = ("battery", "transfer", "breakable-scan")
SETUP_RUNS = 15
RUN_LIMIT_S = 165.0  # measuring stops by then, leaving the checks time to end before 180 s
P90_TAIL = 10  # samples that must lie above the 90th percentile to report it

# layers every workload calls; their seconds per item go on the last line of
# a traced run.  Every layer also gets its share of item time there, which is
# 0 on a workload that never calls it; the printed report has all seconds.
TIMED_EVERYWHERE = (
    "core.validate_table",
    "core.green_relations",
    "core.natural_order",
    "structure.decompose",
    "breakable.enumerate_a3_masks",
    "breakable.enumerate_a2_masks",
    "breakable.enumerate_a2bar_masks",
)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("CRGLOBAL_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(cmd: list[str], out_path: Path, deadline: float) -> tuple[int, float, float]:
    """Run ``cmd`` to completion with stdout to ``out_path``; return its exit
    code, wall seconds and peak RSS in MB from its own rusage."""
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


def measure_setup(work: Path, deadline: float, trace: bool) -> dict:
    """Fresh interpreters importing crglobal and building the full corpus.
    One untimed run first compiles the bytecode of a fresh checkout."""
    times, traced = [], []
    runs = 1 if trace else SETUP_RUNS
    for k in range(runs + 1):
        cmd = [sys.executable, str(WORKER), "setup"]
        spans_path = work / f"setup{k}.spans.json"
        if trace:
            cmd += ["--spans", str(spans_path)]
        rc, _, _ = spawn(cmd, work / f"setup{k}.out", deadline)
        if rc != 0:
            raise RuntimeError(f"set-up run failed with exit code {rc}: {(work / f'setup{k}.err').read_text()[-500:]}")
        if k == 0:
            continue
        if trace:
            spans.merge(traced, _load(spans_path))
        else:
            times.append(float((work / f"setup{k}.out").read_text()))
    return {"times": times, "spans": traced}


def _load(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _go_on(done: int, count: int | None, start: float, budget: float) -> bool:
    """``count`` units when it is given, else at least one and more until
    ``budget`` seconds have passed since ``start``."""
    if count is not None:
        return done < count
    return done == 0 or time.perf_counter() - start < budget


# -- workloads ------------------------------------------------------------------


def run_battery(work: Path, budget: float, count: int | None, trace: bool, deadline: float) -> dict:
    items, span_list = [], []
    start = time.perf_counter()
    i = 0
    while _go_on(i, count, start, budget):
        item_id = f"v{i:03d}"
        spans_path = work / f"{item_id}.spans.json"
        if trace:
            cmd = [sys.executable, str(WORKER), "verify", item_id, "--spans", str(spans_path)]
        else:
            cmd = [sys.executable, "-m", "crglobal.cli", "verify", "--profile", "full"]
        rc, seconds, rss = spawn(cmd, work / f"{item_id}.out", deadline)
        items.append({"id": item_id, "s": seconds, "rc": rc, "rss": rss, "out": str(work / f"{item_id}.out")})
        if trace and spans_path.exists():
            spans.merge(span_list, _load(spans_path))
        i += 1
        if time.perf_counter() > deadline:
            break
    return {"items": items, "peaks": [it["rss"] for it in items], "spans": span_list, "units": i}


def item_argv(workload: str, item: dict, cdir: Path) -> list[list[str]]:
    files = []
    for side, table in zip("ab", item["tables"]):
        path = cdir / f"{item['id']}-{side}.json"
        path.write_text(json.dumps({"order": len(table), "table": table}) + "\n", encoding="utf-8")
        files.append(str(path.relative_to(ROOT)))
    if workload == "transfer":
        item["eta"] = str((cdir / f"{item['id']}-eta.json").relative_to(ROOT))
        return [["globaliso", files[0], files[1], "--max-order", "6", "--emit-eta", item["eta"]]]
    return [["analyze", files[0]], ["breakable", files[0]]]


def run_cycles(workload: str, seed: int, work: Path, budget: float, count: int | None, trace: bool, deadline: float) -> dict:
    pools = gen.load_pools()
    items, peaks, span_list = [], [], []
    start = time.perf_counter()
    c = 0
    while _go_on(c, count, start, budget):
        cdir = work / f"c{c}"
        cdir.mkdir()
        cycle = gen.cycle_items(workload, pools, seed, c)
        for item in cycle:
            item["argv"] = item_argv(workload, item, cdir)
        manifest = cdir / "manifest.json"
        manifest.write_text(json.dumps([{k: v for k, v in it.items() if k != "tables"} for it in cycle], indent=1), encoding="utf-8")
        out = cdir / "results.json"
        cmd = [sys.executable, str(WORKER), "cycle", str(manifest), str(out)]
        if trace:
            cmd += ["--spans", str(cdir / "spans.json")]
        rc, _, _ = spawn(cmd, cdir / "worker.out", deadline)
        doc = _load(out) if rc == 0 and out.exists() else None
        by_id = {r["id"]: r for r in doc["items"]} if doc else {}
        for item in cycle:
            item["result"] = by_id.get(item["id"])
            item["s"] = item["result"]["s"] if item["result"] else None
            items.append(item)
        if doc:
            peaks.append(doc["peak_rss_mb"])
            if trace:
                spans.merge(span_list, _load(cdir / "spans.json"))
        c += 1
        if time.perf_counter() > deadline:
            break
    return {"items": items, "peaks": peaks, "spans": span_list, "units": c}


def run_workload(workload: str, seed: int, work: Path, budget: float, count: int | None, trace: bool, deadline: float) -> dict:
    work.mkdir(parents=True)
    if workload == "battery":
        return run_battery(work, budget, count, trace, deadline)
    return run_cycles(workload, seed, work, budget, count, trace, deadline)


# -- correctness ----------------------------------------------------------------


def check_items(workload: str, runs: list[dict]) -> list[tuple[str, str]]:
    """(item id, reason) for every item whose output is wrong or missing.
    All ``verify`` outputs of one run, traced or not, must be identical."""
    failures = []
    state: dict = {}
    for run in runs:
        for item in run["items"]:
            problem = _check(workload, item, state)
            if problem:
                failures.append((item["id"], problem))
    return failures


def _check(workload: str, item: dict, state: dict) -> str | None:
    if workload == "battery":
        stdout = Path(item["out"]).read_text(encoding="utf-8")
        problem, digest = oracles.check_battery(item["rc"], stdout, state.get("digest"))
        state.setdefault("digest", digest)
        return problem
    res = item["result"]
    if res is None:
        return "no result from the worker"
    if res["error"]:
        return "exception: " + res["error"].strip().splitlines()[-1]
    if workload == "transfer":
        eta = ROOT / item["eta"]
        eta_text = eta.read_text(encoding="utf-8") if eta.exists() else None
        expected = oracles.isomorphic(*item["tables"])
        return oracles.check_transfer(item, res["rcs"][0], eta_text, expected)
    counts = oracles.closure_counts(item["tables"][0])
    return oracles.check_breakable(item, res["rcs"], res["stdout"][0], res["stdout"][1], counts)


# -- metrics --------------------------------------------------------------------


def item_times(run: dict) -> list[float]:
    return [it["s"] for it in run["items"] if it["s"] is not None]


def end_to_end(run: dict, setup: dict) -> dict:
    times = item_times(run)
    return {
        "setup_s": (statistics.median(setup["times"]), "s"),
        "item_s.p50": (statistics.median(times), "s"),
        "items_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (statistics.median(run["peaks"]), "MB"),
    }


def p90(times: list[float]) -> float | None:
    """The 90th percentile, or None when fewer than P90_TAIL samples lie above it."""
    if len(times) * 0.1 < P90_TAIL:
        return None
    return statistics.quantiles(times, n=10, method="inclusive")[8]


def per_layer(run: dict, setup: dict, untraced: dict) -> tuple[dict, dict]:
    """Per-layer figures from the traced run, per item; also the full table
    of every traced name for the report."""
    agg = spans.aggregate(run["spans"])
    n = len(item_times(run))
    total = sum(item_times(run))
    rows = {name: row for name, row in agg.items() if name != spans.ITEM}
    item_row = agg.get(spans.ITEM, {"counters": {}})
    setup_agg = spans.aggregate(setup["spans"])

    def row(name):
        return rows.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "counters": {}})

    metrics = {}
    for name in spans.LAYERS:
        r = row(name)
        metrics[f"{name}.calls"] = (r["calls"] / n, "count/item")
        metrics[f"{name}.share"] = (r["s"] / total, "ratio")
        metrics[f"{name}.self_share"] = (r["self_s"] / total, "ratio")
        if name in TIMED_EVERYWHERE:
            metrics[f"{name}.s"] = (r["s"] / n, "s")
            metrics[f"{name}.self_s"] = (r["self_s"] / n, "s")
    search = row("globaldet.find_isomorphisms.subsets")
    metrics["globaldet.find_isomorphisms.subsets.maps"] = (search["counters"].get("maps", 0) / n, "count/item")
    metrics["globaldet.find_isomorphisms.subsets.exhausted"] = (search["counters"].get("exhausted", 0) / n, "count/item")
    metrics["globaldet.verify_statement_suite.instances"] = (row("globaldet.verify_statement_suite")["counters"].get("instances", 0) / n, "count/item")
    metrics["verify.records"] = (row("verify.run_all")["counters"].get("records", 0) / n, "count/item")
    metrics["breakable.a3_subsets"] = (row("breakable.enumerate_a3_masks")["counters"].get("subsets", 0) / n, "count/item")
    pm_calls = item_row["counters"].get("product_mask.calls", 0)
    pm_keys = item_row["counters"].get("product_mask.keys", 0)
    metrics["power.Power.product_mask.calls"] = (pm_calls / n, "count/item")
    metrics["power.product_mask.hit_ratio"] = (1 - pm_keys / pm_calls if pm_calls else 0.0, "ratio")
    corpus = setup_agg.get("families.corpus", {"s": 0.0, "calls": 1})
    metrics["families.corpus.s"] = (corpus["s"] / max(corpus["calls"], 1), "s")
    layer_self = sum(r["self_s"] for r in rows.values())
    metrics["trace.residual_share"] = ((total - layer_self) / total, "ratio")
    traced_rate = n / total
    untraced_rate = len(item_times(untraced)) / sum(item_times(untraced))
    metrics["trace.overhead_items_per_s"] = (traced_rate - untraced_rate, "1/s")
    return metrics, {"rows": rows, "n": n, "total": total, "layer_self": layer_self, "traced_rate": traced_rate, "untraced_rate": untraced_rate}


# -- report ---------------------------------------------------------------------


def report_end_to_end(workload: str, run: dict, metrics: dict, failures: list, setup: dict) -> None:
    times = item_times(run)
    attempted = len(run["items"])
    unit = "verify processes" if workload == "battery" else "cycles (worker processes)"
    print(f"workload {workload}: {attempted} items in {run['units']} {unit}, closed loop, one client")
    print("end-to-end, tracing off:")
    notes = {
        "setup_s": f"median of {len(setup['times'])} fresh interpreters",
        "item_s.p50": f"median of {len(times)} items",
        "items_per_s": f"over {sum(times):.2f} s of item time",
        "peak_rss_mb": f"median over {len(run['peaks'])} {'verify' if workload == 'battery' else 'worker'} processes",
    }
    for name, (value, unit_name) in metrics.items():
        print(f"  {name:<14} {value:>12.6g} {unit_name:<4} {notes[name]}")
    tail = p90(times)
    if tail is None:
        print(f"  {'item_s.p90':<14} {'omitted':>12}      {len(times)} items, at least {P90_TAIL * 10} needed")
    else:
        print(f"  {'item_s.p90':<14} {tail:>12.6g} s    {len(times)} items, {sum(1 for t in times if t > tail)} above it")
    print(f"  {'fail_ratio':<14} {len(failures) / attempted:>12.6g}      {len(failures)} of {attempted} items")
    for item_id, reason in failures[:10]:
        print(f"    FAIL {item_id}: {reason}")
    if workload == "breakable-scan":
        report_duals(run)


def report_duals(run: dict) -> None:
    """S and S^op of each family side by side, median seconds over cycles."""
    by = {}
    for it in run["items"]:
        if it["s"] is not None:
            by.setdefault((it["family"], it["order"]), ([], []))[1 if it["dual"] else 0].append(it["s"])
    print("  S against S^op, median seconds per item:")
    print(f"    {'family':<26} {'order':>5} {'S':>9} {'S^op':>9} {'S^op/S':>7}")
    for (family, order), (plain, opp) in sorted(by.items(), key=lambda kv: kv[0][1]):
        a, b = statistics.median(plain), statistics.median(opp)
        print(f"    {family:<26} {order:>5} {a:>9.4f} {b:>9.4f} {b / a:>7.2f}")


SPLIT = {
    "power-table search": ["globaldet.find_isomorphisms.subsets"],
    "element search": ["globaldet.find_isomorphisms.elements"],
    "statement suite": ["globaldet.verify_statement_suite"],
    "power_table": ["globaldet.power_table"],
    "characterization scans": ["breakable.a2_characterization", "breakable.a3_characterization"],
    "subset enumeration": ["breakable.enumerate_a3_masks", "breakable.enumerate_a2_masks", "breakable.enumerate_a2bar_masks"],
}


def report_layers(workload: str, info: dict, metrics: dict) -> None:
    rows, n, total = info["rows"], info["n"], info["total"]
    print(f"workload {workload}, per-layer, traced: {n} items, {total:.3f} s of item time ({total / n:.4f} s per item)")
    print(f"  tracing overhead: {info['traced_rate']:.4g} items/s traced against {info['untraced_rate']:.4g} untraced")
    print(f"  {'layer':<40} {'calls/item':>10} {'s/item':>10} {'self s/item':>11} {'share':>7} {'self':>7}")
    for name in sorted(spans.LAYERS, key=lambda nm: -rows.get(nm, {"s": 0.0})["s"]):
        row = rows.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        print(
            f"  {name:<40} {row['calls'] / n:>10.4g} {row['s'] / n:>10.4g} {row['self_s'] / n:>11.4g}"
            f" {row['s'] / total:>7.2%} {row['self_s'] / total:>7.2%}"
        )
    residual = total - info["layer_self"]
    print(f"  {'residual, outside every traced call':<40} {'':>10} {'':>10} {residual / n:>11.4g} {'':>7} {residual / total:>7.2%}")
    print("  split of item time (time inside the calls):")
    covered = 0.0
    for group, names in SPLIT.items():
        s = sum(rows[nm]["s"] for nm in names if nm in rows)
        covered += s
        print(f"    {group:<24} {s / total:>7.2%}")
    print(f"    {'everything else':<24} {1 - covered / total:>7.2%}")
    for name, (value, unit) in metrics.items():
        if not name.endswith((".calls", ".share", ".self_share", ".s", ".self_s")) or name == "families.corpus.s":
            print(f"  {name:<48} {value:>12.6g} {unit}")


# -- main -----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "crglobal" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'crglobal'} is missing", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    try:
        setup = measure_setup(work, deadline, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        untraced = run_workload(args.workload, args.seed, work / "untraced", args.seconds / 2, None, False, deadline)
        run = run_workload(args.workload, args.seed, work / "traced", 0, untraced["units"], True, deadline)
        runs = [untraced, run]
    else:
        run = run_workload(args.workload, args.seed, work / "run", args.seconds, None, False, deadline)
        runs = [run]

    failures = check_items(args.workload, runs)
    attempted = sum(len(r["items"]) for r in runs)
    if not all(item_times(r) for r in runs):
        print(f"error: no item finished; first failure: {failures[0] if failures else None}", file=sys.stderr)
        return 1

    if args.trace:
        metrics, info = per_layer(run, setup, untraced)
        report_layers(args.workload, info, metrics)
    else:
        metrics = end_to_end(run, setup)
        report_end_to_end(args.workload, run, metrics, failures, setup)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
