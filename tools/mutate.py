"""A mutation pass over the library: swap one comparison (== and !=, < and <=,
> and >=, in and not in, is and is not) or one and/or at a time, run
``crglobal verify --profile quick`` on a copy of the library that holds the
mutant, and call the mutant killed when the sha256 of stdout or the exit code
differs from the unmutated run.  Each survivor then meets the second oracle,
the tier-1 test suite, run on a copy of the repo that holds the mutant; it is
killed when the suite fails.  A mutant that survives both is either an
equivalent mutant, whose code can go, or a condition that nothing tests.

    python tools/mutate.py              # every module of src/crglobal
    python tools/mutate.py statements   # the named modules only

Each run works in its own temporary directory, removed afterwards, with at
most two runs at a time.  The report is printed, one line per survivor of
``verify`` with the tier-1 verdict; the exit code is 0 whatever survives.
"""

import ast
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "crglobal"
# what a copy of the repo for a tier-1 run leaves out
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", ".perfbench_work")
SWAPS = {ast.Eq: ast.NotEq, ast.Lt: ast.LtE, ast.Gt: ast.GtE, ast.In: ast.NotIn, ast.Is: ast.IsNot, ast.And: ast.Or}
SWAPS.update({new: old for old, new in list(SWAPS.items())})
SYMBOLS = {ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.In: "in",
           ast.NotIn: "not in", ast.Is: "is", ast.IsNot: "is not", ast.And: "and", ast.Or: "or"}
# a mutant still running after this many seconds counts as killed, by
# verify and by the tier-1 suite
TIMEOUT = 60
TIER1_TIMEOUT = 600


def mutants(source: str) -> list[tuple[int, str, str]]:
    """(line, "old -> new", mutated source) for each single swap, by line."""
    tree = ast.parse(source)
    out = []

    def record(node, old, new):
        out.append((node.lineno, f"{SYMBOLS[type(old)]} -> {SYMBOLS[type(new)]}", ast.unparse(tree)))

    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                node.ops[i] = SWAPS[type(op)]()
                record(node, op, node.ops[i])
                node.ops[i] = op
        elif isinstance(node, ast.BoolOp):
            op = node.op
            node.op = SWAPS[type(op)]()
            record(node, op, node.op)
            node.op = op
    return sorted(out, key=lambda m: m[0])


def run_verify(module: str | None = None, source: str | None = None) -> tuple[str, int]:
    """(sha256 of stdout, exit code) of ``verify --profile quick`` on a copy
    of the library, with ``source`` as the text of ``module`` when given."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(LIBRARY, Path(tmp) / "crglobal", ignore=shutil.ignore_patterns("__pycache__"))
        if module is not None:
            (Path(tmp) / "crglobal" / f"{module}.py").write_text(source, encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": tmp, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": "0"}
        command = [sys.executable, "-m", "crglobal.cli", "verify", "--profile", "quick"]
        try:
            run = subprocess.run(command, env=env, capture_output=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "timeout", -1
        return hashlib.sha256(run.stdout).hexdigest(), run.returncode


def run_tier1(module: str | None = None, source: str | None = None) -> bool:
    """True iff the tier-1 suite passes on a copy of the repo, with ``source``
    as the text of ``module`` when given.  The suite runs in the copy, since
    pyproject.toml's ``pythonpath`` puts the repo's own src ahead of
    PYTHONPATH; it stops at the first failure."""
    with tempfile.TemporaryDirectory() as tmp:
        repo = Path(tmp) / "repo"
        shutil.copytree(ROOT, repo, ignore=SKIP)
        if module is not None:
            (repo / "src" / "crglobal" / f"{module}.py").write_text(source, encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(repo / "src"), "PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": "0"}
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
        try:
            run = subprocess.run(command, cwd=repo, env=env, capture_output=True, timeout=TIER1_TIMEOUT)
        except subprocess.TimeoutExpired:
            return False
        return run.returncode == 0


def main(modules: list[str]) -> None:
    reference = run_verify()
    if reference[1] != 0:
        raise SystemExit(f"the unmutated library fails verify with exit code {reference[1]}")
    if not run_tier1():
        raise SystemExit("the unmutated repo fails the tier-1 suite")
    with ThreadPoolExecutor(max_workers=2) as pool:
        for module in modules or sorted(p.stem for p in LIBRARY.glob("*.py")):
            found = mutants((LIBRARY / f"{module}.py").read_text(encoding="utf-8"))
            results = pool.map(run_verify, [module] * len(found), [source for _, _, source in found])
            survivors = [(line, swap, source) for (line, swap, source), result in zip(found, results) if result == reference]
            passed = list(pool.map(run_tier1, [module] * len(survivors), [source for _, _, source in survivors]))
            print(
                f"{module}: {len(found)} mutants, {len(survivors)} survive verify, {sum(passed)} of them tier-1 too",
                flush=True,
            )
            for (line, swap, _), survives in zip(survivors, passed):
                print(f"  {module}.py:{line} {swap}: tier-1 {'misses it too' if survives else 'kills it'}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
