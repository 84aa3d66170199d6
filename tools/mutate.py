"""A mutation pass over the library: swap one comparison (== and !=, < and <=,
> and >=, in and not in, is and is not) or one and/or at a time, run
``crglobal verify --profile quick`` on a copy of the library that holds the
mutant, and call the mutant killed when the sha256 of stdout or the exit code
differs from the unmutated run.  A survivor is either an equivalent mutant,
whose code can go, or a condition that ``verify`` does not test.

    python tools/mutate.py              # every module of src/crglobal
    python tools/mutate.py statements   # the named modules only

Each run works in its own temporary directory, removed afterwards, with at
most two runs at a time.  The report is printed; the exit code is 0 whatever
survives.
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

LIBRARY = Path(__file__).resolve().parent.parent / "src" / "crglobal"
SWAPS = {ast.Eq: ast.NotEq, ast.Lt: ast.LtE, ast.Gt: ast.GtE, ast.In: ast.NotIn, ast.Is: ast.IsNot, ast.And: ast.Or}
SWAPS.update({new: old for old, new in list(SWAPS.items())})
SYMBOLS = {ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.In: "in",
           ast.NotIn: "not in", ast.Is: "is", ast.IsNot: "is not", ast.And: "and", ast.Or: "or"}
# a mutant still running after this many seconds counts as killed
TIMEOUT = 60


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


def main(modules: list[str]) -> None:
    reference = run_verify()
    if reference[1] != 0:
        raise SystemExit(f"the unmutated library fails verify with exit code {reference[1]}")
    with ThreadPoolExecutor(max_workers=2) as pool:
        for module in modules or sorted(p.stem for p in LIBRARY.glob("*.py")):
            found = mutants((LIBRARY / f"{module}.py").read_text(encoding="utf-8"))
            results = pool.map(run_verify, [module] * len(found), [source for _, _, source in found])
            survivors = [(line, swap) for (line, swap, _), result in zip(found, results) if result == reference]
            print(f"{module}: {len(found)} mutants, {len(survivors)} survivors", flush=True)
            for line, swap in survivors:
                print(f"  {module}.py:{line} {swap}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
