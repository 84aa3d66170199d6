"""Command-line surface: analyze tables, list breakable subsemigroups,
search power-semigroup isomorphisms, and run the verification battery.

Exit codes: 0 success, 1 no isomorphism found, 2 operational error,
3 a verified statement failed on concrete data.
"""

from __future__ import annotations

import argparse
import json
import os
import reprlib
import sys
from functools import cache

from .breakable import (
    a2_characterization,
    a3_characterization,
    enumerate_a2_masks,
    enumerate_a2bar_masks,
    enumerate_a3_masks,
    structural_form,
)
from .core import CayleyTable, bits, green_relations, idempotents, is_completely_regular, is_completely_simple, natural_order, validate_table
from .errors import FalsificationError, SemigroupError
from .families import corpus
from .globaldet import construct_eta
from .power import check_green_order, power_of
from .statements import verify_member_statements, verify_statement_suite
from .structure import decompose
from .verify import collect_psis, records_to_json_lines, run_all, summarize

ENV_INJECT = "CRGLOBAL_INJECT"


def parse_table_text(text: str) -> CayleyTable:
    """JSON document or plain text: first line the order, then the rows."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except RecursionError:
            raise SemigroupError("the JSON document is nested too deeply") from None
        if "table" not in doc:
            raise SemigroupError("the JSON document has no 'table' key")
        s = validate_table(doc["table"], doc.get("labels"))
        order = doc.get("order", s.order)
        if not isinstance(order, int) or isinstance(order, bool):
            raise SemigroupError(f"header order must be an integer, got {reprlib.repr(order)}")
        if order != s.order:
            raise SemigroupError(f"header order {reprlib.repr(order)} does not match a table of {s.order} rows")
        return s
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise SemigroupError("empty table")
    header = lines[0].split()
    if len(header) != 1:
        raise SemigroupError(f"the first line must be the order alone, got {reprlib.repr(lines[0].strip())}")
    n = int(header[0])
    rows = [[int(tok) for tok in ln.split()] for ln in lines[1:]]
    if len(rows) != n:
        raise SemigroupError(f"expected {n} rows, found {len(rows)}")
    return validate_table(rows)


def table_to_json(name: str, s: CayleyTable) -> str:
    doc = {"name": name, "order": s.order, "table": [list(r) for r in s.table]}
    if s.labels is not None:
        doc["labels"] = list(s.labels)
    return json.dumps(doc, sort_keys=True)


def load_table(path: str) -> CayleyTable:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_table_text(fh.read())


def _mask_str(s: CayleyTable, mask: int) -> str:
    return "{" + ",".join(s.label(e) for e in bits(mask)) + "}"


def cmd_analyze(args) -> int:
    s = load_table(args.path)
    g = green_relations(s)
    print(f"order: {s.order}")
    print(f"idempotents: {sorted(idempotents(s))}")
    for tag, classes in (("L", g.lclass), ("R", g.rclass), ("H", g.hclass), ("D", g.dclass)):
        sizes = {}
        for c in classes:
            sizes[c] = sizes.get(c, 0) + 1
        print(f"{tag}-classes: {len(sizes)} (sizes {sorted(sizes.values(), reverse=True)})")
    cr = is_completely_regular(s)
    print(f"completely regular: {'yes' if cr else 'no'}")
    if not cr:
        return 0
    print(f"completely simple: {'yes' if is_completely_simple(s) else 'no'}")
    dec = decompose(s)
    print(f"components: {dec.count}")
    for alpha in range(dec.count):
        elems = ",".join(s.label(e) for e in dec.component_elements(alpha))
        print(f"  component {alpha} [{dec.classification[alpha]}]: {{{elems}}}")
    print("structure table:")
    for row in dec.semilattice.table:
        print("  " + " ".join(str(v) for v in row))
    order = natural_order(s)
    print(f"maximal elements: {[a for a in range(s.order) if order.maximal[a]]}")
    return 0


def cmd_breakable(args) -> int:
    s = load_table(args.path)
    if s.order > args.max_order:
        raise SemigroupError(f"order {s.order} exceeds --max-order {args.max_order}")
    if not is_completely_regular(s):
        raise SemigroupError("input is not completely regular")
    p = power_of(s)
    a2 = enumerate_a2_masks(s)
    a3 = enumerate_a3_masks(s)
    a2bar = enumerate_a2bar_masks(s)
    print(f"pair-condition subsemigroups: {len(a2)}")
    print(f"triple-condition subsemigroups: {len(a3)}")
    print(f"single-component pair-condition subsemigroups: {len(a2bar)}")
    for am in a3:
        form = structural_form(s, am)
        chunks = " < ".join(f"{_mask_str(s, c)}:{k}" for c, k in zip(form.chunks, form.kinds))
        scan2 = a2_characterization(p, am)
        scan3 = a3_characterization(p, am)
        agree2 = scan2 == (am in a2)
        tags = []
        tags.append("pair" if am in a2 else "triple-only")
        if am in a2bar:
            tags.append("single-component")
        cross = "ok" if (scan3 and agree2) else "MISMATCH"
        print(f"  {_mask_str(s, am)} [{','.join(tags)}] chain: {chunks} cross-check: {cross}")
    return 0


def cmd_globaliso(args) -> int:
    s = load_table(args.path_a)
    s2 = load_table(args.path_b)
    for t in (s, s2):
        if not is_completely_regular(t):
            raise SemigroupError("both inputs must be completely regular")
        if t.order > args.max_order:
            raise SemigroupError(f"order {t.order} exceeds --max-order {args.max_order}")
        # the suite's power-Green statements would refuse it after the search
        check_green_order(t.order)
    # the eta file is written after the search and the suite, so refuse a
    # path that cannot be written before either runs
    if args.emit_eta and (os.path.isdir(args.emit_eta) or not os.path.isdir(os.path.dirname(args.emit_eta) or ".")):
        raise SemigroupError(f"--emit-eta {reprlib.repr(args.emit_eta)} is not a file in an existing directory")
    _, psis = collect_psis(s, s2, args.limit)
    if not psis:
        print("no power-semigroup isomorphism found")
        return 1
    failures = 0
    # the statements that read only S, once for all maps
    for rec in verify_member_statements(s):
        if not rec.ok:
            print(f"FAIL {rec.check}: {rec.witness}")
            failures += 1
    dec_a, dec_b = decompose(s), decompose(s2)
    etas = []
    for k, psi in enumerate(psis):
        try:
            transfer = construct_eta(psi, dec_a, dec_b)
        except FalsificationError as exc:
            print(f"psi {k}: FALSIFIED: {exc}")
            failures += 1
            continue
        suite = verify_statement_suite(s, s2, psi, transfer.theta)
        bad = [rec for rec in suite if not rec.ok]
        status = "all-pass" if not bad else f"{len(bad)} failing statements"
        eta = list(transfer.eta.forward)
        print(f"psi {k}: component map {list(transfer.theta.forward)}, eta {eta}, suite {status}")
        for rec in bad:
            print(f"  FAIL {rec.check}: {rec.witness}")
            failures += 1
        etas.append({"psi": k, "eta": eta})
    if args.emit_eta:
        with open(args.emit_eta, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(etas, sort_keys=True) + "\n")
    return 3 if failures else 0


def cmd_verify(args) -> int:
    inject = bool(os.environ.get(ENV_INJECT))
    try:
        records = run_all(args.profile, inject_non_cr=inject)
    except FalsificationError:
        raise
    except SemigroupError as exc:
        # the battery reads no input, so a refusal from inside it is the
        # library contradicting itself
        raise FalsificationError(f"the battery refused its own data: {exc}") from exc
    sys.stdout.write(records_to_json_lines(records))
    print(summarize(records), file=sys.stderr)
    return 0 if all(r.ok for r in records) else 3


def cmd_corpus(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    for name, s in corpus(args.profile):
        with open(os.path.join(args.out, f"{name}.json"), "w", encoding="utf-8") as fh:
            fh.write(table_to_json(name, s))
            fh.write("\n")
    print(f"wrote {len(corpus(args.profile))} tables to {args.out}")
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared after that;
    it reads no environment, so one parser serves every call."""
    parser = argparse.ArgumentParser(prog="crglobal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="validate a table and print its structure")
    p.add_argument("path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("breakable", help="list subsemigroups with short-product closure")
    p.add_argument("path")
    p.add_argument("--max-order", type=int, default=12)
    p.set_defaults(func=cmd_breakable)

    p = sub.add_parser("globaliso", help="search power-semigroup isomorphisms and build element maps")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.add_argument("--limit", type=int, default=8)
    p.add_argument("--max-order", type=int, default=5)
    p.add_argument("--emit-eta", default=None)
    p.set_defaults(func=cmd_globaliso)

    p = sub.add_parser("verify", help="run the full verification battery over the corpus")
    p.add_argument("--profile", choices=("quick", "full"), default="full")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("corpus", help="export the corpus as JSON table files")
    p.add_argument("--out", required=True)
    p.add_argument("--profile", choices=("quick", "full"), default="full")
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except FalsificationError as exc:
        print(f"falsified: {exc}", file=sys.stderr)
        return 3
    except (SemigroupError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
