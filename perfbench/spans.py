"""Outside-in tracing: spans around calls into the program's public functions.

``install`` replaces each traced function at every name a caller looks it up
by: the defining module's global, each module that imported it with
``from ... import``, and the package namespace.  Spans are held in memory as
``[name, start, end, parent, item, counters]`` and written out at the end;
self time and the per-layer figures are derived from them by ``aggregate``.

``Power.product_mask`` is called millions of times, so it gets no span: its
wrapper only counts calls and distinct (object, am, bm) keys for each item.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

# (module, function) pairs traced with a span; names are "module.function"
FUNCTIONS = [
    ("globaldet", "find_isomorphisms"),
    ("globaldet", "power_table"),
    ("globaldet", "verify_statement_suite"),
    ("globaldet", "extract_theta"),
    ("globaldet", "construct_eta"),
    ("globaldet", "lift"),
    ("verify", "run_all"),
    ("verify", "collect_psis"),
    ("verify", "global_sweep"),
    ("verify", "check_a3_equivalence"),
    ("verify", "check_a2_equivalence"),
    ("verify", "check_structural_forms"),
    ("verify", "check_power_h_classes"),
    ("breakable", "a2_characterization"),
    ("breakable", "a3_characterization"),
    ("breakable", "enumerate_a3_masks"),
    ("breakable", "enumerate_a2_masks"),
    ("breakable", "enumerate_a2bar_masks"),
    ("breakable", "structural_form"),
    ("core", "validate_table"),
    ("core", "green_relations"),
    ("core", "natural_order"),
    ("structure", "decompose"),
    ("cli", "parse_table_text"),
    ("families", "corpus"),
]
METHODS = [("power", "Power", "idempotent_masks"), ("power", "Power", "h_class")]
SEARCH_KINDS = ("subsets", "elements")

# every span name a traced call can produce, the search split by table kind
LAYERS = [
    name
    for mod, fn in FUNCTIONS
    for name in (
        [f"{mod}.{fn}.{kind}" for kind in SEARCH_KINDS] if fn == "find_isomorphisms" else [f"{mod}.{fn}"]
    )
] + [f"{mod}.{cls}.{meth}" for mod, cls, meth in METHODS]

ITEM = "item"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item: str | None = None
        self.pm_calls = [0]
        self.pm_keys: set = set()

    def wrap(self, name, fn, counters=None, name_of=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            label = name_of(args, kwargs) if name_of else name
            spans.append([label, clock(), 0.0, stack[-1] if stack else -1, self.item, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if counters:
                spans[idx][5] = counters(args, kwargs, result)
            return result

        # an lru_cache'd function keeps its cache controls
        for attr in ("cache_clear", "cache_info", "cache_parameters"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def begin_item(self, item_id: str) -> None:
        self.item = item_id
        self.spans.append([ITEM, time.perf_counter(), 0.0, -1, item_id, None])
        self.stack.append(len(self.spans) - 1)

    def end_item(self) -> None:
        idx = self.stack.pop()
        self.spans[idx][2] = time.perf_counter()
        self.spans[idx][5] = {"product_mask.calls": self.pm_calls[0], "product_mask.keys": len(self.pm_keys)}
        self.pm_calls[0] = 0
        self.pm_keys.clear()
        self.item = None

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def _counters(fn, name: str):
    """Counters recorded on a span, and for the search its per-kind name."""
    if name == "find_isomorphisms":
        sig = inspect.signature(fn)

        def bound(args, kwargs):
            b = sig.bind(*args, **kwargs)
            b.apply_defaults()
            return b.arguments

        def name_of(args, kwargs):
            return f"globaldet.find_isomorphisms.{bound(args, kwargs)['kind']}"

        def counters(args, kwargs, result):
            return {"maps": len(result), "exhausted": int(len(result) < bound(args, kwargs)["limit"])}

        return counters, name_of
    if name == "verify_statement_suite":
        return (lambda a, k, r: {"instances": sum(rec.instances for rec in r)}), None
    if name == "run_all":
        return (lambda a, k, r: {"records": len(r)}), None
    if name == "enumerate_a3_masks":
        return (lambda a, k, r: {"subsets": len(r)}), None
    return None, None


def install(tracer: Tracer) -> None:
    """Wrap every traced function wherever the program's modules refer to it."""
    modules = {m: importlib.import_module(f"crglobal.{m}") for m in ("globaldet", "verify", "breakable", "core", "structure", "cli", "families", "power")}
    loaded = [mod for key, mod in list(sys.modules.items()) if key == "crglobal" or key.startswith("crglobal.")]
    for mod_name, fn_name in FUNCTIONS:
        orig = getattr(modules[mod_name], fn_name)
        counters, name_of = _counters(orig, fn_name)
        wrapped = tracer.wrap(f"{mod_name}.{fn_name}", orig, counters, name_of)
        for mod in loaded:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)
    for mod_name, cls_name, meth in METHODS:
        cls = getattr(modules[mod_name], cls_name)
        setattr(cls, meth, tracer.wrap(f"{mod_name}.{cls_name}.{meth}", getattr(cls, meth)))

    power_cls = modules["power"].Power
    orig_pm = power_cls.product_mask
    calls, keys = tracer.pm_calls, tracer.pm_keys

    def product_mask(self, am, bm):
        calls[0] += 1
        keys.add((id(self), am, bm))
        return orig_pm(self, am, bm)

    power_cls.product_mask = product_mask


def merge(into: list[list], spans: list[list]) -> None:
    """Append the spans of one process, shifting their parent indices."""
    base = len(into)
    for s in spans:
        into.append(s[:3] + [s[3] + base if s[3] >= 0 else -1] + s[4:])


def aggregate(spans: list[list]) -> dict:
    """Per span name: calls, time inside (outermost spans of that name only,
    so recursion is not counted twice), self time (duration minus the direct
    children's durations) and summed counters."""
    children = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            children[s[3]] += s[2] - s[1]
    out: dict[str, dict] = {}
    for idx, (name, start, end, parent, _item, counters) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "counters": {}})
        row["calls"] += 1
        row["self_s"] += (end - start) - children[idx]
        if not _has_ancestor(spans, parent, name):
            row["s"] += end - start
        for k, v in (counters or {}).items():
            row["counters"][k] = row["counters"].get(k, 0) + v
    return out


def _has_ancestor(spans, parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
