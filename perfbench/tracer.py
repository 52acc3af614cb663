"""Spans around the calls into each opplab module, and the metrics they yield.

The tracer wraps public functions from outside the package: it replaces each
function at its definition site and at every import site inside ``opplab``,
so no file of the program changes.  Each span records its name, start, end,
thread, parent span, the experiment it belongs to, whether an exception left
it, and the work counts seen at that boundary.  Spans stay in memory until
the run ends.

A ``parallel_map`` item runs its caller's closure, so the self time of an item
is credited to the function that called ``parallel_map`` (for example the
Siegel samples to ``flows.siegel_average``).  All times reported with ``.s``
or ``_s`` are self times: a span's duration minus the part of it covered by
its children, whichever threads the children ran on.
"""

from __future__ import annotations

import inspect
import itertools
import math
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Optional

import numpy as np

LAYERS = ("cli", "forms", "lattice", "enumeration", "approx", "flows", "projection", "util")

ITEM = "util.parallel_map.item"

SPAN_FIELDS = ("id", "name", "start", "end", "thread", "parent", "experiment", "error", "counts")
ID, NAME, START, END, THREAD, PARENT, EXP, ERROR, EXTRA = range(len(SPAN_FIELDS))


def _rows(v) -> int:
    shape = np.shape(v)
    return int(shape[0]) if len(shape) == 2 else 1


def _candidates(a: dict, _res) -> dict:
    """Candidates the certified search scores at entry bound R, computed.

    The canonical half-box has (r+1) + r(2r+1) chunks of (m11, m22), each
    scoring all (2r+1)^4 tails (m33, m12, m13, m23).
    """
    r = math.floor(a["R"])
    if r > a["exhaustive_limit"]:
        return {"certified": False, "candidates": 0}
    return {"certified": True, "candidates": (2 * r * r + 2 * r + 1) * (2 * r + 1) ** 4}


def _pair_bytes(matrices: Callable[[dict], int]) -> Callable[[dict, Any], dict]:
    """8 n^2 bytes per n x n float64 pairwise matrix the call builds, computed."""

    def count(a: dict, _res) -> dict:
        n = len(a["config"])
        return {"pair_bytes": 8 * n * n * matrices(a)}

    return count


# (module, qualified name, counts at the boundary from (bound arguments, result))
TRACED: tuple[tuple[str, str, Optional[Callable[[dict, Any], dict]]], ...] = (
    ("forms", "TernaryForm.evaluate", None),  # counted on the fast path below
    ("forms", "normalize", None),
    ("forms", "parse_form", None),
    ("lattice", "lll_reduce", None),
    ("lattice", "enumerate_ball", lambda a, res: {"points": len(res[0] if isinstance(res, tuple) else res)}),
    ("lattice", "shortest_vector_coeffs", None),
    ("enumeration", "witness_table", lambda a, res: {"witnessed": res.witnessed}),
    ("enumeration", "count_values", lambda a, res: {"hits": int(res)}),
    ("enumeration", "main_term_constant", None),
    ("enumeration", "count_vs_main_term", None),
    ("approx", "best_rational_approx", _candidates),
    ("approx", "algebraicity_gap", None),
    ("approx", "dichotomy_report", None),
    ("flows", "form_to_basepoint", None),
    ("flows", "siegel_average", lambda a, res: {"samples": int(a["N"])}),
    ("flows", "discrepancy_scan", None),
    ("projection", "nonconcentration_constant", _pair_bytes(lambda a: 1)),
    ("projection", "projection_concentration", _pair_bytes(lambda a: 1)),
    ("projection", "projection_survey", _pair_bytes(lambda a: len(a["r_grid"]))),
    ("projection", "improvement_step_sim", _pair_bytes(lambda a: 1 + int(a["r_samples"]))),
    ("util", "parallel_map", None),  # wrapped specially: its items become spans
    ("cli", "main", None),
)


class Tracer:
    """In-memory span recorder.  One instance per traced process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.experiment = -1
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _run(self, name: str, call: Callable[[int], Any], parent: Optional[int] = None,
             extra: Optional[Callable[[Any], Optional[dict]]] = None,
             before: Optional[dict] = None) -> Any:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = call(sid)
        except BaseException:
            end = time.perf_counter()
            stack.pop()
            self._add((sid, name, start, end, threading.get_ident(), parent, self.experiment, True, before))
            raise
        end = time.perf_counter()
        stack.pop()
        counts = before
        if extra is not None:
            counts = {**(before or {}), **extra(result)}
        self._add((sid, name, start, end, threading.get_ident(), parent, self.experiment, False, counts))
        return result

    def _add(self, span: tuple) -> None:
        with self._lock:
            self.spans.append(span)

    def wrap(self, name: str, fn: Callable, count=None) -> Callable:
        if name == "forms.evaluate":
            def evaluate(form, v):
                return self._run(name, lambda _sid: fn(form, v), before={"points": _rows(v)})

            return evaluate
        if name == "util.parallel_map":
            return self._wrap_parallel_map(fn)
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            extra = None
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                extra = lambda res: count(bound.arguments, res)  # noqa: E731
            return self._run(name, lambda _sid: fn(*args, **kwargs), extra=extra)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_parallel_map(self, fn: Callable) -> Callable:
        util = sys.modules["opplab.util"]

        def parallel_map(item_fn, items):
            items = list(items)
            workers = max(1, min(util.worker_count(), len(items)))

            def call(sid: int):
                def item(x):
                    return self._run(ITEM, lambda _sid: item_fn(x), parent=sid)

                return fn(item, items)

            return self._run("util.parallel_map", call, before={"items": len(items), "workers": workers})

        return parallel_map


def install(tracer: Tracer) -> None:
    """Replace every traced function at its definition and import sites."""
    modules = [m for k, m in list(sys.modules.items()) if m is not None and (k == "opplab" or k.startswith("opplab."))]
    for layer, qualname, count in TRACED:
        owner = sys.modules[f"opplab.{layer}"]
        *cls_path, attr = qualname.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        orig = getattr(owner, attr)
        span_name = f"{layer}.{attr}"
        wrapped = tracer.wrap(span_name, orig, count)
        setattr(owner, attr, wrapped)
        if cls_path:
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)


# ---------------------------------------------------------------- analysis


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class SpanTree:
    """Spans indexed by id, with self times and item attribution."""

    def __init__(self, spans: list[list]) -> None:
        self.by_id = {s[ID]: s for s in spans}
        children: dict[int, list] = defaultdict(list)
        for s in spans:
            if s[PARENT] is not None:
                children[s[PARENT]].append(s)
        self.children = children
        self.self_time = {
            s[ID]: (s[END] - s[START]) - _covered([(c[START], c[END]) for c in children[s[ID]]], s[START], s[END])
            for s in spans
        }
        # a parallel_map item's self time goes to the caller of parallel_map
        self.credited = dict(self.self_time)
        for s in spans:
            if s[NAME] == ITEM:
                owner = self._owner(s)
                if owner is not None:
                    self.credited[owner[ID]] += self.self_time[s[ID]]
                    self.credited[s[ID]] = 0.0

    def parent(self, s) -> Optional[list]:
        return self.by_id.get(s[PARENT]) if s[PARENT] is not None else None

    def _owner(self, item) -> Optional[list]:
        pm = self.parent(item)
        return self.parent(pm) if pm is not None else None

    def ancestor(self, s, names: tuple[str, ...]) -> Optional[list]:
        p = self.parent(s)
        while p is not None and p[NAME] not in names:
            p = self.parent(p)
        return p


def derive(spans: list[list], import_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see NOTES.md for definitions)."""
    tree = SpanTree(spans)
    named: dict[str, list] = defaultdict(list)
    for s in spans:
        named[s[NAME]].append(s)

    def calls(name: str) -> int:
        return len(named[name])

    def self_s(name: str) -> float:
        return sum(tree.credited[s[ID]] for s in named[name])

    def total(name: str, key: str) -> int:
        return sum((s[EXTRA] or {}).get(key, 0) for s in named[name])

    # forms.evaluate points under the nearest witness_table / count_values
    owners = ("enumeration.witness_table", "enumeration.count_values")
    points_under = defaultdict(int)
    for s in named["forms.evaluate"]:
        anc = tree.ancestor(s, owners)
        if anc is not None:
            points_under[anc[NAME]] += s[EXTRA]["points"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    approx_spans = named["approx.best_rational_approx"]
    siegel_items = [
        item for s in named["flows.siegel_average"]
        for pm in tree.children[s[ID]] if pm[NAME] == "util.parallel_map"
        for item in tree.children[pm[ID]]
    ]
    pm_capacity = sum((s[END] - s[START]) * s[EXTRA]["workers"] for s in named["util.parallel_map"])

    m: dict[str, float] = {
        "cli.self_s": self_s("cli.main"),
        "cli.import_s": import_s,
        "forms.evaluate.calls": calls("forms.evaluate"),
        "forms.evaluate.points": total("forms.evaluate", "points"),
        "forms.evaluate.s": self_s("forms.evaluate"),
    }
    for fn in ("lll_reduce", "enumerate_ball", "shortest_vector_coeffs"):
        m[f"lattice.{fn}.calls"] = calls(f"lattice.{fn}")
        if fn == "enumerate_ball":
            m["lattice.enumerate_ball.points"] = total("lattice.enumerate_ball", "points")
        m[f"lattice.{fn}.s"] = self_s(f"lattice.{fn}")
    m.update({
        "enumeration.witness_table.s": self_s("enumeration.witness_table"),
        "enumeration.witness_table.hit_ratio": ratio(
            total("enumeration.witness_table", "witnessed"), points_under["enumeration.witness_table"]),
        "enumeration.count_values.s": self_s("enumeration.count_values"),
        "enumeration.count_values.hits": total("enumeration.count_values", "hits"),
        "enumeration.count_values.hit_ratio": ratio(
            total("enumeration.count_values", "hits"), points_under["enumeration.count_values"]),
        "enumeration.main_term_constant.s": self_s("enumeration.main_term_constant"),
        "approx.best_rational_approx.certified_s": sum(
            tree.credited[s[ID]] for s in approx_spans if s[EXTRA] and s[EXTRA]["certified"]),
        "approx.best_rational_approx.heuristic_s": sum(
            tree.credited[s[ID]] for s in approx_spans if s[EXTRA] and not s[EXTRA]["certified"]),
        "approx.candidates": total("approx.best_rational_approx", "candidates"),
        "approx.dichotomy_report.s": self_s("approx.dichotomy_report"),
        "flows.siegel_average.s": self_s("flows.siegel_average"),
        "flows.siegel_average.sample_s": ratio(
            sum(i[END] - i[START] for i in siegel_items), total("flows.siegel_average", "samples")),
        "flows.form_to_basepoint.s": self_s("flows.form_to_basepoint"),
        "projection.nonconcentration_constant.s": self_s("projection.nonconcentration_constant"),
        "projection.projection_survey.s": self_s("projection.projection_survey"),
        "projection.improvement_step_sim.s": self_s("projection.improvement_step_sim"),
        "projection.pair_bytes": sum(total(n, "pair_bytes") for n in named if n.startswith("projection.")),
        "util.parallel_map.calls": calls("util.parallel_map"),
        "util.parallel_map.items": total("util.parallel_map", "items"),
        "util.parallel_map.s": self_s("util.parallel_map"),
        "util.parallel_map.utilization": ratio(sum(i[END] - i[START] for i in named[ITEM]), pm_capacity),
    })
    errors = dict.fromkeys(LAYERS, 0)
    for s in spans:
        if s[ERROR]:
            p = tree.parent(s)
            if p is None or _layer(p[NAME]) != _layer(s[NAME]):
                errors[_layer(s[NAME])] += 1
    for layer in LAYERS:
        m[f"{layer}.errors"] = errors[layer]
    return m


def experiment_seconds(spans: list[list]) -> float:
    """Total duration of the traced ``cli.main`` calls."""
    return sum(s[END] - s[START] for s in spans if s[NAME] == "cli.main")
