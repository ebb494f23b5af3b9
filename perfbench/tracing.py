"""Spans around the library's public functions, and the per-layer metrics.

Tracer.install() replaces every public function of the layers in LAYERS
(each module's __all__ functions, plus Dictionary.pinv) with a wrapper
wherever the package binds it by name: cosparse_grip.campaign imports
delta_exact, cosparse_grip.verify imports chunk_decompose, and so on, so
each binding is patched where it is looked up. uninstall() restores the
originals; the library's sources are never touched.

A span is [name, parent, pass, op, start, end, error, payload]. Spans
stay in memory; write_spans() dumps them as JSON lines. A layer's self
time is the sum over its spans of the duration minus the durations of
direct child spans (calls are sequential, so children do not overlap).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time

import cosparse_grip as cg

LAYERS = ("campaign", "model", "grip", "solvers", "simplex", "verify")
PDHG_ROUTES = ("solvers.solve_analysis_l1", "solvers.solve_synthesis_l1")

NAME, PARENT, PASS, OP, START, END, ERROR, PAYLOAD = range(8)


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _supports(fn, out, args, kwargs):
    a = _bound(fn, args, kwargs)
    return math.comb(a["dictionary"].p, a["k"])


def _pairs(fn, out, args, kwargs):
    a = _bound(fn, args, kwargs)
    p, k = a["dictionary"].p, a["k"]
    return math.comb(p, k) * math.comb(p - k, k) // 2


def _pdhg(fn, out, args, kwargs):
    opts = _bound(fn, args, kwargs)["options"] or cg.SolverOptions()
    return (out.iterations, out.converged, not out.converged and out.iterations >= opts.max_iters)


# what each span records from its call's arguments and result
_PAYLOADS = {
    "grip.delta_exact": _supports,
    "grip.rho_exact": _pairs,
    "solvers.solve_analysis_l1": _pdhg,
    "solvers.solve_synthesis_l1": _pdhg,
    "simplex.solve_standard_lp": lambda fn, out, a, kw: out.pivots,
    "campaign.run": lambda fn, out, a, kw: len(out.rows),
}


def public_functions() -> list[tuple[str, object, object]]:
    """(span name, owner, function) for every traced callable; the owner
    is the class for methods and None for module functions."""
    found = []
    for layer in LAYERS:
        mod = importlib.import_module(f"{cg.__name__}.{layer}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                found.append((f"{layer}.{name}", None, obj))
    found.append(("model.Dictionary.pinv", cg.Dictionary, cg.Dictionary.pinv))
    return found


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.pass_id = -1
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        payload = _PAYLOADS.get(name)

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, self.pass_id, self.op_id, 0.0, 0.0, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as err:
                rec[ERROR] = type(err).__name__
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if payload is not None:
                rec[PAYLOAD] = payload(fn, out, args, kwargs)
            return out

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sys.modules.items() if key == cg.__name__ or key.startswith(cg.__name__ + ".")]
        for name, owner, fn in public_functions():
            wrapper = self._wrap(name, fn)
            if owner is not None:
                self._patch(owner, fn.__name__, wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, wrapper)

    def _patch(self, where, attr: str, wrapper) -> None:
        self._patches.append((where, attr, getattr(where, attr)))
        setattr(where, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            where, attr, original = self._patches.pop()
            setattr(where, attr, original)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _nearest_rank(values: list, q: float):
    if not values:
        return 0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def self_times(spans: list[list]) -> list[float]:
    """Duration minus direct-child coverage, per span."""
    own = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            own[rec[PARENT]] -= rec[END] - rec[START]
    return own


def layer_metrics(spans: list[list], own: list[float], pass_id: int, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose wall time was wall_s;
    own is self_times(spans) over the whole span list."""
    calls: dict[str, list[int]] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, rec in enumerate(spans):
        if rec[PASS] == pass_id:
            calls.setdefault(rec[NAME], []).append(i)
            layer_self[rec[NAME].split(".", 1)[0]] += own[i]

    def of(name):
        return calls.get(name, [])

    def total(idx):
        return sum(spans[i][END] - spans[i][START] for i in idx)

    def self_of(idx):
        return sum(own[i] for i in idx)

    m: dict[str, float] = {}
    delta, rho, bc = of("grip.delta_exact"), of("grip.rho_exact"), of("grip.bound_constants")
    supports = sum(spans[i][PAYLOAD] or 0 for i in delta)
    pairs = sum(spans[i][PAYLOAD] or 0 for i in rho)
    m["grip.delta_exact.calls"] = len(delta)
    m["grip.delta_exact.supports"] = supports
    m["grip.delta_exact.s"] = total(delta)
    m["grip.delta_exact.us_per_support"] = 1e6 * _ratio(total(delta), supports)
    m["grip.rho_exact.calls"] = len(rho)
    m["grip.rho_exact.pairs"] = pairs
    m["grip.rho_exact.s"] = total(rho)
    m["grip.rho_exact.us_per_pair"] = 1e6 * _ratio(total(rho), pairs)
    m["grip.bound_constants.calls"] = len(bc)
    m["grip.bound_constants.us_per_call"] = 1e6 * _ratio(total(bc), len(bc))
    m["grip.self_s"] = layer_self["grip"]

    pdhg = [i for name in PDHG_ROUTES for i in of(name)]
    done = [i for i in pdhg if spans[i][PAYLOAD] is not None]
    iters = [spans[i][PAYLOAD][0] for i in done]
    m["solvers.pdhg.solves"] = len(pdhg)
    m["solvers.pdhg.s"] = total(pdhg)
    m["solvers.pdhg.iters_total"] = sum(iters)
    m["solvers.pdhg.iters_p50"] = _nearest_rank(iters, 0.5)
    m["solvers.pdhg.iters_p90"] = _nearest_rank(iters, 0.9)
    m["solvers.pdhg.iters_max"] = max(iters, default=0)
    m["solvers.pdhg.us_per_iter"] = 1e6 * _ratio(total(done), sum(iters))
    m["solvers.pdhg.converged_frac"] = _ratio(sum(1 for i in done if spans[i][PAYLOAD][1]), len(pdhg))
    m["solvers.pdhg.hit_max_iters"] = sum(1 for i in done if spans[i][PAYLOAD][2])

    lp = of("solvers.solve_lp_certified")
    m["solvers.lp.solves"] = len(lp)
    m["solvers.lp.self_s"] = self_of(lp)
    m["solvers.lp.failed"] = sum(1 for i in lp if spans[i][ERROR] is not None)

    spx = of("simplex.solve_standard_lp")
    solved = [i for i in spx if spans[i][ERROR] is None]
    pivots = [spans[i][PAYLOAD] for i in solved]
    m["simplex.solves"] = len(spx)
    m["simplex.s"] = total(spx)
    m["simplex.pivots_total"] = sum(pivots)
    m["simplex.pivots_p50"] = _nearest_rank(pivots, 0.5)
    m["simplex.pivots_max"] = max(pivots, default=0)
    m["simplex.us_per_pivot"] = 1e6 * _ratio(total(solved), sum(pivots))
    m["simplex.solved_frac"] = _ratio(len(solved), len(spx))

    checks = [i for name in calls if name.startswith("verify.") for i in of(name)]
    m["verify.checks"] = len(checks)
    m["verify.self_s"] = layer_self["verify"]
    m["verify.self_us_per_check"] = 1e6 * _ratio(layer_self["verify"], len(checks))

    model = [i for name in calls if name.startswith("model.") for i in of(name)]
    chunk = of("model.chunk_decompose")
    m["model.calls"] = len(model)
    m["model.s"] = layer_self["model"]
    m["model.chunk_decompose.us_per_call"] = 1e6 * _ratio(total(chunk), len(chunk))

    runs, writes = of("campaign.run"), of("campaign.write_outputs")
    trials = sum(spans[i][PAYLOAD] or 0 for i in runs)
    write_s = total(writes)
    campaign_self = layer_self["campaign"] - write_s  # emit_* nest under write_outputs
    m["campaign.trials"] = trials
    m["campaign.self_s"] = campaign_self
    m["campaign.self_us_per_trial"] = 1e6 * _ratio(campaign_self, trials)
    m["campaign.write_s"] = write_s

    m["trace.wall_s"] = wall_s
    m["trace.accounted_frac"] = _ratio(sum(layer_self.values()), wall_s)
    return m
