"""Span recorder for the traced benchmark run.

The recorder replaces semigrad's public layer functions with wrappers that
record a span (name, start, end, parent) per call, keeps the spans in memory
and puts every original back on `uninstall`.  Functions are replaced in every
`semigrad.*` module that bound them by name, so callers that did
`from .paths import noise_block` are traced too.

Fork workers: the `engine.map_blocks` wrapper hands the pool a block function
that collects the spans and counters recorded while computing the block and
returns them with the block's result; the parent merges them.  A traced run
therefore keeps the workload's worker count.
"""

from __future__ import annotations

import collections
import itertools
import os
import sys
import time

# spans that own the block loops they hand to map_blocks
OWNERS = (
    "estimators.pathwise_gradient", "estimators.bel_gradient",
    "estimators.bel_hessian", "estimators.potential_gradient",
    "estimators.hessian_flow_gradient", "estimators.score_gradient",
    "estimators.lie_group_gradient", "forms.q_form_semigroup",
    "diagnostics.finite_difference_oracle",
)

# span name -> (module, attribute) of the function it wraps
FUNCTIONS = {
    "paths.noise_block": ("semigrad.paths", "noise_block"),
    "models.rotation_exp": ("semigrad.models", "rotation_exp"),
    "models.apply_coeff": ("semigrad.models", "apply_coeff"),
    "models.apply_right_inverse": ("semigrad.models", "apply_right_inverse"),
    "variation.first_variation_step": ("semigrad.variation", "first_variation_step"),
    "variation.second_variation_step": ("semigrad.variation", "second_variation_step"),
    "variation.hessian_flow_step": ("semigrad.variation", "hessian_flow_step"),
    "variation.transport_step": ("semigrad.variation", "transport_step"),
    "engine.scalar_stats": ("semigrad.engine", "scalar_stats"),
    "engine.combine_scalar": ("semigrad.engine", "combine_scalar"),
    "cli.run_experiment": ("semigrad.cli", "run_experiment"),
    **{name: ("semigrad." + name.split(".")[0], name.split(".")[1]) for name in OWNERS},
}

# span name -> (class, method)
METHODS = {
    "models.metric_dot": ("DiffusionModel", "metric_dot"),
    "models.ad_inverse": ("LieGroupModel", "ad_inverse"),
}


class Recorder:
    def __init__(self):
        self.spans = []      # (span id, parent id, name, start, end, is_block)
        self.counts = collections.Counter()
        self.stack = []      # (span id, name) of the open spans
        self._ids = itertools.count()
        self._undo = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name, fn, *, block=False):
        stack, ids = self.stack, self._ids

        def traced(*args, **kwargs):
            sid = (os.getpid(), next(ids))
            parent = stack[-1][0] if stack else None
            stack.append((sid, name))
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, t0, t1, block))

        return traced

    def owner(self) -> str:
        for _, name in reversed(self.stack):
            if name in OWNERS:
                return name
        return "engine.block"

    def _collect(self, fn):
        """Run fn() with fresh span and counter stores; return (result, (spans, counts))."""
        saved = self.spans, self.counts
        self.spans, self.counts = [], collections.Counter()
        try:
            out = fn()
            return out, (self.spans, dict(self.counts))
        finally:
            self.spans, self.counts = saved

    # -- installing ----------------------------------------------------------

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _replace_everywhere(self, original, replacement):
        for modname, module in list(sys.modules.items()):
            if modname == "semigrad" or modname.startswith("semigrad."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, replacement)

    def install(self, semigrad):
        """Wrap every traced layer of an imported semigrad package."""
        if self._undo:
            raise RuntimeError("recorder already installed")
        for name, (modname, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(name, original)
            if name == "paths.noise_block":
                wrapper = self._count_noise(wrapper)
            self._replace_everywhere(original, wrapper)
        for name, (cls_name, attr) in METHODS.items():
            cls = getattr(semigrad.models, cls_name)
            self._set(cls, attr, self.wrap(name, vars(cls)[attr]))
        engine = semigrad.engine
        self._set(engine, "map_blocks", self._traced_map_blocks(engine))
        for sid in semigrad.registry.scenario_ids():
            scenario = semigrad.registry.get_scenario(sid)
            self._set(scenario, "make", self._traced_make(scenario.make))

    def uninstall(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def _count_noise(self, traced):
        def noise_block(grid, seed, lo, hi, m, stream=0):
            out = traced(grid, seed, lo, hi, m, stream)
            self.counts["paths.noise_block.normals"] += out.size
            self.counts["paths.noise_block.bytes"] += out.nbytes
            return out

        return noise_block

    def _traced_map_blocks(self, engine):
        original = engine.map_blocks
        timed = self.wrap("engine.map_blocks", original)

        def map_blocks(n_paths, block_fn, *, threads=None,
                       block_size=engine.DEFAULT_BLOCK_SIZE):
            owner = self.owner()
            block_span = self.wrap(owner, block_fn, block=True)

            def collected_block(lo, hi):
                return self._collect(lambda: block_span(lo, hi))

            pairs = timed(n_paths, collected_block, threads=threads,
                          block_size=block_size)
            n_blocks = len(engine.block_ranges(n_paths, block_size))
            self.counts["engine.map_blocks.blocks"] += n_blocks
            workers = min(engine.resolve_threads(threads), n_blocks)
            self.counts["engine.map_blocks.workers"] = max(
                self.counts["engine.map_blocks.workers"], workers)
            results = []
            for out, (spans, counts) in pairs:
                self.spans.extend(spans)
                self.counts.update(counts)
                results.append(out)
            return results

        return map_blocks

    def _traced_make(self, make):
        def traced_make():
            model = make()
            geom = model.geometry
            if geom is not None:
                if geom.step is not None:
                    geom.step = self.wrap("models.geometry_step", geom.step)
                geom.retract = self.wrap("models.retract", geom.retract)
            return model

        return traced_make


# -- reading the spans back ----------------------------------------------------


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def summarize(spans):
    """Per span name: calls, inclusive seconds and self seconds.

    Self time is a span's duration minus the part of it that its child spans
    cover; children recorded in parallel workers are merged before subtracting.
    """
    children = collections.defaultdict(list)
    for sid, parent, _, t0, t1, _ in spans:
        children[parent].append((t0, t1))
    calls = collections.Counter()
    incl = collections.Counter()
    self_s = collections.Counter()
    for sid, _, name, t0, t1, block in spans:
        if not block:
            calls[name] += 1
            incl[name] += t1 - t0
        self_s[name] += (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
    return calls, incl, self_s
