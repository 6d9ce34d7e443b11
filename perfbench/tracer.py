"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` rebinds each traced function, in every ``constella``
module that holds it, to a wrapper that records a span (name, start, end,
parent, run id) in memory; ``uninstall`` puts the originals back.  Hot
functions get a counting wrapper instead of a span.  Self time is a span's
duration minus the time covered by its child spans.
"""

import sys
from collections import defaultdict
from time import perf_counter

# module -> functions wrapped in a span
SPANNED = {
    "cli": ("main",),
    "theorems": (
        "run_all",
        "check_fixture_validation",
        "check_classification_golden",
        "check_roundtrip",
        "check_morphism_bijection",
        "check_szendrei_coherence",
        "check_universal_property",
        "check_section7",
        "check_census_bijectivity",
    ),
    "morphism": ("enumerate_morphisms",),
    "enumerate": (
        "enumerate_lr_semigroupoids",
        "enumerate_li_constellations",
        "dedupe_up_to_iso",
    ),
    "constellation": ("check_constellation", "check_locally_inductive"),
    "core": ("check_semigroupoid", "check_left_restriction", "natural_order"),
    "functor": ("build_C", "build_G", "roundtrip_check"),
    "szendrei": (
        "expand_constellation",
        "expand_semigroupoid",
        "extend",
        "generation_decomposition",
    ),
    "classify": ("classify_constellation", "classify_semigroupoid"),
    "io": ("parse_structure", "render_report"),
}

# module -> hot functions that are only counted
COUNTED = {
    "enumerate": ("are_isomorphic",),
    "constellation": ("corestriction",),
}

# generator functions: each resumption is a span of its own
GENERATORS = {"enumerate_lr_semigroupoids", "enumerate_li_constellations"}

MORPHISM_KINDS = ("rm", "pm", "ir", "ip")

MARK = "__perfbench_wrapper__"


def _constella_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "constella" or name.startswith("constella."))]


def installed_wrappers():
    """(module, name) of every tracer wrapper bound in a constella module."""
    return [(m.__name__, attr) for m in _constella_modules()
            for attr, value in vars(m).items() if getattr(value, MARK, False)]


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.request = None
        self.spans = []          # (id, name, start, end, parent id, run id, request)
        self.stack = []          # [span id, child time]
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._restore = []

    # --- recording ---------------------------------------------------------

    def _enter(self):
        span_id = len(self.spans) + len(self.stack)
        self.stack.append([span_id, 0.0])
        return perf_counter()

    def _exit(self, name, start):
        end = perf_counter()
        span_id, child = self.stack.pop()
        duration = end - start
        parent = self.stack[-1][0] if self.stack else None
        if self.stack:
            self.stack[-1][1] += duration
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self.calls[name] += 1
        self.spans.append((span_id, name, start, end, parent, self.run_id, self.request))

    def _span(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            start = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(label, start)
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result
        return wrapper

    def _generator(self, name, fn):
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)

            def resumed():
                while True:
                    start = self._enter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._exit(name, start)
                    self.counts["enumerate.yielded"] += 1
                    yield item
            return resumed()
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # --- installation ------------------------------------------------------

    def _wrapper_for(self, module, fname, fn):
        name = f"{module}.{fname}"
        if fname in GENERATORS:
            return self._generator(name, fn)
        if fname == "enumerate_morphisms":
            return self._span(_morphism_label, fn, _count_morphisms)
        return self._span(name, fn, _AFTER.get(name))

    def install(self):
        modules = _constella_modules()
        for table, counted in ((SPANNED, False), (COUNTED, True)):
            for module, names in table.items():
                home = sys.modules[f"constella.{module}"]
                for fname in names:
                    original = getattr(home, fname)
                    wrapper = (self._counter(f"{module}.{fname}.calls", original)
                               if counted else self._wrapper_for(module, fname, original))
                    setattr(wrapper, MARK, True)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is original:
                                setattr(m, attr, wrapper)
                                self._restore.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in reversed(self._restore):
            setattr(m, attr, original)
        self._restore = []

    # --- results -----------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        s, calls, counts = self.self_s, self.calls, self.counts
        out = {}
        named = ("check_roundtrip", "check_morphism_bijection", "check_universal_property")
        for check in named:
            out[f"theorems.{check}.s"] = (s[f"theorems.{check}"], "s")
        out["theorems.other.s"] = (
            sum(v for k, v in s.items() if k.startswith("theorems.")
                and k.split(".")[1] not in named), "s")
        candidates = accepted = 0
        for kind in MORPHISM_KINDS:
            key = f"morphism.enumerate_{kind}"
            out[f"{key}.s"] = (s[key], "s")
            out[f"{key}.calls"] = (calls[key], "count")
            out[f"{key}.candidates"] = (counts[f"{key}.candidates"], "count")
            out[f"{key}.accepted"] = (counts[f"{key}.accepted"], "count")
            candidates += counts[f"{key}.candidates"]
            accepted += counts[f"{key}.accepted"]
        out["morphism.candidates"] = (candidates, "count")
        out["morphism.accept_ratio"] = (accepted / candidates if candidates else 0.0, "ratio")
        out["enumerate.lrs.s"] = (s["enumerate.enumerate_lr_semigroupoids"], "s")
        out["enumerate.lic.s"] = (s["enumerate.enumerate_li_constellations"], "s")
        out["enumerate.yielded"] = (counts["enumerate.yielded"], "count")
        out["enumerate.dedupe.s"] = (s["enumerate.dedupe_up_to_iso"], "s")
        out["enumerate.are_isomorphic.calls"] = (counts["enumerate.are_isomorphic.calls"], "count")
        for fname in ("check_constellation", "check_locally_inductive"):
            out[f"constellation.{fname}.s"] = (s[f"constellation.{fname}"], "s")
            out[f"constellation.{fname}.calls"] = (calls[f"constellation.{fname}"], "count")
        out["constellation.corestriction.calls"] = (
            counts["constellation.corestriction.calls"], "count")
        out["constellation.violations"] = (counts["constellation.violations"], "count")
        for fname in ("check_semigroupoid", "check_left_restriction"):
            out[f"core.{fname}.s"] = (s[f"core.{fname}"], "s")
            out[f"core.{fname}.calls"] = (calls[f"core.{fname}"], "count")
        out["core.natural_order.s"] = (s["core.natural_order"], "s")
        for fname in SPANNED["functor"]:
            out[f"functor.{fname}.s"] = (s[f"functor.{fname}"], "s")
        for fname in SPANNED["szendrei"]:
            out[f"szendrei.{fname}.s"] = (s[f"szendrei.{fname}"], "s")
        out["szendrei.elements"] = (counts["szendrei.elements"], "count")
        for fname in SPANNED["classify"]:
            out[f"classify.{fname}.s"] = (s[f"classify.{fname}"], "s")
        out["io.parse_structure.s"] = (s["io.parse_structure"], "s")
        out["io.parse_structure.calls"] = (calls["io.parse_structure"], "count")
        out["io.parse_structure.bytes"] = (counts["io.parse_structure.bytes"], "bytes")
        out["io.render_report.s"] = (s["io.render_report"], "s")
        out["cli.main.s"] = (self.total_s["cli.main"], "s")
        out["cli.overhead_s"] = (self.total_s["cli.main"] - self.total_s["theorems.run_all"], "s")
        return out

    def self_sum(self):
        return sum(self.self_s.values())


def _morphism_args(args, kwargs):
    bound = dict(zip(("kind", "source", "target"), args))
    bound.update(kwargs)
    return bound


def _morphism_label(args, kwargs):
    kind = _morphism_args(args, kwargs)["kind"]
    return f"morphism.enumerate_{kind if kind in MORPHISM_KINDS else 'other'}"


def _count_morphisms(counts, args, kwargs, result):
    bound = _morphism_args(args, kwargs)
    key = _morphism_label(args, kwargs)
    counts[f"{key}.candidates"] += len(bound["target"].carrier) ** len(bound["source"].carrier)
    counts[f"{key}.accepted"] += len(result)


def _count_violations(counts, args, kwargs, result):
    counts["constellation.violations"] += len(result.violations)


def _count_elements(counts, args, kwargs, result):
    counts["szendrei.elements"] += len(result.carrier)


def _count_bytes(counts, args, kwargs, result):
    counts["io.parse_structure.bytes"] += len(args[0])


_AFTER = {
    "constellation.check_constellation": _count_violations,
    "constellation.check_locally_inductive": _count_violations,
    "szendrei.expand_constellation": _count_elements,
    "szendrei.expand_semigroupoid": _count_elements,
    "io.parse_structure": _count_bytes,
}
