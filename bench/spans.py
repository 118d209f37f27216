"""
Spans and counters around calls into the adlv modules, installed from the
benchmark's side by replacing module attributes.  The modules call each
other (and themselves) through module globals, so a replaced attribute sees
every call, including calls made inside the same module.

A span records, per function: calls, inclusive seconds (outermost calls
only, so recursion is not counted twice) and self seconds (duration minus
the part covered by child spans).  Spans are aggregated in memory per
function and per (caller span, callee span) edge, and read out once at the
end of a pass.  Functions that run too often for a span are only counted.
"""

from __future__ import annotations

import time

# functions that open a span, per module
SPANNED = {
    "weyl": ("bruhat_leq", "all_perms"),
    "admissible": ("s_adm", "adm", "x_w_nonempty", "condition_ii_witness", "lp"),
    "semimodule": ("enumerate_extended", "enumerate_semimodules", "verify_extended",
                   "v_set"),
    "crystal": ("enumerate_weight_space", "build_construction", "xi_normalized"),
    "reduction": ("class_polynomial", "build_tree", "path_profiles"),
    "compare": ("full_report", "condition_ii", "condition_iii", "thm12_member",
                "all_top_cyclic", "point_count_identity"),
    "cli": ("main",),
}

# functions that are only counted (one call costs about a microsecond)
COUNTED = {
    "weyl": ("length",),
    "semimodule": ("valid_type",),
}

LAYERS = tuple(SPANNED)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock                      # the speed probes left out
        self.spans: dict[str, list] = {}        # key -> [calls, inclusive_s, self_s]
        self.edges: dict[tuple[str, str], list] = {}   # (caller, callee) -> [calls, s]
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []            # [key, start, child_s]
        self._active: dict[str, int] = {}
        self._seen_s_adm: set = set()
        self._caches: list = []

    # -- installation -----------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap the listed functions of each module.  A function the module
        no longer has is skipped, and its figures read 0."""
        for layer, names in SPANNED.items():
            for name in names:
                key = f"{layer}.{name}"
                self.spans[key] = [0, 0.0, 0.0]
                fn = getattr(modules[layer], name, None)
                if callable(fn):
                    setattr(modules[layer], name, self._span(key, fn))
        for layer, names in COUNTED.items():
            for name in names:
                key = f"{layer}.{name}.calls"
                self.counts[key] = 0
                fn = getattr(modules[layer], name, None)
                if callable(fn):
                    setattr(modules[layer], name, self._counter(key, fn))
        self.counts.update(dict.fromkeys(self.RESULT_COUNTS, 0))
        self._caches = [obj for obj in vars(modules["admissible"]).values()
                        if callable(getattr(obj, "cache_info", None))]

    def _counter(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, key: str, fn):
        stats = self.spans[key]
        stack, active, edges = self._stack, self._active, self.edges
        active[key] = 0
        clock = self.clock
        on_result = getattr(self, "_after_" + key.replace(".", "_"), None)

        def spanned(*args, **kwargs):
            frame = [key, clock(), 0.0]
            stack.append(frame)
            active[key] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                stack.pop()
                active[key] -= 1
                stats[0] += 1
                stats[2] += dur - frame[2]
                if not active[key]:
                    stats[1] += dur
                caller = stack[-1] if stack else None
                if caller is not None:
                    caller[2] += dur
                edge = edges.setdefault((caller[0] if caller else "", key), [0, 0.0])
                edge[0] += 1
                edge[1] += dur
            if on_result is not None:
                on_result(args, result)
            return result

        return spanned

    # -- work counts read off results -------------------------------------

    RESULT_COUNTS = ("admissible.s_adm.elements", "semimodule.extended.count",
                     "crystal.tableaux.count", "reduction.tree_edges")

    def _bump(self, key: str, k: int) -> None:
        self.counts[key] += k

    def _after_admissible_s_adm(self, args, result) -> None:
        if args and args[0] not in self._seen_s_adm:
            self._seen_s_adm.add(args[0])
            self._bump("admissible.s_adm.elements", len(result))

    def _after_semimodule_enumerate_extended(self, args, result) -> None:
        self._bump("semimodule.extended.count", len(result))

    def _after_crystal_enumerate_weight_space(self, args, result) -> None:
        self._bump("crystal.tableaux.count", len(result))

    def _after_reduction_build_tree(self, args, result) -> None:
        self._bump("reduction.tree_edges", len(result.edges))

    # -- read-out ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Flat stats of the pass so far: per span calls / s / self_s, per
        layer self_s, counters, and the admissible cache sizes."""
        flat: dict[str, float] = dict(self.counts)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for key, (calls, incl, self_s) in self.spans.items():
            flat[key + ".calls"] = calls
            flat[key + ".s"] = incl
            flat[key + ".self_s"] = self_s
            layer_self[key.split(".", 1)[0]] += self_s
        for layer, s in layer_self.items():
            flat[layer + ".self_s"] = s
        flat["admissible.cache_entries"] = sum(c.cache_info().currsize for c in self._caches)
        return flat

    def edge_table(self) -> list:
        return [[caller, callee, calls, s]
                for (caller, callee), (calls, s) in sorted(self.edges.items())]
