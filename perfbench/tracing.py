"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each traced public function, in every geohom
module that holds it (``atlas`` imports ``geo_isomorphic`` and
``make_realization`` by name, ``cli`` imports ``build_poset``, ...), with
a wrapper that counts the call and times it.  A layer's self time is the
wrapper's elapsed time minus the elapsed time of traced calls made inside
it.  Coarse calls also leave a span (id, name, start, end, parent id) in
memory; ``write_spans`` saves them when the run ends.  A traced name that
no longer exists is skipped and reads as zero calls.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import Counter, defaultdict

# module -> function -> the per-layer metrics it reports
TRACED = {
    "exact_geometry": {
        "orient": "calls",
        "proper_cross": "calls s",
        "find_general_position_violation": "calls s",
        "segments_cross_rational": "calls",
    },
    "realization": {"crossing_structure": "calls s", "make_realization": "calls s"},
    "invariants": {"signature": "calls s", "edge_crossing_graph": "calls s"},
    "graph_core": {
        "canonical_label": "calls s",
        "subgraph_embeds": "calls s",
        "chromatic_number": "calls s",
    },
    "morphisms": {
        "geo_isomorphic": "calls s",
        "find_geo_homomorphisms": "calls s",
        "brute_force_injective_geo_homomorphisms": "calls s",
        "prop_conditions": "calls s",
        "explain_non_precedence": "calls s",
    },
    # enumerate_classes' self time is reported as atlas.kernel_s
    "atlas": {
        "enumerate_classes": "calls",
        "assign_paper_labels": "s",
        "load_atlas": "s",
        "save_atlas": "s",
    },
    "poset": {"build_poset": "calls s", "validate_poset": "s", "transitive_reduction": "s"},
    "verify": {
        name: "s"
        for name in (
            "build_artifacts",
            "pin_reference_labels",
            "check_atlas_counts",
            "check_crossing_histogram",
            "check_parity_property",
            "check_invariant_anchors",
            "check_cover_pattern",
            "check_non_precedence_facts",
            "check_condition_soundness",
            "check_poset_structure",
            "check_thickness_claims",
            "check_oracle_equivalence",
        )
    },
    "cli": {
        name: "s"
        for name in ("cmd_enumerate", "cmd_verify", "cmd_hom", "cmd_poset", "cmd_export")
    },
}

# called millions of times per verify, or only as the oracle: counted, not timed
COUNT_ONLY = {"exact_geometry.orient", "exact_geometry.segments_cross_rational"}
# called per point set or per search: timed in aggregate, no span kept
NO_SPAN = {
    "exact_geometry.proper_cross",
    "exact_geometry.find_general_position_violation",
    "realization.crossing_structure",
    "realization.make_realization",
    "invariants.edge_crossing_graph",
    "graph_core.canonical_label",
    "graph_core.subgraph_embeds",
    "graph_core.chromatic_number",
    "morphisms.geo_isomorphic",
    "morphisms.find_geo_homomorphisms",
    "morphisms.prop_conditions",
}

DERIVED = (
    ("atlas.samples", "count"),
    ("atlas.samples_per_s", "1/s"),
    ("atlas.useful_sample_share", "ratio"),
    ("atlas.memo_misses", "count"),
    ("atlas.new_class_share", "ratio"),
    ("atlas.kernel_s", "s"),
    ("morphisms.hom_share", "ratio"),
    ("trace.overhead_s", "s"),
)
# drawings observed per non-degenerate point set
_DRAWINGS_PER_SET = {"k33": 10, "k6": 1}


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for module, functions in TRACED.items():
        for name, kinds in functions.items():
            for kind in kinds.split():
                out.append((f"{module}.{name}.{kind}", "count" if kind == "calls" else "s"))
    return out + list(DERIVED)


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.by_binding: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.related = 0
        self.enumerations: list[dict] = []
        self.spans: list[tuple] = []
        self._active: Counter = Counter()
        self._stack: list[list] = []
        self._next_id = itertools.count().__next__
        self._patched: list[tuple] = []
        self._ticks: dict[str, itertools.count] = {}

    # -- installation --------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "geohom" or name.startswith("geohom.")
        }
        for home, names in TRACED.items():
            home_mod = modules.get(f"geohom.{home}")
            for fname in names:
                fn = getattr(home_mod, fname, None)
                if fn is None:
                    continue
                key = f"{home}.{fname}"
                for mod_name, mod in modules.items():
                    if getattr(mod, fname, None) is fn:
                        self._patched.append((mod, fname, fn))
                        setattr(mod, fname, self._wrap(key, fn, mod_name))

    def uninstall(self) -> None:
        for mod, fname, fn in reversed(self._patched):
            setattr(mod, fname, fn)
        self._patched.clear()
        for key, ticks in self._ticks.items():
            self.calls[key] = next(ticks)
        self._ticks.clear()

    def _wrap(self, key: str, fn, binding: str):
        if key in COUNT_ONLY:
            ticks = self._ticks.setdefault(key, itertools.count())
            tick = ticks.__next__

            def counted(*args, **kwargs):
                tick()
                return fn(*args, **kwargs)

            return counted

        calls, by_binding = self.calls, self.by_binding
        self_s, total_s = self.self_s, self.total_s
        active, stack, spans = self._active, self._stack, self.spans
        next_id, clock = self._next_id, time.perf_counter
        keep_span = key not in NO_SPAN

        def timed(*args, **kwargs):
            calls[key] += 1
            by_binding[key, binding] += 1
            parent = stack[-1][1] if stack else -1
            span_id = next_id() if keep_span else parent
            frame = [0.0, span_id]
            stack.append(frame)
            active[key] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self_s[key] += elapsed - frame[0]
                active[key] -= 1
                if not active[key]:
                    total_s[key] += elapsed
                if stack:
                    stack[-1][0] += elapsed
                if keep_span:
                    spans.append((span_id, key, start, end, parent))

        if key == "morphisms.find_geo_homomorphisms":
            def searched(*args, **kwargs):
                maps = timed(*args, **kwargs)
                self.related += bool(maps)
                return maps

            return searched
        if key == "atlas.enumerate_classes":
            return self._probe_enumeration(timed)
        return timed

    def _probe_enumeration(self, timed):
        """Record each enumeration's samples, classes and the dedup work
        done inside it."""

        def probe(*args, **kwargs):
            calls_before = Counter(self.calls)
            iso_before = self.total_s["morphisms.geo_isomorphic"]
            misses_before = self.by_binding["realization.make_realization", "geohom.atlas"]
            start = time.perf_counter()
            atlas = timed(*args, **kwargs)
            elapsed = time.perf_counter() - start
            calls = self.calls - calls_before
            target = args[0] if args else kwargs["target"]
            cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
            used = cfg if cfg is not None else sys.modules["geohom.atlas"].EnumerationConfig()
            drawings = sum(c.discovery_count for c in atlas.classes)
            self.enumerations.append({
                "target": target,
                "mode": used.mode,
                "seed": used.seed,
                "bound": used.coordinate_bound,
                "window": used.stabilization_window,
                "samples": drawings // _DRAWINGS_PER_SET[target],
                "classes": len(atlas.classes),
                "complete": atlas.complete,
                "s": elapsed,
                "memo_misses": self.by_binding[
                    "realization.make_realization", "geohom.atlas"
                ] - misses_before,
                "geo_isomorphic": calls["morphisms.geo_isomorphic"],
                "geo_isomorphic_s": self.total_s["morphisms.geo_isomorphic"] - iso_before,
                "crossing_structure": calls["realization.crossing_structure"],
            })
            return atlas

        return probe

    # -- results -------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict[str, float]:
        values: dict[str, float] = {}
        for module, functions in TRACED.items():
            for name, kinds in functions.items():
                key = f"{module}.{name}"
                for kind in kinds.split():
                    values[f"{key}.{kind}"] = (
                        self.calls[key] if kind == "calls" else self.self_s[key]
                    )
        samples = sum(e["samples"] for e in self.enumerations)
        useful = sum(e["samples"] - e["window"] for e in self.enumerations if e["complete"])
        classes = sum(e["classes"] for e in self.enumerations)
        enum_s = self.total_s["atlas.enumerate_classes"]
        misses = self.by_binding["realization.make_realization", "geohom.atlas"]
        searches = self.calls["morphisms.find_geo_homomorphisms"]
        values.update({
            "atlas.samples": samples,
            "atlas.samples_per_s": samples / enum_s if enum_s else 0.0,
            "atlas.useful_sample_share": useful / samples if samples else 0.0,
            "atlas.memo_misses": misses,
            "atlas.new_class_share": classes / misses if misses else 0.0,
            "atlas.kernel_s": self.self_s["atlas.enumerate_classes"],
            "morphisms.hom_share": self.related / searches if searches else 0.0,
            "trace.overhead_s": overhead_s,
        })
        return values

    def table(self) -> list[str]:
        """Human-readable per-function lines: calls, self and inclusive time."""
        lines = [f"{'function':52} {'calls':>10} {'self s':>9} {'total s':>9}"]
        for key in sorted(self.calls, key=lambda k: -self.total_s.get(k, 0.0)):
            timed = key not in COUNT_ONLY
            lines.append(
                f"{key:52} {self.calls[key]:>10}"
                + (f" {self.self_s[key]:>9.3f} {self.total_s[key]:>9.3f}" if timed else "")
            )
        for e in self.enumerations:
            lines.append(
                f"enumerate {e['target']} {e['mode']} seed {e['seed']} bound {e['bound']}:"
                f" {e['samples']} samples, {e['classes']} classes,"
                f" last new class at sample {e['samples'] - e['window']},"
                f" {e['memo_misses']} memo misses, {e['geo_isomorphic']} geo_isomorphic"
                f" ({e['geo_isomorphic_s']:.3f} s), {e['crossing_structure']}"
                f" crossing_structure, {e['s']:.3f} s"
            )
        return lines

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, key, start, end, parent in sorted(self.spans):
                fh.write(json.dumps({
                    "id": span_id, "name": key, "start": start,
                    "end": end, "parent": parent,
                }) + "\n")
