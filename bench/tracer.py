"""Outside-in spans around the public functions of each posetdegen module.

`Tracer.install` replaces every listed function with a timing wrapper in every
posetdegen module namespace that binds it, so calls through `from ... import`
names (`degeneration.linear_extension_indices`, `marked.subdivide`,
`cli.validate_relative_structure`) are seen too.  A span's self time is its
duration minus the time of the spans it calls.  Counts come from arguments
and return values only; no lazily cached property of the library is read.
"""

import sys
import time

SPANS = (
    "cli.parse_poset_file",
    "cli.parse_weights_file",
    "cli.emit_report",
    "posets.validate_relative_structure",
    "posets.linear_extension_indices",
    "lattice.enumerate_ideals",
    "lattice.sublattice_to_order",
    "lattice.star",
    "polytopes.packed_dilation",
    "polytopes.check_normality",
    "degeneration.cone_position",
    "degeneration.subdivide",
    "degeneration.affine_lift_on_chain",
    "degeneration.ideal_presentation",
    "marked.standardize",
    "marked.mrpp_points",
    "marked.mrpp_subdivide",
    "marked.mcop_build",
    "marked.mcop_recognize",
    "flag.flag_polytope",
    "flag.flag_degeneration",
    "linalg.extreme_points",
    "linalg.in_convex_hull",
    "linalg.affine_dimension",
)

COUNTS = (
    "lattice.enumerate_ideals.ideals",
    "posets.validate_relative_structure.pairs",
    "posets.linear_extension_indices.linearizations",
    "degeneration.subdivide.parts",
    "polytopes.packed_dilation.points",
    "marked.mrpp_points.points",
    "linalg.extreme_points.candidates",
    "linalg.extreme_points.vertices",
    "marked.mcop_build.box_points",
    "cli.emit_report.bytes",
)

# Spans each workload must reach at least once in a traced pass.
REQUIRED = {
    "subdivide-grid": (
        "degeneration.affine_lift_on_chain", "degeneration.subdivide",
        "lattice.sublattice_to_order", "lattice.enumerate_ideals",
        "posets.linear_extension_indices", "cli.emit_report",
    ),
    "lattice-enum": (
        "posets.validate_relative_structure", "polytopes.packed_dilation",
        "polytopes.check_normality",
    ),
    "marked-flag": (
        "linalg.in_convex_hull", "marked.mcop_build", "marked.mrpp_points",
    ),
}


class Frame:
    __slots__ = ("args", "child_s", "ideals")

    def __init__(self, args):
        self.args = args
        self.child_s = 0.0
        self.ideals = None


def _count_enumerate_ideals(tracer, frame, result):
    tracer.counts["lattice.enumerate_ideals.ideals"] += len(result)
    parent = tracer.stack[-1] if tracer.stack else None
    if parent is not None and parent.args and parent.args[0] is frame.args[0]:
        parent.ideals = len(result)  # the validated structure's lattice


def _count_validate(tracer, frame, result):
    size = frame.ideals or 0
    tracer.counts["posets.validate_relative_structure.pairs"] += size * (size - 1) // 2


def _count_mcop_build(tracer, frame, result):
    poset, marking = frame.args[:2]
    values = [int(v) for _, v in marking.items()]
    free = poset.n - len(values)
    tracer.counts["marked.mcop_build.box_points"] += (max(values) - min(values) + 1) ** free


def _count_extreme_points(tracer, frame, result):
    tracer.counts["linalg.extreme_points.candidates"] += len(frame.args[0])
    tracer.counts["linalg.extreme_points.vertices"] += len(result)


def _counter(name):
    def count(tracer, frame, result):
        tracer.counts[name] += len(result)
    return count


COUNTERS = {
    "lattice.enumerate_ideals": _count_enumerate_ideals,
    "posets.validate_relative_structure": _count_validate,
    "posets.linear_extension_indices": _counter("posets.linear_extension_indices.linearizations"),
    "degeneration.subdivide": _counter("degeneration.subdivide.parts"),
    "polytopes.packed_dilation": _counter("polytopes.packed_dilation.points"),
    "marked.mrpp_points": _counter("marked.mrpp_points.points"),
    "marked.mcop_build": _count_mcop_build,
    "linalg.extreme_points": _count_extreme_points,
}


class Tracer:
    """Per-span call counts and self times plus the counts above; `reset`
    starts a new pass."""

    def __init__(self):
        self.stack = []
        self._patched = []
        self.reset()

    def reset(self):
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)

    def _wrap(self, name, fn):
        stack = self.stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def span(*args, **kwargs):
            frame = Frame(args)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - frame.child_s
                if stack:
                    stack[-1].child_s += elapsed
            if counter is not None:
                counter(self, frame, result)
            return result

        span.__wrapped__ = fn
        return span

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "posetdegen" or key.startswith("posetdegen.")]
        for name in SPANS:
            module_name, func = name.split(".")
            original = getattr(sys.modules[f"posetdegen.{module_name}"], func)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def pass_metrics(self):
        """This pass's per-layer values, named `<module>.<function>.<what>`."""
        out = {}
        for name in SPANS:
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.calls"] = self.calls[name]
        out.update(self.counts)
        lifts = self.calls["degeneration.affine_lift_on_chain"]
        out["degeneration.subdivide.parts_per_lift"] = (
            self.counts["degeneration.subdivide.parts"] / lifts if lifts else 0.0)
        candidates = self.counts["linalg.extreme_points.candidates"]
        out["linalg.extreme_points.vertex_ratio"] = (
            self.counts["linalg.extreme_points.vertices"] / candidates if candidates else 0.0)
        return out
