"""Layer spans for the benchmark, installed from outside the package.

Each traced function of ``dpalg`` is replaced by a wrapper that records, under
``<layer>.<name>``:

- ``.calls``  number of calls;
- ``.s``      inclusive seconds, counted once per outermost call when the
              function re-enters itself;
- ``.self_s`` seconds minus the time spent in traced callees.

``oracle`` and ``kahler`` bind linalg and dpcore names with ``from .x import
y``, so a wrapper must replace the function in every namespace that holds it;
otherwise its span silently reads zero.  ``install`` does that for every
``dpalg`` module and for module-level dicts such as ``suites.SUITES``.

Probes compute matrix sizes and entry bits after a span closes; the time they
take is excluded from every open span, so the counters do not inflate the
timings they sit next to.
"""

import functools
import importlib
import pkgutil
import sys
from collections import defaultdict
from time import perf_counter

def _input_size(stats, prefix, args, kwargs):
    rows = args[0]
    ncols = args[1] if len(args) > 1 else kwargs.get("ncols")
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    stats[prefix + ".cells"] += len(rows) * ncols
    stats[prefix + ".max_rows"] = max(stats[prefix + ".max_rows"], len(rows))
    stats[prefix + ".max_cols"] = max(stats[prefix + ".max_cols"], ncols)


def _entry_bits(stats, values):
    bits = max((abs(v).bit_length() for v in values), default=0)
    stats["linalg.max_entry_bits"] = max(stats["linalg.max_entry_bits"], bits)


def _hermite_probe(stats, prefix, args, kwargs, result):
    _input_size(stats, prefix, args, kwargs)
    _entry_bits(stats, (v for row in result for v in row))


def _smith_probe(stats, prefix, args, kwargs, result):
    _input_size(stats, prefix, args, kwargs)
    _entry_bits(stats, result)


def _solve_probe(stats, prefix, args, kwargs, result):
    if result is None:
        stats[prefix + ".none"] += 1


def _record_probe(stats, prefix, args, kwargs, result):
    stats["report.checks"] += 1
    stats.laws.add(args[1] if len(args) > 1 else kwargs["law"])


# (module, attribute path, metric prefix, probe).  A dotted path names a method.
TARGETS = (
    ("linalg", "solve_in_lattice", "linalg.solve_in_lattice", _solve_probe),
    ("linalg", "hermite_form", "linalg.hermite_form", _hermite_probe),
    ("linalg", "smith_diagonal", "linalg.smith_diagonal", _smith_probe),
    ("linalg", "kernel_basis_mod", "linalg.kernel_basis_mod", None),
    ("linalg", "cokernel_factors", "linalg.cokernel_factors", None),
    ("oracle", "fold_kernel", "oracle.fold_kernel", None),
    ("oracle", "OmegaOracle.__init__", "oracle.OmegaOracle", None),
    ("oracle", "OmegaOracle.to_kernel_coords", "oracle.to_kernel_coords", None),
    ("oracle", "OmegaOracle.class_is_zero", "oracle.class_is_zero", None),
    ("oracle", "verify_main_theorem", "oracle.verify_main_theorem", None),
    ("oracle", "verify_indecomposables", "oracle.verify_indecomposables", None),
    ("dpcore", "DPElement.__mul__", "dpcore.mul", None),
    ("dpcore", "divided_power", "dpcore.divided_power", None),
    ("dpcore", "dp_map_apply", "dpcore.dp_map_apply", None),
    ("dpcore", "coordinates", "dpcore.coordinates", None),
    ("dpcore", "basis_of_weight", "dpcore.basis_of_weight", None),
    ("beck", "UModule.act", "beck.act", None),
    ("beck", "UModule.phi_p", "beck.phi_p", None),
    ("beck", "UModule.phi_n", "beck.phi_n", None),
    ("beck", "semidirect_gamma", "beck.semidirect_gamma", None),
    ("kahler", "universal_derivation", "kahler.universal_derivation", None),
    ("kahler", "omega_coordinates", "kahler.omega_coordinates", None),
    ("kahler", "omega_free_basis", "kahler.omega_free_basis", None),
    ("kahler", "omega_as_umodule", "kahler.omega_as_umodule", None),
    ("kahler", "universal_derivation_table", "kahler.universal_derivation_table", None),
    ("kahler", "is_dp_derivation", "kahler.is_dp_derivation", None),
    ("kahler", "presentation_relations", "kahler.presentation_relations", None),
    ("kahler", "presentation_of_omega", "kahler.presentation_of_omega", None),
    ("report", "CheckReport.record", "report.record", _record_probe),
    ("cli", "run", "cli.run", None),
    ("suites", "suite_axioms", "suites.suite_axioms", None),
    ("suites", "suite_beck", "suites.suite_beck", None),
)


class Stats(defaultdict):
    """Metric name -> number, plus the set of law names seen."""

    def __init__(self):
        super().__init__(float)
        self.laws = set()


class Tracer:
    """Open-span stack and per-metric totals for one pass."""

    def __init__(self):
        self.stats = Stats()
        self.stack = []  # one [child seconds, paused seconds] per open span
        self.depth = defaultdict(int)  # re-entry depth per prefix
        self.timed = False  # True while the pass's timed part runs
        self.layer_self = defaultdict(float)  # layer -> self seconds in the timed part
        self.top_level = 0.0  # seconds of timed-part spans with no traced caller
        self.probe_s = 0.0  # seconds of timed-part probes, excluded from every span

    def wrap(self, fn, prefix, probe):
        stats, stack, depth = self.stats, self.stack, self.depth
        layer = prefix.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, 0.0]
            stack.append(frame)
            depth[prefix] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[prefix] -= 1
                span = end - start - frame[1]
                self_s = span - frame[0]
                stats[prefix + ".calls"] += 1
                stats[prefix + ".self_s"] += self_s
                if not depth[prefix]:
                    stats[prefix + ".s"] += span
                if stack:
                    stack[-1][0] += span
                if self.timed:
                    self.layer_self[layer] += self_s
                    if not stack:
                        self.top_level += span
            if probe is not None:
                probe(stats, prefix, args, kwargs, result)
                paused = perf_counter() - end
                for open_frame in stack:
                    open_frame[1] += paused
                if self.timed:
                    self.probe_s += paused
            return result

        return traced

    def install(self):
        """Wrap every target in every namespace that bound it."""
        package = importlib.import_module("dpalg")
        modules = [package] + [importlib.import_module(f"dpalg.{info.name}")
                               for info in pkgutil.iter_modules(package.__path__)]
        replaced = {}
        for module_name, path, prefix, probe in TARGETS:
            owner = sys.modules[f"dpalg.{module_name}"]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            wrapper = self.wrap(original, prefix, probe)
            setattr(owner, attr, wrapper)
            if not classes:
                replaced[id(original)] = wrapper
        for module in modules:
            namespace = vars(module)
            for name, value in list(namespace.items()):
                if id(value) in replaced:
                    namespace[name] = replaced[id(value)]
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in replaced:
                            value[key] = replaced[id(item)]

    def metrics(self, verdict_s):
        """Totals with derived ratios; layer shares are of the timed part.

        ``verdict_s`` is the traced pass's timed part; probe time comes off it.
        """
        verdict_s -= self.probe_s
        out = dict(self.stats)
        out["report.laws"] = len(self.stats.laws)
        solves = out.get("linalg.solve_in_lattice.calls", 0)
        out["linalg.solve_in_lattice.none_share"] = (
            out.get("linalg.solve_in_lattice.none", 0) / solves if solves else 0.0
        )
        for layer, seconds in self.layer_self.items():
            out[f"share.{layer}"] = seconds / verdict_s
        out["trace.uncovered_share"] = max(0.0, verdict_s - self.top_level) / verdict_s
        return out
