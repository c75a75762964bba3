"""In-memory spans around the public entry points of each phigamma module.

Tracer.install() replaces every entry point listed in ENTRY_POINTS with a
timing wrapper, in the defining module and in every phigamma module that
imported it by name (cli binds its own ``cohomology``), and on the class
for methods.  No file under src/ changes.  Each call records a span
(name, start, end, parent span); the per-layer figures are folded in as
spans close:

- L.self_s: time inside L's entry points minus time in child spans of
  other layers; a call into L made from inside L counts once.
- L.calls / L.errors: entries into L from outside L, and how many raised.
- <layer>.<entry>.self_s / .calls: per entry point, minus all child spans.
"""

from __future__ import annotations

import functools
import sys

# layer -> ((attribute path in phigamma.<layer>, metric name), ...)
ENTRY_POINTS = {
    "wittside": (
        ("ArithLiftElement.__add__", "lift_add"),
        ("ArithLiftElement.__sub__", "lift_sub"),
        ("ArithLiftElement.__neg__", "lift_neg"),
        ("ArithLiftElement.__mul__", "lift_mul"),
        ("ArithLiftElement.__pow__", "lift_pow"),
        ("ArithLiftElement.gamma", "lift_gamma"),
        ("ArithLiftElement.inverse", "lift_inverse"),
        ("ArithLiftElement.substitute", "lift_substitute"),
        ("binomial_mod_ps", "binomial_mod_ps"),
        ("witt_add", "witt_add"), ("witt_sub", "witt_sub"),
        ("witt_mul", "witt_mul"), ("witt_neg", "witt_neg"),
        ("witt_inverse", "witt_inverse"),
        ("ghost_check", "ghost_check"), ("teichmuller", "teichmuller"),
    ),
    "normfield": (
        ("NormFieldElement.__add__", "add"),
        ("NormFieldElement.__sub__", "sub"),
        ("NormFieldElement.__neg__", "neg"),
        ("NormFieldElement.__mul__", "mul"),
        ("NormFieldElement.__pow__", "pow"),
        ("NormFieldElement.gamma", "gamma"),
        ("NormFieldElement.inverse", "inverse"),
        ("parse_element", "parse_element"),
        ("format_element", "format_element"),
    ),
    "complexes": tuple((n, n) for n in (
        "herr_complex", "cohomology", "delta_project", "certify_d_squared")),
    "tatesen": tuple((n, n) for n in (
        "tate_sen_certificate", "tau_projection", "invert_one_minus_gamma",
        "decompletion_compare")),
    "zmodlin": tuple((n, n) for n in (
        "smith_normal_form", "kernel_cokernel", "kernel_generators",
        "image_length", "solve", "module_profile")),
    "homotopy": tuple((n, n) for n in (
        "mapping_cone", "cone_sequence", "les_check", "spectral_E_pages",
        "total_complex", "tower_lim_lim1")),
    "artinschreier": tuple((n, n) for n in (
        "solve_as_general", "solve_phi_minus_one", "rho_constant")),
    "modules": tuple((n, n) for n in (
        "make_module", "tate_twist", "dual_module", "tensor_product",
        "module_from_json", "module_to_json")),
}
# cli is entered once per subcommand, from the benchmark's own call site
LAYERS = tuple(ENTRY_POINTS) + ("cli",)

# per-entry figures reported beside the per-layer ones
ENTRY_METRICS = (
    ("wittside.lift_mul", ("self_s", "calls")),
    ("wittside.binomial_mod_ps", ("self_s", "calls")),
    ("normfield.gamma", ("self_s", "calls")),
    ("complexes.cohomology", ("self_s",)),
    ("complexes.delta_project", ("self_s",)),
    ("complexes.certify_d_squared", ("self_s",)),
    ("tatesen.invert_one_minus_gamma", ("self_s",)),
    ("tatesen.decompletion_compare", ("self_s",)),
    ("zmodlin.smith_normal_form", ("self_s", "calls")),
    ("homotopy.les_check", ("self_s",)),
    ("homotopy.spectral_E_pages", ("self_s",)),
)


class Tracer:
    def __init__(self, clock):
        self.clock = clock   # seconds; the worker passes its reference clock
        self.spans = []      # (name, start, end, parent index or -1)
        self._stack = []     # open frames: [layer, span index, child, other]
        self.layer = {L: [0.0, 0, 0] for L in LAYERS}   # self_s, calls, errors
        self.entry = {}      # name -> [self_s, calls, errors]

    def _enter(self, layer, name):
        parent = self._stack[-1][1] if self._stack else -1
        self.spans.append((name, self.clock(), None, parent))
        frame = [layer, len(self.spans) - 1, 0.0, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame, name, raised):
        end = self.clock()
        self._stack.pop()
        idx = frame[1]
        _, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, end, parent)
        dur = end - start
        layer = frame[0]
        stat = self.entry.setdefault(name, [0.0, 0, 0])
        stat[0] += dur - frame[2]
        stat[1] += 1
        stat[2] += raised
        up = self._stack[-1] if self._stack else None
        if up is not None:
            up[2] += dur
        if up is not None and up[0] == layer:
            up[3] += frame[3]     # nested call inside the same layer
        else:
            acc = self.layer[layer]
            acc[0] += dur - frame[3]
            acc[1] += 1
            acc[2] += raised
            if up is not None:
                up[3] += dur

    def call(self, layer, name, fn, *args, **kwargs):
        frame = self._enter(layer, name)
        raised = 1
        try:
            out = fn(*args, **kwargs)
            raised = 0
            return out
        finally:
            self._exit(frame, name, raised)

    def wrap(self, layer, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(layer, name, fn, *args, **kwargs)
        return traced

    def install(self):
        """Wrap every entry point; the phigamma modules must be imported.
        An entry point the library no longer has is skipped and reads 0."""
        mods = [m for n, m in list(sys.modules.items())
                if n == "phigamma" or n.startswith("phigamma.")]
        for layer, entries in ENTRY_POINTS.items():
            home = sys.modules.get(f"phigamma.{layer}")
            for path, short in entries if home else ():
                name = f"{layer}.{short}"
                if "." in path:
                    cls_name, meth = path.split(".")
                    cls = getattr(home, cls_name, None)
                    if cls is not None and meth in vars(cls):
                        setattr(cls, meth,
                                self.wrap(layer, name, vars(cls)[meth]))
                    continue
                orig = getattr(home, path, None)
                if orig is None:
                    continue
                traced = self.wrap(layer, name, orig)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, traced)

    def snapshot(self):
        return {L: v[0] for L, v in self.layer.items()}

    def metrics(self):
        out = {}
        for L, (self_s, calls, errors) in self.layer.items():
            out[f"{L}.self_s"] = (self_s, "s")
            out[f"{L}.calls"] = (calls, "count")
            out[f"{L}.errors"] = (errors, "count")
        for name, fields in ENTRY_METRICS:
            self_s, calls, _ = self.entry.get(name, (0.0, 0, 0))
            if "self_s" in fields:
                out[f"{name}.self_s"] = (self_s, "s")
            if "calls" in fields:
                out[f"{name}.calls"] = (calls, "count")
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
