"""Outside-in tracing of the epw package.

`Tracer.install()` wraps chosen functions of the `epw` modules and
rebinds every alias of them: module globals bound by `from`-imports,
class attributes (`__rmul__ = __mul__`) and registry dicts
(`lattices.NAMED_LATTICES`, `cli.VERBS`).  Each wrapped call records a
span (name, start, end, parent) in memory; `uninstall()` puts every
original object back.  Nothing inside the program changes.

Self time is a span's duration minus the time its child spans cover.
Time spent in code that is not wrapped (the Newton closures of the
interpolation core, the oracles' matrix assembly, MultiPoly additions)
therefore lands in the self time of the nearest wrapped caller.
"""

import gc
import json
import sys
import time
from array import array
from math import comb

# Span name -> (module, attribute path).  A path "Class.method" wraps a
# class attribute; "Class.__init__" is reported as constructions of Class.
TARGETS = {
    "local_model.local_sextic": ("epw.local_model", "local_sextic"),
    "local_model.schur_complement": ("epw.local_model", "schur_complement"),
    "local_model.double_cover_ideal": ("epw.local_model", "double_cover_ideal"),
    "local_model.make_chart": ("epw.local_model", "make_chart"),
    "polymat.interpolate_poly_map": ("epw.polymat", "interpolate_poly_map"),
    "polymat.det_poly_matrix": ("epw.polymat", "det_poly_matrix"),
    "polymat.det_bareiss": ("epw.polymat", "det_bareiss"),
    "polymat.det_interpolate": ("epw.polymat", "det_interpolate"),
    "polymat.det_cofactor": ("epw.polymat", "det_cofactor"),
    "polymat.adjugate_poly_matrix": ("epw.polymat", "adjugate_poly_matrix"),
    "polymat.det_fraction_matrix": ("epw.polymat", "det_fraction_matrix"),
    "zlinalg.int_det": ("epw.zlinalg", "int_det"),
    "zlinalg.bareiss_solve": ("epw.zlinalg", "bareiss_solve"),
    "zlinalg.int_adjugate": ("epw.zlinalg", "int_adjugate"),
    "zlinalg.smith_normal_form": ("epw.zlinalg", "smith_normal_form"),
    "linalg.rref": ("epw.linalg", "rref"),
    "linalg.det": ("epw.linalg", "det"),
    "linalg.inverse": ("epw.linalg", "inverse"),
    "poly.MultiPoly.__mul__": ("epw.poly", "MultiPoly.__mul__"),
    "poly.MultiPoly.evaluate": ("epw.poly", "MultiPoly.evaluate"),
    "poly.MultiPoly.substitute": ("epw.poly", "MultiPoly.substitute"),
    "poly.MultiPoly.to_text": ("epw.poly", "MultiPoly.to_text"),
    "poly.div_exact": ("epw.poly", "div_exact"),
    "poly.squarefree_part": ("epw.poly", "squarefree_part"),
    "wedge.graph_gram": ("epw.wedge", "graph_gram"),
    "wedge.degeneracy_dim": ("epw.wedge", "degeneracy_dim"),
    "varquad.phi_expansion": ("epw.varquad", "phi_expansion"),
    "varquad.degenerate_cone_check": ("epw.varquad", "degenerate_cone_check"),
    "varquad.vanishing_kernel_check": ("epw.varquad", "vanishing_kernel_check"),
    "varquad.phi2_rank": ("epw.varquad", "phi2_rank"),
    "lattices.DiscGroup": ("epw.lattices", "DiscGroup.__init__"),
    "lattices.orth_complement": ("epw.lattices", "orth_complement"),
    "lattices.classify_negative_root": ("epw.lattices", "classify_negative_root"),
    "lattices.overlattices": ("epw.lattices", "overlattices"),
    "lattices.is_root": ("epw.lattices", "is_root"),
    "hilbert_square.pell_brute_force": ("epw.hilbert_square", "pell_brute_force"),
    "hilbert_square.fujiki_quartic": ("epw.hilbert_square", "fujiki_quartic"),
    "jsonio.load_document": ("epw.jsonio", "load_document"),
    "cli.run": ("epw.cli", "run"),
}

# Every constructor in lattices.NAMED_LATTICES records one span name;
# every verb in cli.VERBS records "cli.<function name>".
NAMED_LATTICE_SPAN = "lattices.named_lattice"
ORACLE_SPAN = "polymat.interpolate_poly_map.oracle"

CTS = ("calls", "total_s", "self_s")
CT = ("calls", "total_s")

# The per-layer metrics, as (span name, stats).  Stats other than calls,
# total_s and self_s are counters gathered by the wrappers below.
LAYER_METRICS = (
    ("local_model.local_sextic", CTS),
    ("local_model.schur_complement", CTS),
    ("local_model.double_cover_ideal", CTS),
    ("local_model.make_chart", CTS),
    ("polymat.interpolate_poly_map", CTS + ("points", "useful_ratio")),
    (ORACLE_SPAN, ("total_s", "self_s")),
    ("polymat.det_poly_matrix", CT),
    ("polymat.det_bareiss", CT),
    ("polymat.det_interpolate", CT),
    ("polymat.det_cofactor", CT),
    ("polymat.adjugate_poly_matrix", CT),
    ("polymat.det_fraction_matrix", CT),
    ("zlinalg.int_det", CT + ("max_bits",)),
    ("zlinalg.bareiss_solve", CTS),
    ("zlinalg.int_adjugate", CTS),
    ("zlinalg.smith_normal_form", CT + ("distinct_ratio",)),
    ("linalg.rref", CTS),
    ("linalg.det", CTS),
    ("linalg.inverse", CTS),
    ("poly.MultiPoly.__mul__", CTS),
    ("poly.MultiPoly.evaluate", CTS),
    ("poly.MultiPoly.substitute", CTS),
    ("poly.MultiPoly.to_text", CTS),
    ("poly.div_exact", CTS),
    ("poly.squarefree_part", CTS),
    ("wedge.graph_gram", CTS),
    ("wedge.degeneracy_dim", CTS),
    ("varquad.phi_expansion", CTS),
    ("varquad.degenerate_cone_check", CTS),
    ("varquad.vanishing_kernel_check", CTS),
    ("varquad.phi2_rank", CTS),
    ("lattices.DiscGroup", CTS),
    (NAMED_LATTICE_SPAN, CTS),
    ("lattices.orth_complement", CTS),
    ("lattices.classify_negative_root", CTS),
    ("lattices.overlattices", CTS),
    ("lattices.is_root", CTS),
    ("hilbert_square.pell_brute_force", CTS),
    ("hilbert_square.fujiki_quartic", CTS),
    ("jsonio.load_document", CTS),
    ("cli.run", CTS),
)

STAT_UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "points": "count",
              "useful_ratio": "ratio", "max_bits": "bits", "distinct_ratio": "ratio"}


class Recorder:
    """Spans in parallel arrays, plus counters gathered by the wrappers."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_outer = array("b")   # 1 when no enclosing span has the same name
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self._active = []
        self.points = 0
        self.useful_points = 0
        self.max_bits = 0
        self.snf_inputs = set()
        self.snf_calls = 0

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def enter(self, nid):
        idx = len(self.span_name)
        stack = self._stack
        self.span_name.append(nid)
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_outer.append(self._active[nid] == 0)
        self._active[nid] += 1
        stack.append(idx)
        self.span_end.append(0.0)
        self.span_start.append(time.perf_counter())
        return idx

    def leave(self, idx):
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()
        self._active[self.span_name[idx]] -= 1

    def summary(self, factor_at):
        """name -> {"calls", "total_s", "self_s"} over all recorded spans.

        total_s counts only outermost activations of a name, so recursion
        and nested constructors are not counted twice.  Each span's
        duration is divided by factor_at(its start): the host factor then.
        """
        n = len(self.span_name)
        dur = [(self.span_end[i] - self.span_start[i]) / factor_at(self.span_start[i])
               for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            s = out[self.names[self.span_name[i]]]
            s["calls"] += 1
            s["self_s"] += dur[i] - child[i]
            if self.span_outer[i]:
                s["total_s"] += dur[i]
        return out

    def write(self, path):
        """Write every span as [name id, start_s, end_s, parent index]."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        spans = [[self.span_name[i], round(self.span_start[i] - t0, 9),
                  round(self.span_end[i] - t0, 9), self.span_parent[i]]
                 for i in range(len(self.span_name))]
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": spans}, fh, separators=(",", ":"))


def _plain_wrapper(rec, nid, fn):
    enter, leave = rec.enter, rec.leave

    def wrapper(*args, **kwargs):
        idx = enter(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            leave(idx)

    return wrapper


def _interpolate_wrapper(rec, nid, fn):
    """Also wraps the oracle argument and counts grid points (memoized
    oracle calls) and useful points C(deg + n, n) of the result."""
    enter, leave = rec.enter, rec.leave
    oracle_nid = rec.name_id(ORACLE_SPAN)

    def wrapper(oracle, variables, degree, width):
        def traced_oracle(pt):
            rec.points += 1
            oidx = enter(oracle_nid)
            try:
                return oracle(pt)
            finally:
                leave(oidx)

        idx = enter(nid)
        try:
            result = fn(traced_oracle, variables, degree, width)
        finally:
            leave(idx)
        deg = max(p.degree() for p in result)
        if deg >= 0:
            n = len(tuple(variables))
            rec.useful_points += comb(deg + n, n)
        return result

    return wrapper


def _int_det_wrapper(rec, nid, fn):
    """Also tracks the largest bit length among inputs and results."""
    enter, leave = rec.enter, rec.leave

    def wrapper(m):
        idx = enter(nid)
        try:
            d = fn(m)
        finally:
            leave(idx)
        bits = max([abs(int(x)).bit_length() for row in m for x in row] + [abs(d).bit_length()])
        if bits > rec.max_bits:
            rec.max_bits = bits
        return d

    return wrapper


def _snf_wrapper(rec, nid, fn):
    """Also counts distinct input matrices."""
    plain = _plain_wrapper(rec, nid, fn)

    def wrapper(m):
        rec.snf_calls += 1
        rec.snf_inputs.add(tuple(tuple(int(x) for x in row) for row in m))
        return plain(m)

    return wrapper


_SPECIAL = {
    "polymat.interpolate_poly_map": _interpolate_wrapper,
    "zlinalg.int_det": _int_det_wrapper,
    "zlinalg.smith_normal_form": _snf_wrapper,
}


def _epw_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "epw" or name.startswith("epw."))]


class Tracer:
    """Installs wrappers on the loaded epw modules and removes them again."""

    def __init__(self):
        self.recorder = Recorder()
        self.patches = []        # (kind, container, key, original)
        self.bindings = {}       # span name -> number of places rebound

    def _originals(self):
        """id(original) -> (span name, original, wrapper)."""
        mods = {m.__name__: m for m in _epw_modules()}
        rec = self.recorder
        found = {}

        def add(name, fn):
            make = _SPECIAL.get(name, _plain_wrapper)
            found[id(fn)] = (name, fn, make(rec, rec.name_id(name), fn))

        for name, (modname, path) in TARGETS.items():
            obj = mods[modname]
            head, _, attr = path.rpartition(".")
            if head:
                obj = getattr(obj, head)
                add(name, obj.__dict__[attr])
            else:
                add(name, getattr(obj, attr))
        for ctor in mods["epw.lattices"].NAMED_LATTICES.values():
            add(NAMED_LATTICE_SPAN, ctor)
        for verb in mods["epw.cli"].VERBS.values():
            add("cli." + verb.__name__, verb)
        return found

    def install(self):
        if self.patches:
            raise RuntimeError("tracer already installed")
        found = self._originals()
        seen_classes = set()

        def rebind(kind, container, key, value):
            entry = found.get(id(value))
            if entry is None or entry[1] is not value:
                return
            name, original, wrapper = entry
            if kind == "dict":
                container[key] = wrapper
            else:
                setattr(container, key, wrapper)
            self.patches.append((kind, container, key, original))
            self.bindings[name] = self.bindings.get(name, 0) + 1

        for mod in _epw_modules():
            for key, value in list(vars(mod).items()):
                rebind("attr", mod, key, value)
                if isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        rebind("dict", value, dkey, dvalue)
                elif (isinstance(value, type) and value.__module__.startswith("epw")
                      and id(value) not in seen_classes):
                    seen_classes.add(id(value))
                    for ckey, cvalue in list(vars(value).items()):
                        rebind("attr", value, ckey, cvalue)
        return self

    def uninstall(self):
        for kind, container, key, original in reversed(self.patches):
            if kind == "dict":
                container[key] = original
            else:
                setattr(container, key, original)
        self.patches = []


class GcCounter:
    """Records each garbage collection as (start, seconds), via gc.callbacks."""

    def __init__(self):
        self.pauses = []
        self._t0 = None

    def _callback(self, phase, info):
        if phase == "start":
            self._t0 = time.perf_counter()
        elif self._t0 is not None:
            self.pauses.append((self._t0, time.perf_counter() - self._t0))
            self._t0 = None

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)
        return False


def layer_metrics(rec, per, factor_at):
    """Per-layer metrics from a recorder, each divided by `per` (rounds);
    `factor_at` as in Recorder.summary."""
    summary = rec.summary(factor_at)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    out = {}
    for name, stats in LAYER_METRICS:
        s = summary.get(name, empty)
        for stat in stats:
            if stat in s:
                value = s[stat] / per
            elif stat == "points":
                value = rec.points / per
            elif stat == "useful_ratio":
                value = rec.useful_points / rec.points if rec.points else 0.0
            elif stat == "max_bits":
                value = rec.max_bits
            elif stat == "distinct_ratio":
                value = len(rec.snf_inputs) / rec.snf_calls if rec.snf_calls else 0.0
            out["%s.%s" % (name, stat)] = {"value": value, "unit": STAT_UNITS[stat]}
    return out
