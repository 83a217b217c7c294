"""Tracing from outside the library.

``Tracer.install`` replaces every module-level binding of each traced
function in the loaded ``whsg`` modules (including copies made by
``from .x import y`` and the package's re-exports) and the traced class
methods with one wrapper per function.  Each wrapper records a span with its
parent; a span's self time is its duration minus the durations of its
children.  ``uninstall`` puts every original object back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

# the layer modules of src/whsg
LAYERS = {
    "cfg": "kernel", "nfa": "kernel", "transducer": "kernel", "freegroup": "kernel",
    "arithmetic": "arithmetic",
    "basic": "procedures", "structural": "procedures",
    "structure": "structure",
    "oracle": "oracle",
}
PRIVATE_TRACED = {("cfg", "_cyk_masks")}
SPAN_CAP = 100_000  # spans kept for writing out; aggregates count every call
CLASS_METHODS = {("nfa", "Nfa"): None, ("transducer", "Transducer"): None,
                 ("structure", "WhStructure"): ("table_accepts", "table_shape_violation")}


def _flat(g):
    return g.flat_words is not None


# item counts read from a call's arguments and result: span -> (item, f)
ITEMS = {
    "cfg.normalize": [("prods_in", lambda a, r: len(a[0].productions))],
    "cfg._cyk_masks": [("work", lambda a, r: len(a[0].binary) * len(a[1]) ** 2)],
    "cfg.membership": [("flat", lambda a, r: _flat(a[0]))],
    "cfg.prefix_quotient": [("prods_out", lambda a, r: len(r.productions))],
    "cfg.intersect_regular": [("prods_out", lambda a, r: len(r.productions)),
                              ("flat", lambda a, r: _flat(a[0]))],
    "cfg.enumerate_words": [("words_out", lambda a, r: len(r))],
    "nfa.Nfa.determinize": [("states_out", lambda a, r: len(r.states))],
    "transducer.Transducer.apply_to_cfg": [("prods_out", lambda a, r: len(r.productions))],
    "structural.cs_species_check": [("accepted", lambda a, r: bool(r))],
    "structural.clifford_species_check": [("accepted", lambda a, r: bool(r))],
}


class Stat:
    __slots__ = ("calls", "self_ns", "total_ns", "items")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.total_ns = 0   # inclusive of children
        self.items = {}


class Tracer:
    """Spans of one run, kept in memory; aggregates per (scope, span name)."""

    def __init__(self):
        self.scope = "glue"
        self.stack = []            # open frames: [span id, child ns]
        self.stats = {}            # (scope, name) -> Stat
        self.spans = []            # (id, parent id, scope, name, start ns, duration ns)
        self.dropped = 0
        self.next_id = 0
        self.t0 = time.perf_counter_ns()
        self._saved = []           # (owner, attribute, original object)

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, fn, name):
        items = ITEMS.get(name, ())
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            sid = tracer.next_id
            tracer.next_id = sid + 1
            frame = [sid, 0]
            stack.append(frame)
            scope = tracer.scope
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if parent is not None:
                    parent[1] += dur
                key = (scope, name)
                st = tracer.stats.get(key)
                if st is None:
                    st = tracer.stats[key] = Stat()
                st.calls += 1
                st.self_ns += dur - frame[1]
                st.total_ns += dur
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((sid, parent[0] if parent else None,
                                         scope, name, start - tracer.t0, dur))
                else:
                    tracer.dropped += 1
            for item, f in items:
                st.items[item] = st.items.get(item, 0) + f(args, result)
            return result

        return wrapper

    def targets(self):
        """(owner, attribute, original, span name) for every binding to wrap."""
        mods = {short: sys.modules[f"whsg.{short}"] for short in LAYERS}
        originals = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or (short, attr) in PRIVATE_TRACED)):
                    originals[obj] = f"{short}.{obj.__qualname__}"
        out = []
        for modname, mod in list(sys.modules.items()):
            if modname != "whsg" and not modname.startswith("whsg."):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in originals:
                    out.append((mod, attr, obj, originals[obj]))
        for (short, cls_name), names in CLASS_METHODS.items():
            cls = getattr(mods[short], cls_name)
            for attr, obj in list(vars(cls).items()):
                if attr.startswith("_") or (names is not None and attr not in names):
                    continue
                if isinstance(obj, (types.FunctionType, classmethod, staticmethod)):
                    out.append((cls, attr, obj, f"{short}.{cls_name}.{attr}"))
        return out

    def install(self):
        wrappers = {}
        for owner, attr, obj, name in self.targets():
            if isinstance(obj, (classmethod, staticmethod)):
                inner = obj.__func__
                if inner not in wrappers:
                    wrappers[inner] = self._wrap(inner, name)
                replacement = type(obj)(wrappers[inner])
            else:
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, name)
                replacement = wrappers[obj]
            self._saved.append((owner, attr, obj))
            setattr(owner, attr, replacement)
        return len(self._saved)

    def uninstall(self):
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        restored = all(vars(owner)[attr] is obj for owner, attr, obj in self._saved)
        self._saved = []
        return restored

    # -- results -------------------------------------------------------------------

    def totals(self, scope):
        """name -> Stat for one scope."""
        return {name: st for (sc, name), st in self.stats.items() if sc == scope}

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, scope, name, start, dur in self.spans:
                fh.write(json.dumps([sid, parent, scope, name, start, dur]) + "\n")
        return len(self.spans)
