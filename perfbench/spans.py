"""In-memory spans and counters for the traced benchmark run.

Spans are opened by the benchmark around each public call it makes.
Counters are installed by wrapping public methods of library classes (and
a few module functions the pipeline calls by name) for the duration of one
traced pass, then removed again, so untraced passes run the library as
shipped.  Nothing under ``src/`` is edited.

Every span and every outermost wrapped call is a frame on one stack.  A
frame's self time is its duration minus the time its child frames cover;
self time is summed per layer, the layer being the library module whose
span or wrapped method the frame is.  Code of a module that is neither
spanned nor wrapped counts toward the frame that called it.  Wrapped calls
nested directly in a frame of their own layer are only counted, not timed,
which keeps the cost of the wrappers low.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter

_NULL = nullcontext()


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []        # finished spans: name, start, end, id, parent, trace
        self.counts = {}       # counter name -> calls
        self.inclusive = {}    # span or wrapper name -> seconds, outermost calls only
        self.layer_self = {}   # layer -> self seconds
        self._stack = []       # open frames: [layer, name, start, child_seconds, id]
        self._next_id = 1
        self._trace_id = 0
        self._patches = []

    # -- spans ------------------------------------------------------------------

    def span(self, name):
        """Context manager timing one public call; a no-op when inactive."""
        return self._span(name) if self.active else _NULL

    @contextmanager
    def _span(self, name):
        frame = self._push(name.split(".", 1)[0], name)
        try:
            yield
        finally:
            self._pop(frame, record=True)

    def add(self, name, k):
        """Add k to a counter of outputs (subgroup classes, checks, verdicts)."""
        if self.active:
            self.counts[name] = self.counts.get(name, 0) + k

    def new_trace(self):
        """Start a new trace id; spans of one item in one pass share it."""
        self._trace_id += 1

    def _push(self, layer, name):
        frame = [layer, name, perf_counter(), 0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _pop(self, frame, record):
        end = perf_counter()
        self._stack.pop()
        layer, name, start, child, ident = frame
        dur = end - start
        if self._stack:
            self._stack[-1][3] += dur
        self.layer_self[layer] = self.layer_self.get(layer, 0.0) + dur - child
        if record:
            if not any(f[1] == name for f in self._stack):
                self.inclusive[name] = self.inclusive.get(name, 0.0) + dur
            self.spans.append({
                "name": name, "start": start, "end": end, "id": ident,
                "parent": self._stack[-1][4] if self._stack else None,
                "trace": self._trace_id,
            })

    # -- counters on library methods -----------------------------------------------------

    def wrap(self, owner, attr, layer, counter=None, record=False, result_counter=None):
        """Replace owner.attr by a counting, timing wrapper until uninstall().

        ``result_counter`` counts calls whose result is truthy (used for the
        share of echelon insertions that raised the rank).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        name = f"{layer}.{attr}" if counter is None else counter
        tracer = self
        counts = self.counts
        stack = self._stack

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            if stack and stack[-1][0] == layer and not record:
                result = original(*args, **kwargs)
            else:
                frame = tracer._push(layer, name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._pop(frame, record)
            if result_counter is not None and result:
                counts[result_counter] = counts.get(result_counter, 0) + 1
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- passes ------------------------------------------------------------------------

    def reset_pass(self):
        self.counts.clear()
        self.inclusive.clear()
        self.layer_self.clear()

    def dump(self, path, extra):
        """Write every span and the per-pass metrics as JSON."""
        with open(path, "w") as fh:
            json.dump(dict(extra, spans=self.spans), fh, indent=1, sort_keys=True)
            fh.write("\n")


def install_counters(tracer):
    """Wrap the public scalar, algebra and echelon methods of the library."""
    import isotypic.groupalgebra as ga
    import isotypic.verify as ver
    from isotypic.characters import CharacterTable
    from isotypic.cyclotomic import CycValue
    from isotypic.groupalgebra import AlgebraElement
    from isotypic.linalg import Echelon
    from isotypic.numberfield import NumField, NumFieldValue

    named = {"__mul__": "mul_calls", "galois": "galois_calls", "conjugate": "conj_calls"}
    for attr in ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "__truediv__",
                 "__rtruediv__", "__pow__", "__eq__", "inverse", "galois", "conjugate",
                 "to_level"):
        tracer.wrap(CycValue, attr, "cyclotomic",
                    counter=f"cyclotomic.{named[attr]}" if attr in named else None)
    for attr in ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "__truediv__",
                 "__rtruediv__", "__pow__", "__eq__", "inverse"):
        tracer.wrap(NumFieldValue, attr, "numberfield",
                    counter="numberfield.mul_calls" if attr == "__mul__" else None)
    tracer.wrap(NumField, "apply_auto", "numberfield", counter="numberfield.auto_calls")
    tracer.wrap(AlgebraElement, "__mul__", "groupalgebra", counter="groupalgebra.products")
    for attr in ("__add__", "__sub__", "__eq__", "apply_galois", "to_domain"):
        tracer.wrap(AlgebraElement, attr, "groupalgebra")
    tracer.wrap(Echelon, "add", "linalg", counter="linalg.echelon_adds",
                result_counter="linalg.echelon_rank_ups")
    tracer.wrap(Echelon, "contains", "linalg")
    tracer.wrap(Echelon, "residual", "linalg")
    tracer.wrap(CharacterTable, "validate", "characters", counter="characters.validate",
                record=True)
    # module functions the pipeline calls by their global name
    tracer.wrap(ga, "orbit_module_check", "groupalgebra", counter="groupalgebra.orbit_check",
                record=True)
    tracer.wrap(ga, "ideal_dim", "groupalgebra", counter="groupalgebra.ideal_dim_calls")
    tracer.wrap(ver, "ideal_dim", "groupalgebra", counter="groupalgebra.ideal_dim_calls")
    tracer.wrap(ver, "element_from_json", "serialize")
