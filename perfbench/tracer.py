"""Span recorder for the traced run.

The recorder wraps the public functions and methods of the invpat modules
from the outside: it replaces module attributes (in every invpat module
that imported the same function) and class methods with timing wrappers,
and ``uninstall`` puts the originals back. Nothing in the package changes.

Each span is [name id, parent span index, op id, start, end, items]. Spans
stay in memory until ``dump`` writes them out. ``items`` is ``len(result)``
for the callables named in ``COUNT_ITEMS`` and -1 otherwise, so counts are
taken at the same boundary as the time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
from time import perf_counter

import numpy as np

MODULES = ("index", "predictor", "io_persist", "netpbm", "vision", "levels", "cli")
COUNT_ITEMS = frozenset({"vision.cluster_pixels", "levels.histogram_to_metapattern"})

# op ids of spans outside an op
SETUP = -1
BETWEEN = -2  # inside a timed phase, between ops (episode start and end)
CLI = -3


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = SETUP

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        spans, stack = self.spans, self.stack
        count = name in COUNT_ITEMS
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [nid, stack[-1] if stack else -1, rec.op, 0.0, 0.0, -1]
            spans.append(span)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                span[3] = t0
                stack.pop()
            if count:
                span[5] = len(result)
            return result

        return wrapper

    # -- aggregation --------------------------------------------------------

    def _arrays(self):
        if not self.spans:
            z = np.zeros(0)
            return z.astype(np.int64), z.astype(np.int64), z.astype(np.int64), z, z, z
        a = np.array(self.spans, dtype=np.float64)
        nid, parent, op = a[:, 0].astype(np.int64), a[:, 1].astype(np.int64), a[:, 2].astype(np.int64)
        dur = a[:, 4] - a[:, 3]
        child = np.zeros(len(a))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return nid, parent, op, dur, dur - child, a[:, 5]

    def layer_stats(self) -> dict[str, float]:
        """<name>.calls / .total_s / .self_s over every span outside the CLI flows."""
        nid, _, op, dur, self_t, _ = self._arrays()
        keep = op != CLI
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            sel = keep & (nid == i)
            out[f"{name}.calls"] = int(sel.sum())
            out[f"{name}.total_s"] = float(dur[sel].sum())
            out[f"{name}.self_s"] = float(self_t[sel].sum())
        return out

    def top_level_s(self, select) -> float:
        """Summed duration of the outermost spans whose op ids pass ``select``
        (a function from the op id array to a boolean mask)."""
        _, parent, op, dur, _, _ = self._arrays()
        return float(dur[(parent < 0) & select(op)].sum())

    def items(self, name: str) -> tuple[int, int]:
        """(calls, summed items) of ``name`` inside ops."""
        nid, _, op, _, _, items = self._arrays()
        sel = (op >= 0) & (nid == self.names.index(name))
        return int(sel.sum()), int(items[sel].sum())

    def library_share(self, first_span: int) -> float:
        """Time in non-cli spans called straight from cli spans, from span
        ``first_span`` on."""
        nid, parent, _, dur, _, _ = self._arrays()
        is_cli = np.array([n.startswith("cli.") for n in self.names], dtype=bool)[nid]
        from_cli = (parent >= 0) & is_cli[np.maximum(parent, 0)]
        return float(dur[(np.arange(len(nid)) >= first_span) & ~is_cli & from_cli].sum())

    def dump(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"fields": ["name", "parent", "op", "start", "end", "items"],
                       "names": self.names, "spans": self.spans}, fh)


def install(rec: Recorder) -> list[tuple[object, str, object]]:
    """Wrap every public function and method of MODULES; returns the undo list."""
    mods = {short: importlib.import_module(f"invpat.{short}") for short in MODULES}
    owners = [m for name, m in sys.modules.items()
              if m is not None and (name == "invpat" or name.startswith("invpat."))]
    patches: list[tuple[object, str, object]] = []
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped = rec.wrap(f"{short}.{attr}", obj)
                for owner in owners:
                    for alias, value in list(vars(owner).items()):
                        if value is obj:
                            patches.append((owner, alias, obj))
                            setattr(owner, alias, wrapped)
            elif inspect.isclass(obj):
                for meth, desc in list(vars(obj).items()):
                    if meth.startswith("_"):
                        continue
                    name = f"{short}.{attr}.{meth}"
                    if isinstance(desc, (staticmethod, classmethod)):
                        new = type(desc)(rec.wrap(name, desc.__func__))
                    elif inspect.isfunction(desc):
                        new = rec.wrap(name, desc)
                    else:
                        continue
                    patches.append((obj, meth, desc))
                    setattr(obj, meth, new)
    return patches


def uninstall(patches) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
