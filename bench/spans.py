"""In-memory span recorder that wraps memctrl's public functions from outside.

A span is (name, start, end, parent) in process CPU time; all spans of
one traced run share a run id.  Self time is a span's duration minus the time
covered by its direct children (calls nest strictly on one thread, so
that is the sum of the children's durations).

Targets are wrapped where they are looked up: a function imported by
value into another memctrl module (runner.rollout, for example) is
replaced in every module namespace that binds it, and a method is
replaced on its class.  A target that no longer exists is reported as
absent and never fails a run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import uuid

PACKAGE = "memctrl"          # targets are modules of this package
CLOCK = time.process_time    # span times are process CPU seconds


class Tracer:
    """Spans of one run, kept in memory until `write`."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        # (name_id, start, end, parent_index, self_time)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._child: list[float] = []
        self.counters: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def wrap(self, fn, name: str, on_return=None):
        nid = self.name_id(name)
        spans, stack, child, clock = self.spans, self._stack, self._child, CLOCK

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                covered = child.pop()
                if child:
                    child[-1] += t1 - t0
                spans[idx] = (nid, t0, t1, parent, t1 - t0 - covered)
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return traced

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, busy (inclusive) time, self time, durations."""
        out: dict[str, dict] = {}
        for nid, t0, t1, _parent, self_t in self.spans:
            rec = out.setdefault(self.names[nid], {"calls": 0, "busy_s": 0.0,
                                                   "self_s": 0.0, "durations": []})
            rec["calls"] += 1
            rec["busy_s"] += t1 - t0
            rec["self_s"] += self_t
            rec["durations"].append(t1 - t0)
        return out

    def child_calls(self, name: str, parent_name: str) -> int:
        """Number of `name` spans whose direct parent is a `parent_name` span."""
        nid = self._name_id.get(name)
        pid = self._name_id.get(parent_name)
        if nid is None or pid is None:
            return 0
        spans = self.spans
        return sum(1 for s in spans if s[0] == nid and s[3] >= 0
                   and spans[s[3]][0] == pid)

    def totals(self) -> tuple[float, float]:
        """(sum of all self times, sum of top-level span durations)."""
        self_sum = sum(s[4] for s in self.spans)
        top = sum(s[2] - s[1] for s in self.spans if s[3] < 0)
        return self_sum, top

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id,
                       "clock": f"{CLOCK.__module__}.{CLOCK.__name__}",
                       "fields": ["name", "start", "end", "parent", "self"],
                       "names": self.names,
                       "spans": [list(s) for s in self.spans]}, fh,
                      separators=(",", ":"))


class Target:
    """One wrap site: `module:qualname`, recorded under span name `name`."""

    def __init__(self, name: str, module: str, qualname: str, on_return=None):
        self.name = name
        self.module = module
        self.qualname = qualname
        self.on_return = on_return


class Patcher:
    """Installs and removes tracer wrappers; records which targets are absent."""

    def __init__(self):
        self.absent: list[str] = []
        self._undo: list[tuple] = []

    def _modules(self):
        prefix = PACKAGE + "."
        return [m for k, m in list(sys.modules.items())
                if m is not None and (k == PACKAGE or k.startswith(prefix))]

    def install(self, targets, make_wrapper) -> None:
        """Replace each target by make_wrapper(original, target)."""
        self.absent = []
        for tg in targets:
            try:
                owner = importlib.import_module(f"{PACKAGE}.{tg.module}")
            except ImportError:
                self.absent.append(tg.name)
                continue
            *path, attr = tg.qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                self.absent.append(tg.name)
                continue
            if isinstance(owner, type):
                orig = owner.__dict__.get(attr)
                if orig is None:            # inherited: wrap on the subclass
                    orig = getattr(owner, attr)
                wrapped = make_wrapper(orig, tg)
                self._undo.append((owner, attr, owner.__dict__.get(attr)))
                setattr(owner, attr, wrapped)
                continue
            orig = getattr(owner, attr)
            wrapped = make_wrapper(orig, tg)
            for mod in self._modules():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            if orig is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)
        self._undo = []
