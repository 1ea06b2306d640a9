"""In-memory span tracer that wraps the package's public functions.

The tracer patches, from outside the package, every public function found
in the namespaces of the traced modules (their own definitions and the
names they import from sibling modules) and every public plain method of
their classes.  Each call records one span: name, layer (the defining
module), parent span, start and end.  Generator functions record one span
per resumption, so a chunk producer's span covers producing the chunk and
not the consumer's work on it.  Nothing in the package source changes;
``uninstall`` restores every patched attribute.

Self time of a span is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from pathlib import Path

TRACED_MODULES = (
    "swmac.cli",
    "swmac.config",
    "swmac.sweep",
    "swmac.outage",
    "swmac.copula",
    "swmac.streams",
)

NAME, LAYER, PARENT, START, END = range(5)


class Tracer:
    """Records spans while installed; spans stay in memory until written."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, parent, time.perf_counter_ns(), 0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, layer: str):
        """A span opened by the benchmark itself, e.g. around ``main(argv)``."""
        idx = self._open(name, layer)
        try:
            yield idx
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str, layer: str):
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = self._open(name, layer)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    yield item

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}

        def wrapper_for(fn):
            if id(fn) not in wrappers:
                layer = fn.__module__.rsplit(".", 1)[-1]
                wrappers[id(fn)] = self._wrap(fn, f"{layer}.{fn.__qualname__}", layer)
            return wrappers[id(fn)]

        def is_package_function(obj) -> bool:
            return inspect.isfunction(obj) and obj.__module__.startswith("swmac.")

        for mod_name in TRACED_MODULES:
            module = importlib.import_module(mod_name)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if is_package_function(obj):
                    self._patch(module, attr, wrapper_for(obj))
                elif inspect.isclass(obj) and obj.__module__ == mod_name:
                    for meth_name, meth in list(vars(obj).items()):
                        if not meth_name.startswith("_") and is_package_function(meth):
                            self._patch(obj, meth_name, wrapper_for(meth))

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis --------------------------------------------------------

    def self_times_ns(self) -> list[int]:
        """Self time of each span, in nanoseconds."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def write(self, path: Path) -> None:
        """Write every span as CSV: id, parent, layer, name, start_ns, end_ns."""
        with open(path, "w", newline="") as fh:
            fh.write("id,parent,layer,name,start_ns,end_ns\n")
            for i, (name, layer, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i},{parent},{layer},{name},{start},{end}\n")
