"""In-memory span recorder for the traced benchmark run.

The library itself is not instrumented.  The benchmark records spans around
its own calls into the library and, with :func:`interposed`, around the calls
the library's run drivers make through their module namespaces.  Each span
keeps its name, start and end (``time.perf_counter`` seconds), the index of
the span that was open when it started, and the run id shared by every span
of one process.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

PACKAGE = "idepull."


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.kept: dict[str, list] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "run_id": self.run_id,
        }
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()

    def wrap(self, fn, keep=()):
        """``fn`` inside a span named ``<module>.<function>``.

        Return values of the span names listed in ``keep`` are appended to
        ``self.kept[name]``.
        """
        name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if name in keep:
                self.kept.setdefault(name, []).append(result)
            return result

        return traced

    def total(self, *names: str) -> float:
        """Summed duration of every span with one of ``names``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] in names)

    def self_time(self, *names: str) -> float:
        """Summed duration of the spans with one of ``names``, minus their children."""
        chosen = {i for i, s in enumerate(self.spans) if s["name"] in names}
        children = sum(s["end"] - s["start"] for s in self.spans if s["parent"] in chosen)
        return self.total(*names) - children

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)


class NullTracer:
    """Stand-in with the same ``span`` interface that records nothing."""

    @contextmanager
    def span(self, name: str):
        yield


@contextmanager
def interposed(tracer: Tracer, modules, keep=()):
    """Trace every call made through the given modules' namespaces.

    Each public function of the package bound in one of ``modules`` is
    replaced, for the duration, by ``tracer.wrap`` of itself.  A call the
    library makes through one of those names then records a span; the
    library's source is unchanged and the originals are restored on exit.
    """
    import inspect  # here, so that untraced processes do not pay for it in memory

    saved = [
        (module, name, obj)
        for module in modules
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and not name.startswith("_")
        and obj.__module__.startswith(PACKAGE)
    ]
    for module, name, obj in saved:
        setattr(module, name, tracer.wrap(obj, keep))
    try:
        yield
    finally:
        for module, name, obj in saved:
            setattr(module, name, obj)
