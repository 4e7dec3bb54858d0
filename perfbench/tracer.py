"""Traced spinchar CLI: the child process of the benchmark's --trace 1 runs.

    PERFBENCH_TRACE_FD=<fd> python3 perfbench/tracer.py <spinchar arguments>

Imports spinchar.cli (timing the import), wraps every site in layers.SITES,
runs the CLI's main() with the given arguments, and writes one JSON object to
the inherited file descriptor: {"import_s": float, "sites": {site: [calls,
inclusive_s, self_s, hits]}}.  Standard output and the exit code are the
CLI's own, so the harness checks them against the same golden digests as an
untraced run.

A wrapper replaces every reference spinchar holds to the wrapped function:
the defining module's global, every `from .x import y` binding in the other
modules, values of module-level dicts such as verify.CHECKS, and aliases in
a class body such as Cyc9.__rmul__.  A catalog function is wrapped outside
its lru_cache, so cache hits count as calls.
"""

import functools
import inspect
import json
import os
import sys
import time

from layers import SITES


class Tracer:
    """Aggregates spans in memory: per site [calls, inclusive_s, self_s, hits].

    Inclusive time counts only the outermost of nested spans of one site;
    self time is a span's duration minus the durations of its direct
    child spans.
    """

    def __init__(self):
        self.stats = {}
        self._stack = [[0.0]]  # child-time accumulator of each open span
        self._depth = {}

    def span(self, site, fn, hits=False):
        stat = self.stats.setdefault(site, [0, 0.0, 0.0, 0])
        stack = self._stack
        depth = self._depth
        depth[site] = 0
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[site] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                depth[site] -= 1
                stat[0] += 1
                if depth[site] == 0:
                    stat[1] += elapsed
                stat[2] += elapsed - frame[0]
            if hits and result is not None:
                stat[3] += 1
            return result
        return wrapper

    def count(self, site, fn):
        stat = self.stats.setdefault(site, [0, 0.0, 0.0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, sites):
        """Wrap each site wherever it is looked up; raise if a site is
        missing or bound nowhere."""
        for site, kind in sites.items():
            module_name, *path = site.split(".")
            owner = sys.modules["spinchar." + module_name]
            for part in path[:-1]:
                owner = getattr(owner, part)
            attr = path[-1]
            original = inspect.getattr_static(owner, attr)
            if not inspect.isfunction(original) and not hasattr(original, "cache_info"):
                raise TypeError("trace site %s is a %s, not a function"
                                % (site, type(original).__name__))
            if kind == "count":
                wrapper = self.count(site, original)
            else:
                wrapper = self.span(site, original, hits=kind == "hits")
            if _rebind(original, wrapper) == 0:
                raise LookupError("trace site %s is bound nowhere in spinchar" % site)


def _spinchar_modules():
    return [m for name, m in list(sys.modules.items())
            if (name == "spinchar" or name.startswith("spinchar.")) and m is not None]


def _bindings(original):
    """Every (namespace, key) through which spinchar reaches `original`:
    module globals, values of module-level dicts, and class bodies (aliases
    such as __rmul__ = __mul__ included)."""
    for module in _spinchar_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                yield vars(module), key
            elif type(value) is dict:
                for dkey, dvalue in list(value.items()):
                    if dvalue is original:
                        yield value, dkey
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                for ckey, cvalue in list(vars(value).items()):
                    if cvalue is original:
                        yield value, ckey


def _rebind(original, wrapper):
    """Replace `original` by `wrapper` wherever spinchar binds it; return
    the number of references replaced."""
    replaced = 0
    for namespace, key in list(_bindings(original)):
        if isinstance(namespace, type):
            setattr(namespace, key, wrapper)
        else:
            namespace[key] = wrapper
        replaced += 1
    return replaced


def main(argv):
    fd = int(os.environ["PERFBENCH_TRACE_FD"])
    start = time.perf_counter()
    import spinchar.cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install(SITES)
    try:
        return spinchar.cli.main(argv)
    finally:
        sys.stdout.flush()
        with os.fdopen(fd, "w") as out:
            json.dump({"import_s": import_s, "sites": tracer.stats}, out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
