"""The benchmark's traced sites still exist in spinchar.

perfbench/layers.py names the functions a traced benchmark run wraps.  A
renamed or removed site only shows in that run, which takes minutes; this
test resolves every site the same way the tracer does.  The file is only
read, never imported, so nothing is written next to it.
"""

import importlib
import inspect
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _sites():
    namespace = {}
    exec(compile(LAYERS.read_text(encoding="utf-8"), str(LAYERS), "exec"), namespace)
    return namespace["SITES"]


def test_every_traced_site_resolves_to_a_function():
    sites = _sites()
    assert "mackey.SubRep.verify" in sites and "spinrep.Representation.eval" in sites
    for site in sites:
        module_name, *path = site.split(".")
        owner = importlib.import_module("spinchar." + module_name)
        for part in path[:-1]:
            owner = getattr(owner, part)
        target = inspect.getattr_static(owner, path[-1], None)
        assert target is not None, "%s is missing" % site
        assert inspect.isfunction(target) or hasattr(target, "cache_info"), \
            "%s is a %s, not a function" % (site, type(target).__name__)
