"""numpy, imported on first attribute use.

Modules that need arrays only inside some functions import this module as
`np` (`from . import _np as np`), so importing them, and every command that
never touches an array, costs no numpy import.  Each attribute is looked up
once, then served from this module's namespace.
"""


def __getattr__(name):
    if name.startswith("__"):
        raise AttributeError(name)
    import numpy
    value = globals()[name] = getattr(numpy, name)
    return value
