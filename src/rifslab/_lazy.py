"""numpy, imported on the first attribute a walk reads.

The array modules take `np` from here, so `import rifslab`, building a
config and the closed-formula tasks load no numpy.  `np` is a plain
module object whose module `__getattr__` (PEP 562) imports numpy through
`importlib.import_module`, under the import lock, and keeps the attribute
it returns in `np`'s own namespace: every later lookup of that name is
one dict hit, as on numpy itself.
"""

from __future__ import annotations

import importlib
import types


def _fetch(name: str):
    value = getattr(importlib.import_module("numpy"), name)
    setattr(np, name, value)
    return value


np = types.ModuleType("numpy", "numpy's attributes, fetched on first use")
np.__getattr__ = _fetch
