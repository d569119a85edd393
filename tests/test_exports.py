"""Every ``repro`` module imports, and every name in its ``__all__`` exists.

A name left in ``__all__`` after its definition is deleted breaks only
``from module import *``, with an ``AttributeError`` for whoever tries
it first; this walk finds it the moment the definition goes.
"""

from tests.conftest import repro_modules


def test_every_name_in_every_all_resolves():
    missing = [
        f"{module.__name__}.{name}"
        for module in repro_modules()
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []
