import sys

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """Count the calls to a function through every ``qms`` module binding it.

    ``count_calls(module, name)`` replaces ``module.name`` (and each
    ``from ... import name`` copy in a loaded ``qms`` module) with a
    counting wrapper and returns the list that receives the positional
    arguments of each call; monkeypatch restores the originals.
    """

    def install(module, name):
        orig = getattr(module, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return orig(*args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            if ((modname == "qms" or modname.startswith("qms."))
                    and getattr(mod, name, None) is orig):
                monkeypatch.setattr(mod, name, counted)
        return calls

    return install
