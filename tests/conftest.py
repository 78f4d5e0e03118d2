import collections
import sys

import numpy as np
import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """Count the calls to a function through every ``qms`` module binding it.

    ``count_calls(module, name)`` replaces ``module.name`` (and each
    ``from ... import name`` copy in a loaded ``qms`` module) with a
    counting wrapper and returns the list that receives the positional
    arguments of each call; monkeypatch restores the originals.  ``module``
    may also be a class, whose method ``name`` is then counted.
    """

    def install(module, name):
        orig = getattr(module, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return orig(*args, **kwargs)

        # find the copies before patching: reading a lazy ``qms`` name
        # afterwards would cache the wrapper where monkeypatch cannot undo it
        copies = [mod for modname, mod in list(sys.modules.items())
                  if (modname == "qms" or modname.startswith("qms."))
                  and mod is not module and getattr(mod, name, None) is orig]
        for target in [module] + copies:
            monkeypatch.setattr(target, name, counted)
        return calls

    return install


@pytest.fixture
def count_linalg(monkeypatch):
    """Count the calls to ``np.linalg`` functions, by name.

    ``count_linalg("svd", "eigh")`` replaces each named ``np.linalg``
    function with a counting wrapper and returns a ``Counter`` that gains
    one for each call made through ``np.linalg.<name>``; calls numpy makes
    internally are not counted.  monkeypatch restores the originals.
    """
    counts = collections.Counter()

    def install(*names):
        for name in names:
            def counted(*args, _orig=getattr(np.linalg, name), _name=name,
                        **kwargs):
                counts[_name] += 1
                return _orig(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return counts

    return install
