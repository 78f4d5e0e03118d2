"""Traced stand-in for ``python -m qms.cli``: one command, spans to a file.

Usage: ``python3 bench/cli_runner.py SPANS.json <qms command and flags>``.
The child imports ``qms`` from the checkout's ``src`` (set on
``PYTHONPATH`` by the caller), times that import, installs the benchmark's
span wrappers and runs ``qms.cli.main``.  The command's report goes to
stdout unchanged; the spans and the import figures go to SPANS.json.
"""

import json
import sys
import time

import tracing


def main(argv) -> int:
    out, args = argv[0], argv[1:]
    before = len(sys.modules)
    start = time.perf_counter()
    import qms
    end = time.perf_counter()
    modules = len(sys.modules) - before
    rec = tracing.Recorder()
    rec.op = 0
    rec.add("import.qms", start, end)
    tracing.install(rec)
    try:
        code = qms.cli.main(args)
    finally:
        sys.stdout.flush()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"qms_file": qms.__file__, "modules": modules,
                       "spans": rec.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
