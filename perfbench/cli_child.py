"""Traced CLI request: ``python3 cli_child.py SUMMARY.json <fcslab argv...>``.

Runs ``fcslab.cli.main`` in this fresh process with the layer tracer
installed, writes the time of a fresh ``import fcslab``, the tracer totals
and the spans to SUMMARY.json, and exits with the CLI's exit code.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    summary, argv = Path(sys.argv[1]), sys.argv[2:]
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    start = time.perf_counter()
    import fcslab.cli
    import_s = time.perf_counter() - start
    from tracer import Tracer

    tracer = Tracer()
    with tracer:
        code = fcslab.cli.main(argv)
    summary.write_text(json.dumps({"import_s": import_s,
                                   "totals": tracer.totals(),
                                   "spans": tracer.span_rows()}))
    return code


if __name__ == "__main__":
    sys.exit(main())
