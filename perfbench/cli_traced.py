"""Run one pmlab command in this fresh process with tracing installed.

    python3 perfbench/cli_traced.py --report OUT.json -- <pmlab arguments>

Times ``import pmlab.cli``, installs the tracer, calls ``pmlab.cli.main``
under a ``cli.main`` span, then writes the import time, exit code and span
statistics to OUT.json and every span to OUT.jsonl.  Exits with the
command's exit code.
"""

import sys
import time


def main():
    argv = sys.argv[1:]
    sep = argv.index("--")
    report = argv[argv.index("--report") + 1]
    t0 = time.perf_counter()
    import pmlab.cli

    import_s = time.perf_counter() - t0

    import json
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    span = tracer.open(tracer.intern("cli.main"))
    code = 1
    try:
        code = pmlab.cli.main(argv[sep + 1:])
    finally:
        tracer.close(span)
        tracer.uninstall()
        Path(report).write_text(json.dumps(
            {"import_s": import_s, "exit": code, "summary": tracer.summary()}))
        tracer.write_jsonl(Path(report).with_suffix(".jsonl"))
    return code


if __name__ == "__main__":
    sys.exit(main())
