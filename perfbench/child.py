"""Child process of the benchmark; started with ``PYTHONPATH=src``.

    child.py setup MODEL LEXICON
        build the in-process workloads' pipeline, print ``ready``, exit.
    child.py cli [--trace-out FILE] ARG...
        run ``frameparse ARG...`` as the console script does; with
        ``--trace-out``, trace it and write the spans to FILE.
"""

import json
import sys


def main(argv):
    if argv[:1] == ["setup"] and len(argv) == 3:
        from common import build_pipeline
        build_pipeline(argv[1], argv[2])
        print("ready", flush=True)
        return 0
    if argv[:1] == ["cli"]:
        args = argv[1:]
        trace_out = None
        if args[:1] == ["--trace-out"]:
            trace_out, args = args[1], args[2:]
        from frameparse import cli
        if trace_out is None:
            return cli.main(args)
        from tracing import Tracer, install
        tracer = Tracer()
        install(tracer)
        code = tracer.wrap(cli.main, "cli.main")(args)
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)
        return code
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
