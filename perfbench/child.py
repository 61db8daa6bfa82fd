"""One timed verification, run as a fresh process by ``run.py``.

Usage: python3 child.py SRC_DIR CONFIG RESULT_JSON [--trace]

Times ``import rdcheck`` plus ``load_config`` (set-up) and then
``rdcheck.cli.main(["verify", CONFIG])`` (verify), and writes the exit code,
both times and the peak resident set to RESULT_JSON.  With ``--trace`` the
layer boundaries are wrapped first (see ``tracing.py``) and the spans are
written to the result as well; set-up is then not reported.
"""

import json
import os
import resource
import sys
import time


def main(argv) -> int:
    src, config, result_path = argv[:3]
    traced = "--trace" in argv[3:]
    src = os.path.abspath(src)
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import rdcheck
    from rdcheck.cli import main as cli_main
    from rdcheck.config import load_config

    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    else:
        load_config(config)
    t1 = time.perf_counter()
    if not os.path.abspath(rdcheck.__file__).startswith(src + os.sep):
        print(f"rdcheck imported from {rdcheck.__file__}, not {src}", file=sys.stderr)
        return 70

    if tracer is not None:
        cli_main = tracer.wrap(cli_main, "cli.main")
    t2 = time.perf_counter()
    code = cli_main(["verify", config])
    t3 = time.perf_counter()

    result = {
        "exit_code": code,
        "setup_s": None if traced else t1 - t0,
        "verify_s": t3 - t2,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None:
        result["trace"] = tracer.finish()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
