"""One benchmark repetition, run in a fresh interpreter.

    python3 perfbench/child.py ROOT TRACE [CLI-ARG ...]

Times ``import fracbound.cli``, checks that the package came from
ROOT/src, then runs ``fracbound.cli.main`` on the CLI arguments (with
none, it stops after the import).  With TRACE 1 the per-layer spans of
``layers.py`` are installed first.  The host speed probe (``probe.py``)
runs just before and just after ``main``, in this process, so it measures
the processor the work ran on.  Prints one JSON line: ``setup_s``,
``main_s``, ``probe_s`` (mean probe time), ``probe_wall_s`` (time spent
probing), ``peak_rss_mb`` (this process's own ``ru_maxrss``) and, when
traced, ``layers``.  Exits with the CLI's code, or 3 when the package was
imported from anywhere but ROOT/src.
"""

import sys
import time


def main() -> int:
    root, traced, cli_argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    # Only builtin modules are loaded before this point, so the import
    # below pays for everything fracbound.cli pulls in.
    t0 = time.perf_counter()
    import fracbound.cli
    setup_s = time.perf_counter() - t0

    import json
    import os
    import resource

    src = os.path.realpath(os.path.join(root, "src"))
    origin = os.path.realpath(fracbound.__file__)
    if not origin.startswith(src + os.sep):
        print(f"perfbench: fracbound imported from {origin}, not from {src}", file=sys.stderr)
        return 3
    result = {"setup_s": setup_s}
    code = 0
    if cli_argv:
        tracer = None
        if traced:
            import layers
            tracer = layers.install()
        t_probe = time.perf_counter()
        import probe
        before = probe.probe_seconds()
        t1 = time.perf_counter()
        code = fracbound.cli.main(cli_argv)
        t2 = time.perf_counter()
        after = probe.probe_seconds()
        result["main_s"] = t2 - t1
        result["probe_s"] = (before + after) / 2.0
        result["probe_wall_s"] = (t1 - t_probe) + (time.perf_counter() - t2)
        if tracer is not None:
            result["layers"] = tracer.metrics()
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
