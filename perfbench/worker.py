"""One benchmark pass in a fresh interpreter.

    python worker.py --probe
    python worker.py PASS.json RESULT.json [--trace]

The worker imports ebring and writes ``ready`` and the CPU seconds it has
used so far (interpreter start plus import, the set-up) on stdout, then, unless
probing, issues every request of PASS.json as an ``ebring.cli.run(argv)``
call with stdout and stderr captured, one after the other. An untraced pass
also runs the reference job of ``calibrate.py`` before each request and after
the last. RESULT.json gets each request's exit code, output, wall and CPU
seconds, their sums over the pass, the interpreter's peak RSS, the reference
job's times and, with ``--trace``, the recorded spans.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def peak_rss_mb() -> float:
    """Peak resident memory of this interpreter. ``ru_maxrss`` would also
    count the parent's memory at the fork that started it, so Linux's
    per-image high-water mark is read where there is one."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_pass(argvs, tracer=None, gauge=None) -> dict:
    """Issue the requests in a closed loop and time each one. With ``gauge``
    (a function returning wall and CPU seconds), the worker also runs it
    before each request and after the last, outside the requests' times."""
    import ebring.cli

    if tracer is not None:
        tracer.install()
    results, gauges = [], []
    try:
        for argv in argvs:
            if gauge is not None:
                gauges.append(gauge())
            out, err = io.StringIO(), io.StringIO()
            start, start_cpu = time.perf_counter(), time.process_time()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = ebring.cli.run(argv)
            except Exception:  # a crash is a failed request, not a failed pass
                code = None
                err.write(traceback.format_exc())
            results.append({"code": code, "stdout": out.getvalue(),
                            "stderr": err.getvalue()[-2000:],
                            "seconds": time.perf_counter() - start,
                            "cpu_seconds": time.process_time() - start_cpu})
        if gauge is not None:
            gauges.append(gauge())
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"wall_s": sum(r["seconds"] for r in results),
            "cpu_s": sum(r["cpu_seconds"] for r in results),
            "peak_rss_mb": peak_rss_mb(), "requests": results, "gauges": gauges,
            "spans": tracer.spans if tracer is not None else None}


def main(args) -> int:
    if args == ["--probe"]:
        return 0
    spec_path, result_path, *flags = args
    tracer = gauge = None
    if flags == ["--trace"]:
        from tracing import Tracer
        tracer = Tracer()
    else:
        from calibrate import calibrate as gauge
    with open(spec_path, encoding="utf-8") as fh:
        argvs = json.load(fh)
    doc = run_pass(argvs, tracer, gauge)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    import ebring.cli  # noqa: F401  (the set-up being timed)

    sys.stdout.write(f"ready {time.process_time()!r}\n")
    sys.stdout.flush()
    sys.exit(main(sys.argv[1:]))
