"""ebring's benchmark: certified answers, end to end and layer by layer.

    python3 perfbench/run.py --workload exact-eb --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
One client works in a closed loop: each pass starts a fresh interpreter
(``worker.py``), which issues the workload's requests one after the other
as ``ebring.cli.run(argv)`` calls. Passes repeat, each with the inputs the
seed gives for that pass index, until ``--seconds`` would be exceeded. Every
output is checked (see ``oracles.py``).

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds per-pass details (raw
times, the reference job's times, input digests). ``--trace 0`` reports
medians over the passes. Pass times are *scaled*: multiplied by
``calibrate.REFERENCE_S`` over the time the reference job of
``calibrate.py`` took in the same interpreter, so that they read as seconds
of the baseline machine at its usual speed and a busy neighbour on a shared
host does not move them:

- ``scaled_wall_s``: wall seconds of a pass's requests, scaled by the
  reference job's wall time;
- ``scaled_cpu_s``: CPU seconds of the same requests, scaled by its CPU time;
- ``peak_rss_mb``: peak RSS of a pass's interpreter (not scaled);
- ``setup_s``: CPU seconds of interpreter start plus ``import ebring``, up
  to the first request, not scaled: the start is mostly imports and page
  faults, which the reference job does not track. Sampled by every pass and
  by extra start-only probes. CPU time, because the wall time of a 0.3 s
  start on a shared host is mostly scheduling noise.

``--trace 1`` runs each pass twice on the same inputs, untraced and traced,
and reports the per-layer metrics of ``tracing.py`` for the traced pass plus
``trace.overhead_frac``, traced wall time over untraced minus one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S
from oracles import check, load_goldens
from tracing import layer_metrics, layer_totals
from workloads import WORKLOADS, digest, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
# Every run ends well inside the 180 s a run is allowed.
RUN_DEADLINE_S = 170


class SetupError(RuntimeError):
    """The package cannot be started, so nothing can be measured."""


class Bench:
    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.table_dir = Path(os.path.relpath(workdir, ROOT)).as_posix()
        self.goldens = load_goldens()
        self.started = time.perf_counter()
        self.setups: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # Workers load bytecode compiled by the warm-up probe, as an installed
        # package would, whatever the caller's bytecode settings. An inherited
        # search budget would change what the requests compute, and a fixed
        # hash seed makes passes over the same inputs do the same work.
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("EBRING_BUDGET", "PYTHONDONTWRITEBYTECODE")}
        self.env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
                        PYTHONPYCACHEPREFIX=str(workdir / "pycache"))

    def _worker(self, args, timeout):
        """Start a worker, record its set-up from its ``ready`` line, wait for
        it to end. Returns the exit code, or None when it had to be killed."""
        with open(self.workdir / "worker.stderr", "a", encoding="utf-8") as err:
            proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                                    cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                    stderr=err, text=True)
            try:
                word, _, setup = proc.stdout.readline().partition(" ")
                ready = word == "ready"
                proc.stdout.close()
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                code = None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if not ready:
            tail = (self.workdir / "worker.stderr").read_text(encoding="utf-8")[-2000:]
            raise SetupError(f"the worker could not start ebring:\n{tail}")
        self.setups.append(float(setup))
        return code

    def probe(self):
        self._worker(["--probe"], timeout=60)

    def run_pass(self, index: int, trace: bool) -> dict:
        gens, files = generate(self.workload, WORKLOADS[self.workload], self.seed, index,
                               self.table_dir)
        for path, text in files.items():
            (ROOT / path).write_text(text, encoding="utf-8")
        tag = f"pass{index}{'-trace' if trace else ''}"
        spec, result = self.workdir / f"{tag}.json", self.workdir / f"{tag}-result.json"
        spec.write_text(json.dumps([g.argv for g in gens]), encoding="utf-8")
        left = RUN_DEADLINE_S - (time.perf_counter() - self.started)
        code = self._worker([str(spec), str(result)] + (["--trace"] if trace else []),
                            timeout=max(left, 1))
        doc = json.loads(result.read_text(encoding="utf-8")) if code == 0 else None
        if doc is None:
            self.problems.append(f"{tag}: worker ended with {code}; its requests count as failed")
        self.record(tag, gens, doc)
        return {"doc": doc, "inputs_sha256": digest(gens, self.table_dir)}

    def record(self, tag: str, gens, doc):
        """Count a pass's requests and check each result; a pass without a
        result document fails all of its requests."""
        self.attempted += len(gens)
        if doc is None:
            self.failed += len(gens)
            return
        for gen, res in zip(gens, doc["requests"]):
            found = check(gen, res, self.goldens)
            self.failed += bool(found)
            self.problems += [f"{tag} {' '.join(gen.argv)}: {p}" for p in found]


def measure(bench: Bench, seconds: float, trace: bool) -> tuple[dict, list]:
    bench.probe()  # warms the file cache and bytecode; not a sample
    bench.setups.clear()
    for _ in range(SETUP_PROBES):
        bench.probe()
    start = time.perf_counter()
    rounds = []
    while True:
        passes = [bench.run_pass(len(rounds), trace=False)]
        if trace:
            passes.append(bench.run_pass(len(rounds), trace=True))
        rounds.append(passes)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > seconds:
            break
    details = [[{k: p["doc"][k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "gauges")}
                | {"inputs_sha256": p["inputs_sha256"]} if p["doc"] else None
                for p in r] for r in rounds]
    docs = [[p["doc"] for p in r] for r in rounds if all(p["doc"] for p in r)]
    if not docs:
        return {}, details
    if not trace:
        # Each pass is scaled by the median time of the reference job in its
        # own interpreter: wall by wall, CPU by CPU.
        metrics = {
            f"scaled_{name}": (statistics.median(
                r[0][name] * REFERENCE_S / statistics.median(g[i] for g in r[0]["gauges"])
                for r in docs), "s")
            for i, name in enumerate(("wall_s", "cpu_s"))}
        metrics["peak_rss_mb"] = (statistics.median(r[0]["peak_rss_mb"] for r in docs), "MiB")
        metrics["setup_s"] = (statistics.median(bench.setups), "s")
        return metrics, details
    per_pass = [layer_metrics(layer_totals(r[1]["spans"])) for r in docs]
    metrics = {name: (statistics.median(m[name][0] for m in per_pass), unit)
               for name, (_, unit) in per_pass[0].items()}
    metrics["trace.overhead_frac"] = (
        statistics.median(r[1]["wall_s"] / r[0]["wall_s"] - 1 for r in docs), "ratio")
    return metrics, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ebring" / "__init__.py").is_file():
        print(f"error: no ebring package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = HERE / ".work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(args.workload, args.seed, workdir)
        metrics, details = measure(bench, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    failed = bench.failed
    for problem in bench.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "rounds": details, "setup_samples_s": bench.setups,
                      "failed_frac": failed / bench.attempted}))
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
