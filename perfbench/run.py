"""minkqm benchmark: one command, two workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
`src/`.  Workloads: `readme-cli` (every CLI example of README.md as a fresh
process, first against an empty result cache, then against the filled
one) and `moment-routes` (in-process passes, see workloads.py).  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import CACHED_EXAMPLES, README_EXAMPLES, check_cli  # noqa: E402

WORKLOADS = ("readme-cli", "moment-routes")
SETUP_PER_ROUND = 2  # fresh starts timed before each in-process round
IMPORTTIME_RUNS = 3
CHILD_LIMIT_S = 100
IMPORT_CLI = [sys.executable, "-c", "import minkqm.cli"]  # the start `setup_s` times
IMPORT_GROUPS = {"minkqm": "minkqm", "scipy": "scipy_special", "numpy": "numpy", "mpmath": "mpmath"}

# Per-layer metrics, in the order BENCHMARK.json lists them: (name, unit).
LAYER_METRICS = (
    [(f"setup.import.{g}_s", "s") for g in IMPORT_GROUPS.values()]
    + [(m, "count" if m.endswith(".calls") else "s") for mod, fn in (
        ("special", "c_coeff"), ("special", "bessel_i1_scaled"))
       for m in (f"{mod}.{fn}.calls", f"{mod}.{fn}.self_s")]
    + [("contfrac.regular_digits_int.digits", "count"),
       ("contfrac.semiregular_digits_int.digits", "count"),
       ("contfrac.semiregular_expand.self_s", "s"),
       ("contfrac.eval_semiregular.self_s", "s")]
    + [(m, "count" if m.endswith(".calls") else "s") for fn in (
        "question_mark", "question_mark_semiregular", "h_values")
       for m in (f"minkowski.{fn}.calls", f"minkowski.{fn}.self_s")]
    + [("farey.farey_moment.calls", "count"), ("farey.farey_moment.self_s", "s"),
       ("farey.leaves", "count"), ("farey.farey_generation.self_s", "s"),
       ("moments.moment.calls", "count"), ("moments.moment.self_s", "s"),
       ("moments.v_term.self_s", "s"),
       ("moments.v_term_partial.calls", "count"), ("moments.v_term_partial.self_s", "s"),
       ("moments.a_partial_direct.calls", "count"), ("moments.a_partial_direct.self_s", "s"),
       ("moments.digit_tuples", "count"), ("moments.h_integral_identity_check.self_s", "s"),
       ("quadrature.kernel_integral.calls", "count"), ("quadrature.kernel_integral.self_s", "s"),
       ("quadrature.box_tail_bound.self_s", "s"),
       ("conjecture.q_sequence.self_s", "s"), ("conjecture.lambda_partial.self_s", "s"),
       ("conjecture.conjecture_m2_report.self_s", "s"),
       ("cache.hits", "count"), ("cache.misses", "count"),
       ("cache.ResultCache.put.calls", "count"), ("cache.ResultCache.put.self_s", "s"),
       ("cache.file_bytes", "bytes")]
    + [(f"cli.{eid}.s", "s") for eid, _, _ in README_EXAMPLES]
    + [("verify.run_all.self_s", "s"), ("trace.overhead_ratio", "ratio")]
)


class Run:
    """State of one benchmark run: the checkout, the child environment and
    everything measured so far."""

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.out = HERE / "out"
        self.out.mkdir(exist_ok=True)
        drop = {"PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX", "MINKQM_CACHE"}
        self.env = {k: v for k, v in os.environ.items() if k not in drop}
        self.env["PYTHONPATH"] = str(root / "src")
        self.setup: list[float] = []
        self.cold: list[float] = []
        self.warm: list[float] = []
        self.rss: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def proc(self, argv: list[str]) -> tuple[float, int, str, float]:
        """(wall seconds, exit code, stdout, peak RSS in MB) of one child."""
        out_path, err_path = self.out / "child.out", self.out / "child.err"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            t0 = time.perf_counter()
            child = subprocess.Popen(argv, env=self.env, cwd=self.root, stdout=out, stderr=err,
                                     stdin=subprocess.DEVNULL)
            timer = threading.Timer(CHILD_LIMIT_S, child.kill)  # a hung child fails, not the run
            timer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:  # interrupted or terminated: leave no child behind
                child.kill()
                child.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        return wall, child.returncode, out_path.read_text(), usage.ru_maxrss / 1024

    def prime_bytecode(self):
        """Untimed start, so every module of minkqm has its bytecode written
        before the first timed start."""
        _, code, _, _ = self.proc(IMPORT_CLI)
        if code != 0:
            raise SystemExit(f"importing minkqm.cli failed:\n{(self.out / 'child.err').read_text()}")

    def time_setup(self, n: int):
        for _ in range(n):
            wall, code, _, _ = self.proc(IMPORT_CLI)
            if code != 0:
                raise SystemExit("importing minkqm.cli failed")
            self.setup.append(wall)

    # -- readme-cli ---------------------------------------------------------------

    def cli_round(self, traced: bool, time_setup: bool) -> dict:
        """Cold pass against an empty cache, then the warm pass against the
        filled one.  Returns per-example wall times and, traced, the summed
        layer summaries."""
        cache = self.out / "readme-cache.json"
        cache.unlink(missing_ok=True)
        walls: dict[str, float] = {}
        layers: dict[str, float] = {}
        stdouts = []
        peak = 0.0
        for pass_no in (0, 1):
            total, ctx, outs = 0.0, {}, {}
            for eid, cmd, _ in README_EXAMPLES:
                args = cmd.split() + ["--cache", str(cache)]
                if traced:
                    summary = self.out / f"trace-readme-cli-{eid}-{pass_no}.json"
                    argv = [sys.executable, str(HERE / "launch.py"), str(summary)] + args
                else:
                    argv = [sys.executable, "-m", "minkqm.cli"] + args
                wall, code, stdout, rss = self.proc(argv)
                total += wall
                peak = max(peak, rss)
                walls[eid] = walls.get(eid, 0.0) + wall
                if traced:
                    for k, v in json.loads(summary.read_text()).items():
                        layers[k] = layers.get(k, 0) + v
                outs[eid] = (code, stdout)
                if time_setup and pass_no == 0 and len(outs) % 2:
                    self.time_setup(1)
            for eid, (code, stdout) in outs.items():
                failed, problems = check_cli(eid, code, stdout, ctx)
                self.failed += failed
                self.problems += [f"{eid}: {p}" for p in problems]
            self.attempted += len(outs)
            stdouts.append(outs)
            (self.cold if pass_no == 0 else self.warm).append(total)
        for eid in CACHED_EXAMPLES:
            (c0, s0), (c1, s1) = stdouts[0][eid], stdouts[1][eid]
            if c0 == 0 and c1 == 0 and s0 != s1:
                self.problems.append(f"{eid}: the cached second pass printed different bytes")
        self.rss.append(peak)
        layers["cache.file_bytes"] = cache.stat().st_size if cache.exists() else 0
        return {"walls": walls, "layers": layers}

    # -- in-process workloads -----------------------------------------------------

    def worker_round(self, workload: str, traced: bool) -> dict:
        spans = self.out / f"trace-{workload}.spans"
        argv = [sys.executable, str(HERE / "worker.py"), workload, str(self.seed),
                "1" if traced else "0", str(spans)]
        _, code, stdout, rss = self.proc(argv)
        if code != 0:
            raise SystemExit(f"{workload} worker failed:\n{(self.out / 'child.err').read_text()}")
        res = json.loads(stdout.splitlines()[-1])
        self.cold.append(res["cold_s"])
        self.warm.append(res["warm_s"])
        self.rss.append(rss)
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        self.problems += res["problems"]
        return {"layers": res.get("layers", {})}

    def import_times(self) -> dict[str, float]:
        """Self times from `python -X importtime`, summed per top package."""
        runs = []
        for _ in range(IMPORTTIME_RUNS):
            err = self.out / "child.err"
            self.proc([sys.executable, "-X", "importtime"] + IMPORT_CLI[1:])
            sums = dict.fromkeys(IMPORT_GROUPS.values(), 0.0)
            for line in err.read_text().splitlines():
                parts = line.split("|")
                if len(parts) != 3 or not parts[0].startswith("import time:"):
                    continue
                try:
                    self_us = int(parts[0].split(":")[1])
                except ValueError:
                    continue  # the header line
                group = IMPORT_GROUPS.get(parts[2].strip().split(".")[0])
                if group:
                    sums[group] += self_us / 1e6
            runs.append(sums)
        return {f"setup.import.{g}_s": statistics.median(r[g] for r in runs)
                for g in IMPORT_GROUPS.values()}


def _round(run: Run, workload: str, traced: bool, time_setup: bool) -> dict:
    if workload == "readme-cli":
        return run.cli_round(traced, time_setup)
    if time_setup:
        run.time_setup(SETUP_PER_ROUND)
    return run.worker_round(workload, traced)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "minkqm" / "__init__.py").is_file():
        print(f"error: no minkqm source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    run = Run(root, args.seed)
    start = time.perf_counter()
    run.prime_bytecode()

    traced_rounds, plain_rounds = [], []
    while True:
        t0 = time.perf_counter()
        if args.trace:
            plain_rounds.append(_round(run, args.workload, traced=False, time_setup=False))
            traced_rounds.append(_round(run, args.workload, traced=True, time_setup=False))
        else:
            plain_rounds.append(_round(run, args.workload, traced=False, time_setup=True))
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds:
            break

    if args.trace:
        metrics = layer_metrics(run, plain_rounds, traced_rounds)
    else:
        metrics = {
            "setup_s": (statistics.median(run.setup), "s"),
            "cold_pass_s": (statistics.median(run.cold), "s"),
            "warm_pass_s": (statistics.median(run.warm), "s"),
            "peak_rss_mb": (statistics.median(run.rss), "MB"),
        }
    for p in run.problems[:20]:
        print(f"problem: {p}")
    print(f"rounds: {len(plain_rounds)} untraced, {len(traced_rounds)} traced; "
          f"setup samples: {len(run.setup)}; cold {run.cold}; warm {run.warm}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def layer_metrics(run: Run, plain: list, traced: list) -> dict:
    """Per-layer metrics: medians over traced rounds of each round's totals
    (cold plus warm pass).  `cli.*.s` are process wall times from the
    untraced rounds; the overhead compares traced with untraced pass time."""
    n = len(plain)
    plain_pass = [run.cold[2 * i] + run.warm[2 * i] for i in range(n)]
    traced_pass = [run.cold[2 * i + 1] + run.warm[2 * i + 1] for i in range(n)]
    values = dict(run.import_times())
    for name, _ in LAYER_METRICS:
        if name.startswith("cli."):
            values[name] = statistics.median(r.get("walls", {}).get(name[4:-2], 0.0) for r in plain)
        elif name not in values:
            values[name] = statistics.median(r["layers"].get(name, 0) for r in traced)
    values["trace.overhead_ratio"] = statistics.median(traced_pass) / statistics.median(plain_pass)
    return {name: (values[name], unit) for name, unit in LAYER_METRICS}


if __name__ == "__main__":
    sys.exit(main())
