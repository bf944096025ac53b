"""momentbound benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload solve_stream --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program under test is the package in
src/momentbound of that root, imported from source.  One caller issues
operations back to back for --seconds; every operation goes through the
correctness gate.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones and no wrapper is
installed.  With --trace 1 they are the per-layer ones: the run alternates
untraced and traced blocks, so the tracing overhead is measured in the same
run.  After the timed loop a fixed-size probe runs the instances on which the
program is known to fail; its tally is printed and recorded but is not part of
`attempted` and `failed`.  The lines before the result give every figure with
its unit, the failure tallies and the reproducibility record; a copy of the
record (and, when tracing, the spans) goes to perfbench/.out/.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported, here and in every
# child process, so the figures measure the program and not the scheduler.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"

# Latency tail: a fixed percentile per workload, with at least 20 samples
# beyond it at the operation counts of a 30 s run on the first measured
# version (about 60000, 900 and 100 operations).  It stays fixed, so the metric
# compares like with like when a change speeds a workload up or slows it down.
# Each sits inside a cluster of slow operations, not on its edge, where a
# small shift would move it far: p99.5 is mid-way through the ~1.3% of
# solve_stream solves that take the near-threshold fallback, p98 inside the
# costliest tenth of newsvendor decisions (mp1t at t = 1.5 and 3, eta = 0.9999).
TAIL_PERCENTILE = {"solve_stream": 99.5, "newsvendor": 98.0, "oracle_check": 80.0}
WARMUP_OPS = {"solve_stream": 200, "newsvendor": 5, "oracle_check": 1}
WARMUP_KERNELS = 20
# The untraced loop runs in SEGMENTS parts with one set-up measurement before
# each, so their median samples the whole run and not one moment of a host
# whose speed drifts from second to second.
SEGMENTS = 8
PROBE_REPEATS = 3
TRACE_BLOCKS = 4  # untraced, traced, untraced, traced
CHILD_TIMEOUT_S = 60.0

# Set-up and cold-CLI figures measure fixed costs, so they use one fixed
# instance per workload rather than seeded ones: the mp1t point of the
# reference q sweep, and the mean-variance newsvendor of the README
# (mu = sigma = 50, eta = 0.9, q* = 116.6667).
_MP1T = {"M1": 50.0, "Mt": 1.5 * 50.0**1.5, "t": 1.5, "q": 100.0}
_NEWSVENDOR = {"M1": 50.0, "Mt": 5000.0, "t": 2.0}
FIXED_OP = {
    "solve_stream": {"kind": "mp1t", "params": _MP1T},
    "newsvendor": {"kind": "mp1t-2", "params": _NEWSVENDOR, "eta": 0.9},
    "oracle_check": {"kind": "mp1t", "params": _MP1T},
}
CLI_COMMAND = {
    "solve_stream": ("solve", {"problem": "mp1t", "params": _MP1T}),
    "newsvendor": (
        "solve",
        {"problem": "newsvendor", "params": {"ambiguity": "mp1t", **_NEWSVENDOR, "eta": 0.9}},
    ),
    "oracle_check": ("check", {"problem": "mp1t", "params": _MP1T}),
}

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), env.get("PYTHONPATH", "")) if p
    )
    return env


def _run_child(argv: list[str], env: dict) -> tuple[float, str, int, str]:
    """Run one child process to completion: (wall seconds, stdout, exit code, stderr)."""
    started = time.perf_counter()
    proc = subprocess.run(
        argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    wall = time.perf_counter() - started
    return wall, proc.stdout, proc.returncode, proc.stderr


class Bench:
    def __init__(self, args, mb, workloads, workdir: Path) -> None:
        self.workload = args.workload
        self.mb = mb
        self.wl = workloads
        self.workdir = workdir
        self.stream = workloads.make_stream(args.workload, args.seed)
        self.runner = workloads.Runner(args.workload, mb, str(workdir))
        self.env = _child_env()
        self.env["PERFBENCH_WORKDIR"] = str(workdir)

    # -- child-process measurements -------------------------------------------

    def _probe(self, argv: list[str]) -> dict:
        _, out, code, err = _run_child([sys.executable, str(HERE / "probe.py"), *argv], self.env)
        if code != 0:
            raise RuntimeError(f"probe {argv[:2]} failed ({code}): {err.strip()[-400:]}")
        return json.loads(out.strip().splitlines()[-1])

    def setup_s(self) -> tuple[float, float]:
        """One set-up time and the host factor around it."""
        op = json.dumps(FIXED_OP[self.workload])
        before = hostspeed.kernel_s()
        seconds = self._probe(["setup", self.workload, op])["setup_s"]
        return seconds, hostspeed.factor(before, hostspeed.kernel_s())

    def _cli_argv(self) -> list[str]:
        command, doc = CLI_COMMAND[self.workload]
        path = self.workdir / "cli-instance.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return [command, str(path)]

    def cli_wall_s(self) -> float:
        wall, _, code, err = _run_child(
            [sys.executable, "-m", "momentbound.cli", *self._cli_argv()], self.env
        )
        if code != 0:
            raise RuntimeError(f"cold CLI run failed ({code}): {err.strip()[-400:]}")
        return wall

    def cli_layers(self) -> dict:
        interp = [_run_child([sys.executable, "-c", "pass"], self.env)[0] for _ in range(PROBE_REPEATS)]
        walls = [self.cli_wall_s() for _ in range(PROBE_REPEATS)]
        probes = [self._probe(["cli", *self._cli_argv()]) for _ in range(PROBE_REPEATS)]
        return {
            "cli.wall_ms": 1e3 * statistics.median(walls),
            "cli.interp_ms": 1e3 * statistics.median(interp),
            "cli.import_ms": statistics.median(p["import_ms"] for p in probes),
            "cli.self_ms": statistics.median(p["layers"].get("cli", 0.0) for p in probes),
        }

    # -- the closed loop -------------------------------------------------------

    def warm_up(self) -> None:
        for _ in range(WARMUP_KERNELS):
            hostspeed.kernel_s()
        for _ in range(WARMUP_OPS[self.workload]):
            op = self.stream.next()
            self.runner.prepare(op)
            try:
                self.runner.run(op)
            except Exception:  # noqa: BLE001  (warm-up results are not scored)
                pass

    def block(self, seconds: float, tracer=None) -> tuple[list[float], list[float], Counter]:
        """Issue operations back to back for `seconds`.

        Returns the latencies, the host factor of each operation (see
        hostspeed) and the failures.  Each operation is judged after its
        latency is taken.  In a traced block judging waits until the tracer is
        removed, so the gate's own calls into the program leave no spans.
        """
        runner, stream = self.runner, self.stream
        perf = time.perf_counter
        latencies: list[float] = []
        factors: list[float] = []
        failures: Counter = Counter()
        pending = []
        gc.collect()
        kernel_before = hostspeed.kernel_s()
        busy = 0.0
        deadline = perf() + seconds
        if tracer is not None:
            tracer.install()
        try:
            while perf() < deadline:
                op = stream.next()
                runner.prepare(op)
                if tracer is not None:
                    tracer.op = stream.issued - 1
                exc = result = None
                started = perf()
                try:
                    result = runner.run(op)
                except Exception as e:  # noqa: BLE001  (every failure is tallied)
                    exc = e
                latency = perf() - started
                latencies.append(latency)
                if tracer is None:
                    self._judge(op, result, exc, failures)
                else:
                    pending.append((op, result, exc))
                busy += latency
                if busy >= hostspeed.BLOCK_S:
                    kernel_before = self._close_block(kernel_before, len(latencies), factors)
                    busy = 0.0
        finally:
            if tracer is not None:
                tracer.uninstall()
        if len(factors) < len(latencies):
            self._close_block(kernel_before, len(latencies), factors)
        for op, result, exc in pending:
            self._judge(op, result, exc, failures)
        return latencies, factors, failures

    @staticmethod
    def _close_block(kernel_before: float, ops: int, factors: list[float]) -> float:
        """Give the operations since the last kernel run their host factor."""
        kernel_after = hostspeed.kernel_s()
        factors.extend([hostspeed.factor(kernel_before, kernel_after)] * (ops - len(factors)))
        return kernel_after

    def probe(self, seed: int) -> tuple[int, Counter]:
        """Run the known-defect instances once, untimed; returns (count, failures)."""
        ops = self.wl.known_defect_ops(self.workload, seed)
        failures: Counter = Counter()
        for op in ops:
            self.runner.prepare(op)
            exc = result = None
            try:
                result = self.runner.run(op)
            except Exception as e:  # noqa: BLE001  (every failure is tallied)
                exc = e
            self._judge(op, result, exc, failures)
        return len(ops), failures

    def _judge(self, op, result, exc, failures: Counter) -> None:
        if exc is not None:
            failures[self.wl.classify_exception(exc, self.mb)] += 1
            return
        try:
            verdict = self.wl.judge(self.runner, op, result)
        except Exception as e:  # noqa: BLE001  (a gate that cannot run is a failure)
            verdict = "gate:" + self.wl.classify_exception(e, self.mb)
        if verdict is not None:
            failures[verdict] += 1


def _figures(workload: str, latencies, setup) -> dict:
    lat = np.asarray(latencies)
    return {
        "ops_per_s": lat.size / float(lat.sum()),
        "latency_p50_ms": 1e3 * float(np.median(lat)),
        "latency_tail_ms": 1e3 * float(np.percentile(lat, TAIL_PERCENTILE[workload])),
        "setup_s": float(np.median(setup)),
    }


def _end_to_end(workload, latencies, factors, failures, setup, setup_factors) -> tuple[dict, dict]:
    """Metrics at reference host speed, and the raw figures beside them."""
    lat = np.asarray(latencies)
    scaled = lat / np.asarray(factors)
    metrics = _figures(workload, scaled, np.asarray(setup) / np.asarray(setup_factors))
    tail = metrics["latency_tail_ms"] / 1e3
    detail = {
        "failed_frac": sum(failures.values()) / lat.size,
        "tail_percentile": TAIL_PERCENTILE[workload],
        "tail_samples_beyond": int(np.sum(scaled > tail)),
        "samples": int(lat.size),
        "host_factor_median": float(np.median(factors)),
        "host_factor_range": [float(np.min(factors)), float(np.max(factors))],
        "raw": _figures(workload, lat, setup),
        "setup_s_runs": setup,
        "setup_host_factors": setup_factors,
    }
    return metrics, detail


def _record(args, mb, stream) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "instances_digest": stream.digest(),
        "instances_digest_prefix": 1000,
        "instances_issued": stream.issued,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "momentbound": getattr(mb, "__version__", "unknown"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ[k] for k in sorted(BLAS_ENV)},
        "closed_loop_callers": 1,
    }


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("solve_stream", "newsvendor", "oracle_check"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _import_program():
    if not (SRC / "momentbound" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package at {SRC / 'momentbound'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import momentbound
    import momentbound.cli

    if Path(momentbound.__file__).resolve().parent != SRC / "momentbound":
        raise SystemExit(f"perfbench: imported momentbound from {momentbound.__file__}, not {SRC}")
    return momentbound


def main(argv: list[str]) -> int:
    args = _parse(argv)
    mb = _import_program()
    import layertrace
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        bench = Bench(args, mb, workloads, workdir)
        bench.warm_up()
        tracer = None
        if args.trace:
            tracer = layertrace.Tracer(mb)
            share = args.seconds / TRACE_BLOCKS
            plain_lat, traced_lat, failures = [], [], Counter()
            for k in range(TRACE_BLOCKS):
                lat, _, fails = bench.block(share, tracer if k % 2 else None)
                (traced_lat if k % 2 else plain_lat).extend(lat)
                failures.update(fails)
            latencies = plain_lat + traced_lat
            plain_rate = len(plain_lat) / sum(plain_lat)
            traced_rate = len(traced_lat) / sum(traced_lat)
            metrics = tracer.metrics(len(traced_lat), sum(traced_lat))
            metrics["trace.overhead_frac"] = 1.0 - traced_rate / plain_rate
            metrics.update(bench.cli_layers())
            units = {name: _layer_unit(name) for name in metrics}
            detail = {
                "failed_frac": sum(failures.values()) / len(latencies),
                "traced_ops": len(traced_lat),
                "untraced_ops": len(plain_lat),
                "layer_self_ms": tracer.layer_self_ms(len(traced_lat)),
                "traced_op_ms": 1e3 * sum(traced_lat) / len(traced_lat),
            }
        else:
            setup, setup_factors, latencies, factors, failures = [], [], [], [], Counter()
            for _ in range(SEGMENTS):
                seconds, factor = bench.setup_s()
                setup.append(seconds)
                setup_factors.append(factor)
                lat, fac, fails = bench.block(args.seconds / SEGMENTS)
                latencies.extend(lat)
                factors.extend(fac)
                failures.update(fails)
            metrics, detail = _end_to_end(
                args.workload, latencies, factors, failures, setup, setup_factors
            )
            units = END_TO_END_UNITS
        probed, probe_failures = bench.probe(args.seed)
        if args.trace:
            metrics["known_defect.failed"] = float(sum(probe_failures.values()))
            units["known_defect.failed"] = "count"
        record = _record(args, mb, bench.stream)
        record.update(detail)
        record["failure_tally"] = dict(sorted(failures.items()))
        record["known_defect_probe"] = {
            "attempted": probed,
            "failed": sum(probe_failures.values()),
            "tally": dict(sorted(probe_failures.items())),
        }
        record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
        if tracer is not None:
            tracer.write(str(OUT / f"{stem}.spans.jsonl.gz"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, value in metrics.items():
        print(f"{name:28s} {value:14.6g} {units[name]}")
    print(f"{'failed_frac':28s} {record['failed_frac']:14.6g} 1   tally {record['failure_tally']}")
    known = record["known_defect_probe"]
    print(f"known-defect probe: {known['failed']} of {known['attempted']} failed, tally {known['tally']}")
    if not args.trace:
        print(
            f"latency_tail_ms is p{record['tail_percentile']:g} of {record['samples']} samples,"
            f" {record['tail_samples_beyond']} beyond it"
        )
        print(
            f"times are at reference host speed; host factor median"
            f" {record['host_factor_median']:.4g}, raw figures {record['raw']}"
        )
    print("record " + json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    wrong = sum(
        v
        for tally in (failures, probe_failures)
        for k, v in tally.items()
        if k == workloads.WRONG or k.startswith("gate:")
    )
    result = {
        "correct": wrong == 0,
        "attempted": len(latencies),
        "failed": sum(failures.values()),
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac") or name.endswith(".share"):
        return "1"
    if name == "oracle.us_per_grid_point":
        return "us"
    return "count"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
