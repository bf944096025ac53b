"""Child process for the set-up and cold-CLI measurements of run.py.

  probe.py setup <workload> <op-json>   import momentbound, run one operation
  probe.py cli <argv...>                import momentbound.cli, run main(argv) traced

Each prints one JSON line of timings measured inside the fresh interpreter.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time


def _setup(workload: str, op_json: str) -> dict:
    started = time.perf_counter()
    import momentbound

    if workload == "oracle_check":
        import momentbound.cli  # noqa: F401  (the operation runs through it)
    imported = time.perf_counter()
    import workloads

    op = workloads.Op(**json.loads(op_json))
    runner = workloads.Runner(workload, momentbound, os.environ["PERFBENCH_WORKDIR"])
    runner.prepare(op)
    op_started = time.perf_counter()
    runner.run(op)
    done = time.perf_counter()
    return {"setup_s": (imported - started) + (done - op_started)}


def _cli(argv: list[str]) -> dict:
    started = time.perf_counter()
    import momentbound
    import momentbound.cli

    imported = time.perf_counter()
    from layertrace import Tracer

    tracer = Tracer(momentbound)
    with open(os.devnull, "w") as sink:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), tracer:
            main_started = time.perf_counter()
            momentbound.cli.main(argv)
            main_s = time.perf_counter() - main_started
    layers = tracer.layer_self_ms(1)
    return {"import_ms": 1e3 * (imported - started), "main_ms": 1e3 * main_s, "layers": layers}


if __name__ == "__main__":
    mode = sys.argv[1]
    result = _setup(sys.argv[2], sys.argv[3]) if mode == "setup" else _cli(sys.argv[2:])
    print(json.dumps(result))
