"""masktrack benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload crowd --seed 1 --seconds 25 --trace 0

Run from the root of a masktrack checkout; it imports the package from
``src/``. The inputs are made from the seed in a first child process (timed:
``setup_s``); a second, fresh child repeats ``masktrack track`` +
``masktrack eval`` on them for ``--seconds`` seconds, so its peak RSS holds
no set-up allocations; its times add up each piece's fastest repetition,
which a busy host disturbs far less than a median of whole repetitions.
With ``--trace 0`` the last line carries the
end-to-end metrics; with ``--trace 1`` the per-layer metrics of a run with
every layer boundary wrapped. See perfbench/README.md for the metric table.
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

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("crowd", "fragments", "features")
WORK_DIR = ".perfbench_work"
# the whole run, build-free, must end well inside 180 s
TIME_LIMIT_S = 170.0

# end-to-end metric -> unit; BENCHMARK.json lists the same names
END_TO_END = {
    "setup_s": "s",
    "track_s": "s",
    "eval_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p95": "ms",
    "peak_rss_mb": "MB",
    "motsa": "ratio",
    "smotsa": "ratio",
    "pass_rate": "ratio",
}


class ChildFailed(RuntimeError):
    pass


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one process, one thread: no BLAS pool competing with the Python loop
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_child(args: list[str], env: dict, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "phases.py"), *args]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{args[0]} phase exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{args[0]} phase exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _result(setup: dict, measured: dict, trace: bool) -> dict:
    reps = measured["reps"]
    attempted = len(reps)
    failed = sum(1 for r in reps if not r["ok"])
    if trace:
        layers = dict(measured["layers"])
        for key, value in setup["synth.generate"].items():
            layers[f"synth.generate.{key}"] = value
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in measured["layer_units"].items()}
    else:
        values = {
            "setup_s": statistics.median(setup["setup_times"]),
            "pass_rate": (attempted - failed) / attempted,
            **{k: measured[k] for k in END_TO_END if k in measured},
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to repeat track + eval")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    began = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "masktrack", "__init__.py")):
        print("perfbench: src/masktrack not found; run from the root of a masktrack checkout", file=sys.stderr)
        return 2
    work = os.path.join(root, WORK_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = _child_env(root)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work", work, "--trace", str(args.trace)]
    try:
        setup = _run_child(["setup", *common], env, TIME_LIMIT_S - (time.monotonic() - began))
        left = TIME_LIMIT_S - (time.monotonic() - began)
        measured = _run_child(
            [
                "measure", *common,
                "--seconds", str(args.seconds),
                "--max-seconds", str(max(args.seconds, left - 30.0)),
                "--spans-dir", os.path.join(root, WORK_DIR, "spans"),
            ],
            env,
            left,
        )
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if "track_s" not in measured:
        print(f"perfbench: every sequence run failed: {measured['reps'][0].get('error')}", file=sys.stderr)
        return 1

    result = _result(setup, measured, bool(args.trace))
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "result_sha256": measured["result_sha256"],
        "inputs_sha256": setup["inputs_sha256"],
        "id_switches": measured["id_switches"],
        "fail_rate": result["failed"] / result["attempted"],
        "errors": sorted({r["error"] for r in measured["reps"] if not r["ok"]}),
        "step_samples": measured.get("step_samples"),
        "pieces": measured.get("pieces"),
        "probe_us": measured.get("probe_us"),
        "track_s_raw": measured.get("track_s_raw"),
        "eval_s_raw": measured.get("eval_s_raw"),
        "track_s_runs": [r["track_s"] for r in measured["reps"]],
        "eval_s_runs": [r["eval_s"] for r in measured["reps"]],
        "setup_s_runs": setup["setup_times"],
        "setup_s_raw_runs": setup["setup_times_raw"],
    }
    if args.trace:
        info["scaling_points"] = measured["scaling_points"]
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
