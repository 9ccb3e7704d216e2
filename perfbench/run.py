#!/usr/bin/env python3
"""The repo benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds malleus_perfbench (perfbench/,
linked against the library compiled from src/) into .bench_build/perfbench,
runs one workload, gates its output digest and prints every metric by name
with its unit, then the environment stamp, then as the last stdout line one
JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics (a layer the workload does not call reads 0; see
perfbench/layer_map.json for which layer metric should move which
end-to-end metric on which workload).

Correctness gate: a digest of the workload's outputs must equal the digest
committed in perfbench/expected_digests.json for the same arguments, and
the same prefix of work must give identical digests at two planner thread
counts. A mismatch counts one failed operation, prints correct=false and
exits 1.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Library environment overrides (net model, FlowSim engine, planner
# threads). They are removed from the workload's environment, so every run
# uses the models and thread counts the benchmark pins; any that were set
# are recorded in the stamp.
CLEARED_ENV = ("MALLEUS_NET_MODEL", "MALLEUS_FLOWSIM",
               "MALLEUS_PLANNER_THREADS")
RUN_TIMEOUT_SECONDS = 170
# The seed whose digests perfbench/expected_digests.json commits (at
# run_seconds, traced and untraced); other seeds are gated by the
# thread-count check alone.
DEFAULT_SEED = 1


def log(message):
    print(message, file=sys.stderr, flush=True)


def digest_key(workload, seed, seconds, trace):
    return f"{workload} seed={seed} seconds={seconds:g} trace={trace}"


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds malleus_perfbench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("library sources src/ not found beside perfbench/")
    out = build_dir()
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, env=env, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target",
                    "malleus_perfbench", "-j", jobs],
                   check=True, env=env, stdout=sys.stderr)
    return out / "malleus_perfbench"


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--expected-digests",
                        default=str(HERE / "expected_digests.json"),
                        help="digest file to gate against")
    parser.add_argument("--serve-requests", type=int, default=0,
                        help="serve-replan-70b stream length (0 = sized "
                             "from --seconds)")
    parser.add_argument("--serve-malformed", type=int, default=0,
                        help="malformed lines in the serve stream")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 2

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
               "--trace", str(args.trace)]
    if args.serve_requests:
        command += ["--serve-requests", str(args.serve_requests)]
    if args.serve_malformed:
        command += ["--serve-malformed", str(args.serve_malformed)]
    cleared = {k: os.environ[k] for k in CLEARED_ENV if k in os.environ}
    run_env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, env=run_env,
                              timeout=RUN_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_SECONDS} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: malleus_perfbench exited with code {proc.returncode}")
        return 1
    raw = json.loads(lines[-1])

    # Correctness gate.
    key = digest_key(args.workload, args.seed, args.seconds, args.trace)
    expected_digests = {}
    if Path(args.expected_digests).is_file():
        with open(args.expected_digests, encoding="utf-8") as f:
            expected_digests = json.load(f)
    expected = expected_digests.get(key)
    check = raw["check"]
    threads_agree = check["digest"] == check["digest_other"]
    digest_ok = expected is None or raw["digest"] == expected
    correct = threads_agree and digest_ok
    failed = raw["failed"] + (0 if digest_ok else 1) + \
        (0 if threads_agree else 1)
    attempted = max(1, raw["attempted"])

    env = raw["env"]
    env["digest"] = raw["digest"]
    env["digest_expected"] = expected if expected is not None else \
        "none committed for these arguments"
    env["thread_counts_checked"] = [check["threads"], check["threads_other"]]
    env["thread_digests_agree"] = threads_agree
    env["error_rate"] = failed / attempted
    env["cleared_env"] = cleared
    if env.get("build_type") != "Release":
        env["flag"] = "NON-RELEASE BUILD: timings are not comparable"
        log("perfbench: WARNING: non-Release build")

    measured = raw["metrics"]
    if args.trace:
        wanted = spec["per_layer"]
        unknown = sorted(set(measured) - {m["name"] for m in wanted})
        if unknown:
            log(f"perfbench: unlisted layers reported: {unknown}")
            return 1
    else:
        wanted = spec["end_to_end"]
        measured["success_rate"] = 1.0 - failed / attempted
    metrics = {}
    for m in wanted:
        value = float(measured.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:28s} {value:.6g} {m['unit']}")
    if not args.trace:
        print(f"{'error_rate':28s} {env['error_rate']:.6g} ratio "
              f"({failed} failed / {attempted} attempted)")
    if expected is not None and not digest_ok:
        print(f"DIGEST MISMATCH: {raw['digest']} != expected {expected}")
    if not threads_agree:
        print(f"THREAD DIGESTS DIFFER: {check}")
    print(json.dumps({"workload": args.workload, "env": env}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
