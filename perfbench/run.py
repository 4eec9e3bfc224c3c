#!/usr/bin/env python3
"""loopspec benchmark driver.

Builds perfbench/ (the library is compiled from the repository's src/),
then runs one workload in its own process:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics, --trace 1 the per-layer ones
(see BENCHMARK.json). The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --list            # the workload catalogue
    python3 perfbench/run.py --workload all    # every workload, one process each
    python3 perfbench/run.py --workload paper --self-check  # must exit non-zero

Run it from the repository root. Build products, per-run scratch
directories and span files go under $CARGO_TARGET_DIR (default
.bench_build).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def load_json(name):
    with open(os.path.join(HERE, name)) as f:
        return json.load(f)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"] for m in spec[key]}


def build(out_dir):
    """Configure (once) and build the benchmark binary; return its path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise RuntimeError("no loopspec sources at %s/src" % ROOT)
    build_dir = os.path.join(out_dir, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    # Compiler temporaries stay inside the build directory too.
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S, env=env)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            raise RuntimeError("build step failed: %s" % " ".join(cmd))
    return os.path.join(build_dir, "loopspec_perfbench")


def run_one(binary, out_dir, args, workload):
    """Run one workload; return (exit code, parsed result or None)."""
    catalogue = load_json("catalogue.json")
    scratch = os.path.join(out_dir, "scratch")
    os.makedirs(scratch, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expect-digest", catalogue["workloads"][workload]["digest"],
           "--scratch-root", scratch,
           "--spans-out", os.path.join(out_dir, "spans-%s.jsonl" % workload)]
    if args.self_check:
        cmd += ["--self-check", "1"]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is not None:
        missing = declared_metrics(args.trace) ^ set(result["metrics"])
        if missing:
            sys.stderr.write("metrics differ from BENCHMARK.json: %s\n"
                             % sorted(missing))
            result = None
    # The result line itself is printed by the caller, and only when it
    # passed validation.
    body = lines[:-1] if lines and lines[-1].startswith("{") else lines
    for line in body:
        print(line)
    return proc.returncode, result


def list_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    catalogue = load_json("catalogue.json")
    print("loopspec benchmark: %s" % catalogue["summary"])
    for w in spec["workloads"]:
        entry = catalogue["workloads"][w["name"]]
        print("\n%s: %s" % (w["name"], w["why"]))
        for key, value in entry["inputs"].items():
            print("  %-14s %s" % (key, value))
        print("  digest         %s" % entry["digest"])
    print("\nend-to-end metrics (--trace 0):")
    for m in spec["end_to_end"]:
        print("  %-14s %-6s %s is better, bound %.2f of the parent median"
              % (m["name"], m["unit"], m["better"], m["bound"]))
    for note in catalogue["notes"]:
        print("  note: %s" % note)
    print("\nper-layer metrics (--trace 1): layer -> metrics -> end-to-end")
    for layer in catalogue["layers"]:
        print("  %s\n    metrics: %s\n    moves %s on %s; not on %s"
              % (layer["layer"], ", ".join(layer["metrics"]),
                 layer["moves"], layer["on"], layer["not_on"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="corrupt one cell or response; must fail")
    parser.add_argument("--list", action="store_true",
                        help="print the workload catalogue and exit")
    args = parser.parse_args()

    if args.list:
        list_catalogue()
        return 0
    if not args.workload:
        parser.error("--workload is required")

    out_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    try:
        binary = build(out_dir)
    except (RuntimeError, OSError, subprocess.SubprocessError) as err:
        sys.stderr.write("perfbench: %s\n" % err)
        return 2

    if args.workload != "all":
        code, result = run_one(binary, out_dir, args, args.workload)
        if result is None:
            return code or 3
        print(json.dumps(result))
        return code

    # Every workload in its own process, so memory and caches never leak
    # from one workload into the next.
    names = [w["name"] for w in load_json("../BENCHMARK.json")["workloads"]]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in names:
        code, result = run_one(binary, out_dir, args, name)
        worst = worst or code
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"]["%s/%s" % (name, metric)] = value
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
