#!/usr/bin/env python3
"""Benchmark entry point for the pfc code-generation pipeline.

Builds perfbench/ (the measuring program, linked against this checkout's
src/) with CMake, runs one workload in a scratch directory under the build
directory, checks its outputs and prints the result. The last line of
stdout is the result object: correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload eutectic_3d --seed 1 \\
        --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics (a separate, traced invocation). --workload all runs every
workload and names the metrics workload/metric. The full report, with
the host signature, the choices behind each number and the spans of a
traced run, is written to <build>/reports/.

    python3 perfbench/run.py compare A.json B.json

prints the metric ratios of two saved reports and refuses reports whose
host signatures differ.
"""
import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(HERE, "spec.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configures and builds pfc_perfbench; returns the binary path."""
    if not os.path.isdir(os.path.join(ROOT, "src", "pfc")):
        sys.exit("perfbench: no src/pfc next to perfbench/; nothing to build")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "-j", jobs])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               env=env) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("perfbench: build failed (" + " ".join(cmd) + ")")
    return os.path.join(bdir, "pfc_perfbench")


def declared(trace):
    with open(BENCHMARK) as f:
        b = json.load(f)
    return b["per_layer" if trace else "end_to_end"]


def run_once(exe, args, workload, rundir, extra):
    env = dict(os.environ)
    tmp = os.path.join(rundir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["PFC_JIT_TMPDIR"] = tmp
    env["TMPDIR"] = tmp
    env.pop("PFC_KERNEL_CACHE_DIR", None)
    env.pop("PFC_VECTOR_WIDTH", None)
    cmd = [exe, "run", "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spec", SPEC] + extra
    proc = subprocess.Popen(cmd, cwd=rundir, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        # Nothing the run started may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if err.strip():
        sys.stderr.write(err[-4000:])
    if proc.returncode != 0:
        sys.exit("perfbench: pfc_perfbench exited with %d" % proc.returncode)
    lines = [l for l in out.splitlines() if l.strip()]
    return json.loads(lines[-1])


def show(workload, report, names):
    print("workload %s" % workload)
    for m in names:
        v = report["metrics"][m["name"]]
        print("  %s/%-40s %16.6g %s" % (workload, m["name"], v["value"],
                                        v["unit"]))
    t = report.get("info", {}).get("step_ms_tail")
    if t:
        print("  step_ms_tail: p%d of %d samples, %d beyond it" % (
            t["percentile"], t["samples"], t["samples_beyond"]))
    for f in report.get("failures", []):
        print("  FAILED: " + f)


def run_workload(args, workload, exe, broot):
    """Runs one workload; returns its report and declared metrics."""
    rundir = os.path.join(broot, "runs", "%s-%d-%d" % (workload, args.seed,
                                                      os.getpid()))
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    extra = ["--corrupt-checksum"] if args.corrupt_checksum else []
    try:
        report = run_once(exe, args, workload, rundir, extra)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    # The result line of a run carries every declared metric of its kind,
    # end-to-end or per-layer, whatever the workload; spec.json says which
    # workload each per-layer metric should move and how the others are
    # measured where they do not apply.
    names = declared(args.trace)
    missing = [m["name"] for m in names if m["name"] not in report["metrics"]]
    if missing:
        sys.exit("perfbench: metrics missing from the run: " + ", ".join(missing))
    metrics = {}
    for m in names:
        v = report["metrics"][m["name"]]
        if not math.isfinite(v["value"]) or v["unit"] != m["unit"]:
            sys.exit("perfbench: bad value or unit for " + m["name"])
        metrics[m["name"]] = {"value": v["value"], "unit": v["unit"]}

    os.makedirs(os.path.join(broot, "reports"), exist_ok=True)
    path = os.path.join(broot, "reports", "%s-seed%d-trace%d.json" % (
        workload, args.seed, args.trace))
    report.update(workload=workload, seed=args.seed, seconds=args.seconds)
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    show(workload, report, names)
    print("report: " + path)
    return report, metrics


def cmd_run(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True,
                   help="a workload of BENCHMARK.json, or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt-checksum", action="store_true",
                   help="test hook: corrupt one warm job's checksum")
    args = p.parse_args(argv)
    with open(SPEC) as f:
        spec = json.load(f)
    workloads = (list(spec["workloads"]) if args.workload == "all"
                 else [args.workload])
    for w in workloads:
        if w not in spec["workloads"]:
            sys.exit("perfbench: unknown workload " + w)

    broot = build_root()
    exe = build(os.path.join(broot, "perfbench"))
    results = [(w,) + run_workload(args, w, exe, broot) for w in workloads]
    if len(results) == 1:
        _, report, metrics = results[0]
    else:
        # One line for all workloads, metrics named workload/metric.
        report = {"correct": all(r["correct"] for _, r, _ in results),
                  "attempted": sum(r["attempted"] for _, r, _ in results),
                  "failed": sum(r["failed"] for _, r, _ in results)}
        metrics = {w + "/" + k: v for w, _, m in results for k, v in m.items()}
    print(json.dumps({"correct": bool(report["correct"]),
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))


def cmd_compare(argv):
    if len(argv) != 2:
        sys.exit("usage: run.py compare A.json B.json")
    a, b = (json.load(open(x)) for x in argv)
    ha, hb = a["info"]["host"], b["info"]["host"]
    if ha != hb:
        sys.exit("perfbench: host signatures differ; refusing to compare\n"
                 "  A: %s\n  B: %s" % (json.dumps(ha), json.dumps(hb)))
    for name, va in a["metrics"].items():
        vb = b["metrics"].get(name)
        if vb is None:
            continue
        ratio = vb["value"] / va["value"] if va["value"] else float("nan")
        print("%-44s %14.6g %14.6g %8.3f %s" % (name, va["value"],
                                                 vb["value"], ratio,
                                                 va["unit"]))


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        cmd_compare(sys.argv[2:])
    else:
        cmd_run(sys.argv[1:])
