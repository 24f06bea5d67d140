#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold_profile --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py --self-test

The first call configures and compiles the library sources of the checkout
(../src) together with the benchmark driver, in $CARGO_TARGET_DIR when set,
else .bench_build; later calls rebuild incrementally. All build output goes
to standard error, so the last line of standard output is the driver's JSON
result. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def run_quiet(cmd, **kw):
    """Runs `cmd` with its output on stderr; returns the exit code."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, **kw).returncode


def build():
    """Configures (once) and builds the driver; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(out)  # configured for another checkout
    if not os.path.isfile(cache):
        os.makedirs(out, exist_ok=True)
        if run_quiet(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            fail("cmake configure failed", 1)
    jobs = str(os.cpu_count() or 1)
    if run_quiet(["cmake", "--build", out, "-j", jobs]) != 0:
        fail("build failed", 1)
    return os.path.join(out, "perfbench")


def commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def source_digest():
    """Hash of the library and benchmark sources: identifies the code when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def run_driver(binary, extra):
    """Runs the driver, relays its stdout, returns (exit code, stdout)."""
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--out-dir", traces, "--commit", commit(),
           "--source-digest", source_digest()] + extra
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write((e.stderr or b"").decode(errors="replace")
                         if isinstance(e.stderr, bytes) else (e.stderr or ""))
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(r.stderr)
    return r.returncode, r.stdout


# --- self-test -------------------------------------------------------------

def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    tiny = ["--size", "tiny", "--ops", "4", "--seed", "7"]

    def driver(workload, trace, *more):
        code, out = run_driver(binary, ["--workload", workload, "--trace",
                                        str(trace)] + tiny + list(more))
        return code, out, (last_json(out) if code == 0 else None)

    for w in (x["name"] for x in spec["workloads"]):
        # 1. Every metric is printed with its unit, in text and in the JSON.
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out, res = driver(w, trace)
            if res is None:
                problems.append(f"{w} trace={trace}: exit {code}")
                continue
            if not res["correct"] or res["failed"] != 0:
                problems.append(f"{w} trace={trace}: outputs failed checks")
            for m in spec[key]:
                got = res["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{w}: {m['name']} missing or wrong unit")
                line = f"  {m['name']:<34} = "
                if not any(l.startswith(line) and l.split()[3] == m["unit"]
                           for l in out.splitlines() if len(l.split()) > 3):
                    problems.append(f"{w}: {m['name']} not printed with unit")
            if trace == 1 and res is not None:
                # 2. The same seed gives identical counts.
                counts = [l for l in out.splitlines() if l.startswith("counts:")]
                _, again, _ = driver(w, 1)
                counts2 = [l for l in again.splitlines()
                           if l.startswith("counts:")]
                if not counts or counts != counts2:
                    problems.append(f"{w}: counts differ between two runs "
                                    "of one seed")
        # 3. A corrupted report is counted as a failed op.
        code, out, res = driver(w, 0, "--corrupt-op", "1")
        if res is None or res["failed"] < 1 or res["correct"]:
            problems.append(f"{w}: corrupted report was not counted "
                            "in failed_ratio")
        elif not any(l.strip().startswith("failed_ratio") and
                     float(l.split()[2]) > 0 for l in out.splitlines()):
            problems.append(f"{w}: failed_ratio line does not show the "
                            "corrupted op")

    # 4. Without the library sources next to it, the benchmark fails
    #    without printing a result.
    bare = os.path.join(os.path.dirname(build_dir()), "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "cold_profile", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare, env=env,
                       capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    shutil.rmtree(bare, ignore_errors=True)
    if r.returncode == 0 or r.stdout.strip():
        problems.append("a checkout without library sources did not fail "
                        "cleanly")

    for p in problems:
        print(f"SELF-TEST FAIL: {p}")
    print("self-test " + ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and not a.workload:
        fail("--workload is required")
    binary = build()
    if a.self_test:
        return self_test(binary)
    code, out = run_driver(binary, ["--workload", a.workload, "--seed",
                                    str(a.seed), "--seconds", str(a.seconds),
                                    "--trace", a.trace])
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
