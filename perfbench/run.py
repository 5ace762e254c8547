#!/usr/bin/env python3
"""Build and run the host-cost benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload n1-strided-4k --seed 1 --seconds 20 --trace 0

The Go program is built into .bench_build/ with every Go cache and
temporary directory kept there too.  set-up time is measured in several
fresh processes and reported as their median.  The last line printed is
the result as one JSON object.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

# Fresh processes whose set-up time is measured: SETUP_SAMPLES - 1
# set-up-only processes plus the measuring process itself.
SETUP_SAMPLES = 7
RUN_TIMEOUT = 170  # seconds; the measuring process must end well within 180


def go_env():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("GOPATH", "gopath"),
                     ("HOME", "home"), ("XDG_CONFIG_HOME", "config")):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env.update(GOTOOLCHAIN="local", GOENV="off", GOFLAGS="-buildvcs=false", CGO_ENABLED="0")
    return env


def build():
    os.makedirs(BUILD, exist_ok=True)
    subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=go_env(),
                   stdout=sys.stderr, check=True, timeout=800)


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError("benchmark printed no result")
    return json.loads(lines[-1])


def run_binary(args, timeout):
    t0 = time.time_ns()
    proc = subprocess.run([BINARY, *args, "-t0", str(t0)], cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark exited with code {proc.returncode}")
    return last_json(proc.stdout)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()

    build()
    base = ["-workload", opts.workload, "-seed", str(opts.seed),
            "-workdir", os.path.join(BUILD, "work")]
    setups = []
    if not opts.trace:
        for _ in range(SETUP_SAMPLES - 1):
            res = run_binary(base + ["-setup-only"], 60)
            setups.append(res["metrics"]["setup_s"]["value"])
    res = run_binary(base + ["-seconds", str(opts.seconds), "-trace", str(opts.trace)],
                     RUN_TIMEOUT)
    if not opts.trace:
        setups.append(res["metrics"]["setup_s"]["value"])
        res["metrics"]["setup_s"]["value"] = statistics.median(setups)
    print(json.dumps(res))


if __name__ == "__main__":
    try:
        main()
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError, KeyError) as err:
        print(f"run.py: {err}", file=sys.stderr)
        sys.exit(1)
