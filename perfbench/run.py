"""Run one workload of the HSIS benchmark and print its metrics.

    python3 perfbench/run.py --workload reach-mdlc --seed 1 --seconds 40 \
        --trace 0

Builds perfbench_driver from the sources of this checkout (first use only;
the build tree is .bench_build/perfbench), generates the workload's corpus
from the seed, runs the driver, and prints as its last line one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 reports the
end_to_end metrics of BENCHMARK.json, --trace 1 the per_layer ones. Build
output goes to stderr. See perfbench/NOTES.md for what is measured and why.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import gen  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
GEN_REPS = 3  # corpus generation is part of set-up; its median is reported
DRIVER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure and build the driver (a no-op once built); output goes to
    stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD)],
                ["cmake", "--build", str(BUILD), "--target",
                 "perfbench_driver", "-j", jobs]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build()

    # Set-up, part 1: corpus generation (the driver times the rest).
    gen_s = []
    for _ in range(GEN_REPS):
        t0 = time.perf_counter()
        manifest = gen.generate(args.workload, args.seed, ROOT)
        text = json.dumps(manifest)
        gen_s.append(time.perf_counter() - t0)
    corpus = ROOT / ".bench_build" / "corpus"
    corpus.mkdir(parents=True, exist_ok=True)
    path = corpus / f"{args.workload}-{args.seed}.json"
    path.write_text(text)

    cmd = [str(DRIVER), "--manifest", str(path), "--seconds",
           str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out")
    if proc.returncode != 0:
        fail(f"driver exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("driver printed no result")
    result = json.loads(lines[-1])

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    raw = result["metrics"]
    if set(raw) != set(units):
        fail(f"driver metrics differ from BENCHMARK.json {section}: "
             f"{sorted(set(raw) ^ set(units))}")
    if "setup_s" in raw:
        raw["setup_s"] += statistics.median(gen_s)
    result["metrics"] = {name: {"value": raw[name], "unit": units[name]}
                         for name in units}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
