"""The benchmark's checks on itself.

    python3 perfbench/selfcheck.py

1. BENCHMARK.json names exactly the metrics run.py prints, with their units.
2. For every workload, the digest gate passes the program's real outputs at
   the default seed and rejects a copy of each output file with one byte
   changed.
3. For every workload, two traced runs at TRACED_SEED agree exactly on every
   count metric, and each passes the in-run check that the reported per-layer
   self times sum to the traced run_s.
4. In a directory holding only BENCHMARK.json and perfbench/, run.py exits
   non-zero without printing a result.

Takes about three minutes. Exits 1 if any check fails.
"""

import json
import shutil
import subprocess
import sys

from run import END_TO_END_UNITS, HERE, PER_LAYER, ROOT, WORK, _repetition, _setup
from gate import DEFAULT_SEED, OUTPUT_FILES, digest_mismatches, pinned_digests
from workloads import WORKLOADS

RUN = [sys.executable, str(HERE / "run.py")]
# Not the default seed, so that the structural checks rather than the digests
# judge the traced runs' outputs.
TRACED_SEED = 1


def check_manifest() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    if declared_e2e != END_TO_END_UNITS:
        problems.append(f"end_to_end {declared_e2e} != run.py {END_TO_END_UNITS}")
    if declared_layer != PER_LAYER:
        problems.append("per_layer in BENCHMARK.json differs from run.PER_LAYER")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("workloads in BENCHMARK.json differ from workloads.py")
    return problems


def check_digest_gate(name: str) -> list[str]:
    work = WORK / "selfcheck-gate"
    try:
        workload = WORKLOADS[name]
        manifest = _setup(workload, DEFAULT_SEED, work / "data")
        _repetition(workload, manifest, DEFAULT_SEED, work / "out")
        pinned = pinned_digests(name)
        problems = []
        if digest_mismatches(work / "out", pinned):
            problems.append("the gate rejects the program's own outputs")
        for victim in OUTPUT_FILES:
            copy = work / f"flip-{victim}"
            shutil.copytree(work / "out", copy)
            data = bytearray((copy / victim).read_bytes())
            data[len(data) // 2] ^= 0x01
            (copy / victim).write_bytes(bytes(data))
            if digest_mismatches(copy, pinned) != [victim]:
                problems.append(f"one changed byte in {victim} passes the gate")
        return problems
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_traced_counts(name: str) -> list[str]:
    cmd = RUN + ["--workload", name, "--seed", str(TRACED_SEED), "--seconds", "1", "--trace", "1"]
    results = []
    for _ in range(2):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
    problems = [f"traced run {i} not correct" for i, r in enumerate(results) if not r["correct"]]
    counts = [n for n, unit in PER_LAYER.items() if unit != "s"]
    for n in counts:
        a, b = (r["metrics"][n]["value"] for r in results)
        if a != b:
            problems.append(f"{n}: {a} in one traced run, {b} in the other")
    return problems


def check_missing_sources() -> list[str]:
    bare = WORK / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", next(iter(WORKLOADS)),
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        if done.returncode == 0 or done.stdout.strip():
            return ["run.py without the library exits 0 or prints a result"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    checks = {"manifest": check_manifest}
    for name in WORKLOADS:
        checks[f"digest gate, {name}"] = lambda name=name: check_digest_gate(name)
        checks[f"traced counts, {name}"] = lambda name=name: check_traced_counts(name)
    checks["missing sources"] = check_missing_sources
    failed = False
    for label, check in checks.items():
        problems = check()
        failed |= bool(problems)
        print(f"{label}: {'FAIL' if problems else 'PASS'}", flush=True)
        for problem in problems:
            print(f"  {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
