"""Smoke test of the benchmark itself.

Runs every workload of BENCHMARK.json once at the tiny size, untraced and
traced, and checks the result line: exactly the contract's keys, a correct
run with no failures (error rate 0), and every metric BENCHMARK.json names
for that mode emitted with its unit (end-to-end values must be positive).
Then checks that the benchmark refuses to run from a directory holding only
BENCHMARK.json and perfbench/, exiting non-zero without a result.

Run from the repository root:  python3 perfbench/smoke.py
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(args, cwd):
    return subprocess.run(["bash", "perfbench/run.sh", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=900)


def check_result(workload, trace, bench, proc):
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr[-3000:]}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {set(result)}"
    assert result["correct"] is True, f"{where}: not correct"
    assert result["attempted"] >= 1 and result["failed"] == 0, f"{where}: error rate above 0"
    table = bench["per_layer"] if trace else bench["end_to_end"]
    want = {m["name"]: m["unit"] for m in table}
    got = result["metrics"]
    assert set(got) == set(want), f"{where}: metrics differ: {set(got) ^ set(want)}"
    for name, unit in want.items():
        assert got[name]["unit"] == unit, f"{where}: {name} unit {got[name]['unit']} != {unit}"
        value = got[name]["value"]
        assert isinstance(value, (int, float)), f"{where}: {name} is not a number"
        assert trace or value > 0, f"{where}: end-to-end metric {name} reads {value}"
    context = json.loads(lines[-2])["context"]
    for key in ("nproc", "git_commit", "rustc", "seed", "sizes", "error_rate"):
        assert key in context, f"{where}: context lacks {key}"
    assert context["error_rate"] == 0, f"{where}: error rate {context['error_rate']}"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        for trace in (0, 1):
            args = ["--workload", w["name"], "--seed", "7", "--seconds", "1",
                    "--trace", str(trace), "--tiny"]
            check_result(w["name"], trace, bench, run(args, ROOT))
            print(f"ok  {w['name']} --trace {trace}")

    bare = os.path.join(ROOT, ".bench_build", "smoke_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("target"))
    name = bench["workloads"][0]["name"]
    proc = run(["--workload", name, "--seed", "7", "--seconds", "1", "--trace", "0"], bare)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "bare directory: the benchmark did not fail"
    assert '"metrics"' not in proc.stdout, "bare directory: a result was printed"
    print("ok  bare directory refused")
    print("SMOKE_OK")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print(f"smoke test failed: {e}", file=sys.stderr)
        sys.exit(1)
