#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

    python3 perfbench/run.py --workload paper-eval|compile-fresh|serve-mix \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The runner builds `perfbench` (this
directory's Cargo package) and the `br-serve` daemon in release mode,
prints the host fingerprint, runs the workload and passes its report
through. The last line of standard output is the JSON result. Every
result is also appended, with the fingerprint, to
`.bench_build/perfbench/results.jsonl`; `compare.py` reads that file.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-eval", "compile-fresh", "serve-mix")
RUN_TIMEOUT_S = 170


def source_hash():
    """Content hash of the sources the benchmark builds and runs."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for sub in ("crates", "perfbench"):
        files += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file() and p.suffix in (".rs", ".toml", ".py"))
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint():
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    commit = ""
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        ).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "rustc": rustc or "unknown",
        "commit": commit or "none",
        "source": source_hash(),
    }


def build(env):
    """Build the benchmark and the daemon; cargo's output goes to stderr."""
    for manifest, extra in (
        (ROOT / "perfbench" / "Cargo.toml", []),
        (ROOT / "Cargo.toml", ["-p", "br-serve", "--bin", "br-serve"]),
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", str(manifest)] + extra
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    args = ap.parse_args()

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "serve").is_dir():
        print(f"perfbench: no program sources under {ROOT}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    if not build(env):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    fp = fingerprint()
    print("host: " + " ".join(f"{k}={v}" for k, v in fp.items()))
    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--serve-bin", str(target / "release" / "br-serve"),
        "--out-dir", str(out_dir),
    ]
    # Its own process group, so a timeout also stops the daemon it runs.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: {args.workload} ran over {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        print(stdout, file=sys.stderr)
        print("perfbench: no result line", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"perfbench: exited with {proc.returncode}", file=sys.stderr)
        return 1
    record = {"workload": args.workload, "seed": args.seed, "trace": int(args.trace), "host": fp, "result": result}
    with open(out_dir / "results.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
