#!/usr/bin/env python3
"""A/B the stpx benchmark: a base revision against the working tree.

    python3 scripts/bench_ab.py --base <rev> --workload <w> --pairs N \\
        --seconds S [--seed K]

Exports <rev> with `git archive` into a temporary directory outside the
repository (under $TMPDIR) and runs perfbench/run.py, untraced, in that
tree and in the working tree.  Pair i runs both trees on seed K+i, and
the tree that runs first alternates from pair to pair, so a drift of the
machine falls on both sides.  Each tree builds its own .bench_build/ and
runs once for 1 s before the first pair, so no timed run pays for the
build or a cold start.

For every end-to-end metric BENCHMARK.json names, the report gives each
side's median and quartiles, the number of pairs the change won in the
metric's better direction (ties count for neither side) and the base's
interquartile range: a gain is claimed only when the change wins at
least nine pairs in ten and the medians differ by more than that range.
Every run's result line is kept, so a failed or incorrect run shows.
Nothing under perfbench/ is changed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(rev, dest):
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit(f"bench_ab: git archive {rev} failed")


def run(tree, workload, seed, seconds):
    """One untraced run; its result dict, or None when it failed."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stdout + done.stderr)
        return None
    if done.returncode != 0 or not result.get("correct"):
        print(f"  incorrect run in {tree}: {lines[-1]}", flush=True)
        return None
    return result


def value(result, name):
    """A metric's value in one result line, or None when not reported."""
    entry = result["metrics"].get(name)
    return entry.get("value") if isinstance(entry, dict) else entry


def quartiles(xs):
    """(q1, median, q3) by linear interpolation between order statistics."""
    xs = sorted(xs)

    def at(p):
        k = (len(xs) - 1) * p
        lo = int(k)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)

    return at(0.25), at(0.5), at(0.75)


def report(metrics, pairs):
    print(f"\n{len(pairs)} pairs, base | change  (median [q1, q3])")
    print(f"{'metric':28} {'base':>30} {'change':>30} {'wins':>6} "
          f"{'base IQR':>10}  verdict")
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        both = [(value(b, name), value(c, name)) for b, c in pairs]
        both = [(b, c) for b, c in both if b is not None and c is not None]
        if not both:
            print(f"{name:28} (not reported)")
            continue
        base = quartiles([b for b, _ in both])
        change = quartiles([c for _, c in both])
        wins = sum(1 for b, c in both if (c > b if higher else c < b))
        iqr = base[2] - base[0]
        gain = change[1] - base[1] if higher else base[1] - change[1]
        if wins * 10 >= 9 * len(both) and gain > iqr:
            verdict = "better"
        elif gain < 0 and -gain > m["bound"] * abs(base[1]):
            verdict = "WORSE than bound"
        else:
            verdict = "-"

        def fmt(q):
            return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

        print(f"{name:28} {fmt(base):>30} {fmt(change):>30} "
              f"{wins:>3}/{len(both):<2} {iqr:>10.4g}  {verdict}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--seed", type=int, default=1,
                    help="seed of the first pair; pair i runs seed+i")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    base_tree = tempfile.mkdtemp(prefix="stpx-bench-ab-")
    try:
        export(args.base, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        for side, tree in trees.items():
            print(f"building and warming {side} ({tree})", flush=True)
            if run(tree, args.workload, args.seed, 1) is None:
                sys.exit(f"bench_ab: {side} does not run {args.workload}")
        pairs = []
        failed = {"base": 0, "change": 0}
        for i in range(args.pairs):
            seed = args.seed + i
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            got = {}
            for side in order:
                got[side] = run(trees[side], args.workload, seed, args.seconds)
                if got[side] is None:
                    failed[side] += 1
            line = {side: ({m["name"]: value(r, m["name"]) for m in metrics}
                           if r else None)
                    for side, r in got.items()}
            print(f"pair {i + 1} seed {seed} first {order[0]}: "
                  f"{json.dumps(line)}", flush=True)
            if got["base"] and got["change"]:
                pairs.append((got["base"], got["change"]))
        if failed["base"] or failed["change"]:
            print(f"failed runs: {failed}")
        if pairs:
            report(metrics, pairs)
    finally:
        shutil.rmtree(base_tree, ignore_errors=True)


if __name__ == "__main__":
    main()
