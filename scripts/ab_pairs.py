#!/usr/bin/env python3
"""Interleaved A/B runs of the benchmark between a parent checkout and this tree.

Each pair runs ``splitbench/run.py`` once in the parent checkout and once in
this working tree, on the same workload and seed; the order alternates from
pair to pair (parent first in even pairs), so a slow spell of the host does
not favour one side. Seeds are ``--seed``, ``--seed``+1, ... one per pair.

For every workload and end-to-end metric of BENCHMARK.json it prints the
median and quartiles of each side, the change of the median and the number
of pairs the tree won. A metric named with ``--claim`` gets the gain rule:
it must win at least 9 in 10 pairs and its median must beat the parent's by
more than the parent's quartile spread (Q3 - Q1). A claim that is not
WORKLOAD:METRIC, for a workload being run and an end-to-end metric of
BENCHMARK.json, ends the script with status 2 before any run, and so does a
workload that ``splitbench/workloads.py`` does not define. Every other
metric gets the bound check: its median may be worse than the parent's by
at most the metric's relative bound. When the parent's own spread, (Q3 - Q1) / median,
is wider than that bound, a median inside the bound shows little, so unless
every tree run beats every parent run the verdict is labelled
``unresolved``; whether it passes is still the bound check. Runs that print
``correct: false`` or fail rounds are listed, and so are pairs whose
``splitbench/out/<workload>.csv`` differ.
A run that exits nonzero makes its pair a failed pair: the tail of its
stderr is printed, the comparison goes on without that pair, and the
verdict fails.

Each invocation appends one entry per workload to ``BENCH_<workload>.json``
at the root of this tree, a JSON list that grows run by run: both commits
(``+dirty`` when tracked files differ from the commit), each side's source
(a sha256 of its ``src/`` and ``scripts/src_size.py``'s lines and
statements per module and in total), the seeds, the seconds per run, each
metric's median and quartiles on both sides with its wins and verdict, and
the workload's verdict. When the new entry's parent source is an earlier
entry's tree source, the same code was measured twice, so the change
between the two medians is the host's drift; it is printed for each such
earlier entry.

Usage:
    python3 scripts/ab_pairs.py --parent ../parent-checkout --pairs 10 --seconds 45 \\
        --seed 951 --workloads net-desk mid --claim net-desk:round_ms
"""

import argparse
import hashlib
import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path

TREE = Path(__file__).resolve().parent.parent
GAIN_WINS = 0.9  # share of pairs the claimed metric must win


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # a dataclass looks itself up
    spec.loader.exec_module(module)
    return module


def workload_names() -> list[str]:
    """The workloads ``splitbench/workloads.py`` of this tree defines."""
    sys.path.insert(0, str(TREE / "src"))  # it builds its configs from splitft
    return sorted(_load("splitbench_workloads", TREE / "splitbench" / "workloads.py").BUILDERS)


def source(tree: Path) -> dict:
    """A sha256 of every .py file under ``tree``'s ``src/`` (relative path,
    length and bytes, in path order) and the ``scripts/src_size.py`` sizes of
    its ``src/splitft``: [lines, statements] per module and in total."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(tree).as_posix()}\0{len(data)}\0".encode() + data)
    sizes = _load("src_size", TREE / "scripts" / "src_size.py").package_sizes(tree / "src" / "splitft")
    return {"sha256": digest.hexdigest(), "size": {name: list(size) for name, size in sizes.items()}}


def drift(entries: list[dict], entry: dict) -> list[str]:
    """One line per metric for each of ``entries`` whose tree source is
    ``entry``'s parent source: that tree's median, then the parent's in
    ``entry``, and the change between them."""
    digest = entry["source"]["parent"]["sha256"]
    lines = []
    for earlier in entries:
        if earlier.get("source", {}).get("tree", {}).get("sha256") != digest:
            continue
        for name, figures in entry["metrics"].items():
            if name in earlier["metrics"]:
                before, now = earlier["metrics"][name]["tree"]["median"], figures["parent"]["median"]
                lines.append(f"drift {name}: {before:.4g} as the tree of {earlier['commit']}, {now:.4g} as the "
                             f"parent now ({(now - before) / before:+.1%})")
    return lines


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The run's JSON result, or ``{"error": <the tail of its stderr>}`` if it exits nonzero."""
    cmd = [sys.executable, "splitbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        return {"error": "\n".join(proc.stderr.strip().splitlines()[-5:]) or f"exit status {proc.returncode}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def git_commit(tree: Path) -> str | None:
    """The commit checked out in ``tree``, ``+dirty`` when tracked files differ from it; None outside git."""
    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode:
        return None
    return head.stdout.strip() + ("+dirty" if git("status", "--porcelain", "--untracked-files=no").stdout else "")


def append_bench(path: Path, entry: dict) -> list[str]:
    """Append ``entry`` to the JSON list in ``path``, starting the list if
    there is none; returns the ``drift`` lines of the entries before it."""
    entries = json.loads(path.read_text()) if path.exists() else []
    lines = drift(entries, entry) if "source" in entry else []
    path.write_text(json.dumps([*entries, entry], indent=1) + "\n")
    return lines


def report(workload: str, runs: list[tuple[dict, dict]], metrics: list[dict], claims: set[str]) -> tuple[bool, dict]:
    """Print the workload's comparison; returns (verdict, per-metric figures)."""
    table = {}
    if len(runs) < 2:
        print(f"\n{workload}: {len(runs)} complete pairs, too few to compare")
        return False, table
    ok = True
    for side, res in (("parent", [p for p, _ in runs]), ("tree", [t for _, t in runs])):
        bad = [i for i, r in enumerate(res) if not r["correct"] or r["failed"]]
        if bad:
            ok = False
            print(f"{workload}: {side} runs {bad} were not correct or failed rounds")
    print(f"\n{workload}: {len(runs)} pairs")
    print(f"{'metric':<14} {'parent median (Q1-Q3)':>30} {'tree median (Q1-Q3)':>30} {'change':>8} {'wins':>6}"
          "  verdict")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        a = [p["metrics"][name]["value"] for p, _ in runs]
        b = [t["metrics"][name]["value"] for _, t in runs]
        (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        change = (bm - am) / am
        if name in claims:
            gain = (am - bm) if lower else (bm - am)
            passed = wins >= GAIN_WINS * len(runs) and gain > a3 - a1
            verdict = f"gain {'PASS' if passed else 'FAIL'} (gap {gain:.4g} vs parent spread {a3 - a1:.4g})"
        else:
            worse = change if lower else -change
            passed = worse <= m["bound"]
            verdict = f"bound {m['bound']:g} {'ok' if passed else 'BREACH'}"
            spread = (a3 - a1) / am
            if spread > m["bound"] and not (max(b) < min(a) if lower else min(b) > max(a)):
                verdict = f"unresolved (parent spread {spread:.2g} > bound); {verdict}"
        ok &= passed
        table[name] = {"parent": {"median": am, "q1": a1, "q3": a3}, "tree": {"median": bm, "q1": b1, "q3": b3},
                       "change": change, "wins": wins, "verdict": verdict}
        print(f"{name:<14} {f'{am:.4g} ({a1:.4g}-{a3:.4g})':>30} {f'{bm:.4g} ({b1:.4g}-{b3:.4g})':>30} "
              f"{change:>+8.1%} {f'{wins}/{len(runs)}':>6}  {verdict}")
    return ok, table


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--workloads", nargs="+", choices=workload_names(), help="default: those of BENCHMARK.json")
    ap.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC",
                    help="a metric the change claims to improve (repeatable)")
    ap.add_argument("--save", type=Path, help="append every run's JSON result to this file")
    args = ap.parse_args()

    bench = json.loads((TREE / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]
    claims = {w: set() for w in workloads}
    for claim in args.claim:
        w, colon, metric = claim.partition(":")
        if not colon or w not in claims or metric not in metrics:
            ap.error(f"--claim {claim!r}: expected WORKLOAD:METRIC, a workload of {workloads} "
                     f"and an end-to-end metric of {metrics}")
        claims[w].add(metric)
    commits = {"commit": git_commit(TREE), "parent": git_commit(args.parent),
               "source": {"parent": source(args.parent), "tree": source(TREE)}}
    results = {w: [] for w in workloads}
    csv_diffs, failed = [], []
    for i in range(args.pairs):
        seed = args.seed + i
        for w in workloads:
            sides = [("parent", args.parent), ("tree", TREE)]
            if i % 2:
                sides.reverse()
            res = {name: run_once(tree, w, seed, args.seconds) for name, tree in sides}
            if args.save:
                with args.save.open("a") as f:
                    for name, r in res.items():
                        f.write(json.dumps({"workload": w, "seed": seed, "side": name, **r}) + "\n")
            errors = {name: r["error"] for name, r in res.items() if "error" in r}
            if errors:
                failed.append(f"{w} seed {seed}")
                for name, tail in errors.items():
                    print(f"pair {i + 1}/{args.pairs} {w} seed {seed}: {name} run FAILED:\n{tail}", flush=True)
                continue
            results[w].append((res["parent"], res["tree"]))
            round_ms = {name: r["metrics"]["round_ms"]["value"] for name, r in res.items()}
            same = len({(tree / "splitbench" / "out" / f"{w}.csv").read_bytes() for _, tree in sides}) == 1
            if not same:
                csv_diffs.append(f"{w} seed {seed}")
            print(f"pair {i + 1}/{args.pairs} {w} seed {seed}: round_ms parent {round_ms['parent']:.4g} "
                  f"tree {round_ms['tree']:.4g}, csv {'identical' if same else 'DIFFERS'}", flush=True)
    ok = not csv_diffs and not failed
    if csv_diffs:
        print("CSV differs from the parent's:", ", ".join(csv_diffs))
    if failed:
        print("Pairs with a failed run:", ", ".join(failed))
    for w in workloads:
        passed, table = report(w, results[w], bench["end_to_end"], claims[w])
        passed &= not any(bad.startswith(f"{w} seed ") for bad in csv_diffs + failed)
        ok &= passed
        for line in append_bench(TREE / f"BENCH_{w}.json", {
                **commits, "seeds": list(range(args.seed, args.seed + args.pairs)), "seconds": args.seconds,
                "pairs": len(results[w]), "claims": sorted(claims[w]), "metrics": table,
                "verdict": "pass" if passed else "fail"}):
            print(f"{w}: {line}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
