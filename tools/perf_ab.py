#!/usr/bin/env python3
"""A/B-compares the benchmark's end-to-end metrics between a base revision
and the working tree.

    tools/perf_ab.py --base REV [--workload W ...] [--pairs N]
                     [--seconds S] [--seed K] [--trace]

Run from anywhere inside a checkout. The base revision is exported with
`git archive` into a temporary directory (under $TMPDIR), which is removed
on exit; an export registers nothing in the repository, so a killed run
leaves at most that directory behind. Each side builds and runs
itself through its own `perfbench/run.py`. Per workload the tool first
runs one untimed correctness pass per side, then N pairs of timed runs,
alternating which side goes first on every pair, so drift on a shared
host lands on both sides alike. A run that is not `correct`, or that
reports failed operations, stops the comparison (exit 2).

For every end-to-end metric in BENCHMARK.json it prints the base and
change medians with their interquartile ranges, the change in percent,
how many pairs the change won, and a verdict:

* worse   the change median is worse than the base median by more than
          the metric's BENCHMARK.json bound;
* better  the change won at least 80% of the pairs and its median beats
          the base median by more than the base IQR;
* flat    anything else.

Each workload ends with one summary line, the form CHANGES.md quotes.

With --trace both sides run traced (perfbench --trace 1), and the tool
pairs BENCHMARK.json's per-layer metrics instead: the same medians,
interquartile ranges, change and pairs won, but no verdict, because
per-layer metrics carry no bound. A metric that reads 0 on every run of
both sides belongs to another workload and is left out. A traced
comparison never exits 1.

The tool only reads BENCHMARK.json and perfbench/. It exits 0 when no
metric is worse, 1 when one is, and 2 on a rejected run or a failure to
export, build or run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WIN_SHARE = 0.8  # pairs the change must win for "better"


class RunRejected(Exception):
    """A run whose result cannot enter the comparison."""


def parse_result(stdout):
    """The result object on the last line of a perfbench run's stdout;
    raises RunRejected unless it is correct with no failed operation."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise RunRejected("the run printed no result line")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        raise RunRejected("the last line is not JSON") from None
    if not isinstance(result, dict) or "metrics" not in result:
        raise RunRejected("the result line has no metrics")
    if result.get("correct") is not True:
        raise RunRejected("the run is not correct")
    if result.get("failed", 0) != 0:
        raise RunRejected(f"{result['failed']} operations failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def pair_order(index):
    """Which side runs first in pair `index`: the base on even pairs, the
    change on odd ones."""
    return ("base", "change") if index % 2 == 0 else ("change", "base")


def quantile(values, q):
    """Linear-interpolation quantile of a non-empty list."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def relative_change(base, change):
    if base == change:
        return 0.0
    if base == 0:
        return float("inf") if change > base else float("-inf")
    return (change - base) / abs(base)


def paired(metric, base, change):
    """Statistics for one metric over paired runs, without a verdict:
    `metric` is the BENCHMARK.json entry, `base[i]` and `change[i]` are
    pair i. A pair is won when the change is better by the metric's
    `better` direction; a tie wins nothing."""
    assert base and len(base) == len(change)
    lower = metric["better"] == "lower"
    b_med, c_med = quantile(base, 0.5), quantile(change, 0.5)
    wins = sum(1 for b, c in zip(base, change) if (c < b if lower else c > b))
    return {"name": metric["name"], "unit": metric["unit"],
            "base": b_med,
            "base_iqr": (quantile(base, 0.25), quantile(base, 0.75)),
            "change": c_med,
            "change_iqr": (quantile(change, 0.25), quantile(change, 0.75)),
            "delta_pct": 100.0 * relative_change(b_med, c_med),
            "wins": wins, "pairs": len(base),
            "identical": len(set(base) | set(change)) == 1}


def measured(rows):
    """The rows of metrics the workload reports: a per-layer metric that
    reads 0 on every run of both sides belongs to another workload."""
    return [r for r in rows if not (r["identical"] and r["base"] == 0)]


def compare(metric, base, change):
    """paired() plus the verdict against the metric's bound."""
    r = paired(metric, base, change)
    lower = metric["better"] == "lower"
    delta = relative_change(r["base"], r["change"])
    worse_by = delta if lower else -delta
    gain = r["base"] - r["change"] if lower else r["change"] - r["base"]
    b_iqr = r["base_iqr"]
    if worse_by > metric["bound"]:
        r["verdict"] = "worse"
    elif r["wins"] >= WIN_SHARE * r["pairs"] and gain > b_iqr[1] - b_iqr[0]:
        r["verdict"] = "better"
    else:
        r["verdict"] = "flat"
    return r


def fmt(x):
    return f"{x:.4g}"


def fmt_medians(r):
    """'base -> change'; a metric every run reproduced bit for bit (a
    deterministic result such as weighted_loss) prints in full once."""
    if r["identical"]:
        return f"{r['base']!r} on every run"
    return f"{fmt(r['base'])} -> {fmt(r['change'])}"


def fmt_pct(x):
    return f"{x:+.1f}%" if abs(x) != float("inf") else f"{x:+}"


def table(rows):
    """Aligned rows; the verdict column only when the rows carry one."""
    verdicts = all("verdict" in r for r in rows)
    header = ("metric", "base [IQR]", "change [IQR]", "delta", "won",
              "verdict")[:6 if verdicts else 5]
    body = []
    for r in rows:
        body.append((
            f"{r['name']} ({r['unit']})",
            f"{fmt(r['base'])} [{fmt(r['base_iqr'][0])}-"
            f"{fmt(r['base_iqr'][1])}]",
            f"{fmt(r['change'])} [{fmt(r['change_iqr'][0])}-"
            f"{fmt(r['change_iqr'][1])}]",
            fmt_pct(r["delta_pct"]), f"{r['wins']}/{r['pairs']}")
            + ((r["verdict"],) if verdicts else ()))
    widths = [max(len(row[i]) for row in [header] + body)
              for i in range(len(header))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths))
                     .rstrip() for row in [header] + body)


def summary(workload, rows, base_rev, seed, seconds, trace=False):
    """The one line CHANGES.md quotes for a workload; traced rows carry no
    verdict."""
    pairs = rows[0]["pairs"] if rows else 0
    parts = [f"{r['name']} {fmt_medians(r)} "
             f"({fmt_pct(r['delta_pct'])}, {r['wins']}/{r['pairs']}"
             + (f", {r['verdict']})" if "verdict" in r else ")")
             for r in rows]
    return (f"perf_ab {workload}{' --trace' if trace else ''} vs {base_rev} "
            f"(seed {seed}, {pairs} pairs of {seconds:g} s, all runs "
            f"correct, 0 failed): " + "; ".join(parts))


def report(workload, metrics, results, base_rev, seed, seconds, trace):
    """The printed comparison of one workload, from each side's list of
    run results, and whether any metric is worse. Traced rows carry no
    verdict, so a traced comparison is never worse."""
    stats = paired if trace else compare
    rows = [stats(m, [r[m["name"]] for r in results["base"]],
                  [r[m["name"]] for r in results["change"]])
            for m in metrics]
    if trace:
        rows = measured(rows)
    pairs = len(results["base"])
    text = "\n".join([
        f"\n{workload}: base {base_rev} vs working tree, seed {seed}, "
        f"{pairs} pairs of {seconds:g} s" + (", traced" if trace else ""),
        table(rows),
        summary(workload, rows, base_rev, seed, seconds, trace)])
    return text, any(r.get("verdict") == "worse" for r in rows)


def export(rev, dest):
    """Writes the tree of `rev` into `dest`."""
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise RuntimeError(f"cannot export {rev}")


def perfbench_command(workload, seed, seconds, trace):
    """The perfbench/run.py invocation of one run, relative to a checkout."""
    return [sys.executable, os.path.join("perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]


def run_side(checkout, workload, seed, seconds, label, trace):
    """One perfbench run in `checkout`, traced when `trace`; `label` names
    it in a rejection."""
    command = perfbench_command(workload, seed, seconds, trace)
    out = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    try:
        if out.returncode != 0:
            tail = out.stderr.strip().splitlines()[-3:]
            raise RunRejected(f"perfbench exited with {out.returncode}: "
                              + " | ".join(tail))
        return parse_result(out.stdout)
    except RunRejected as e:
        raise RunRejected(f"{label}: {e}") from None


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision")
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true",
                        help="pair traced runs and report the per-layer "
                             "metrics, with no verdict")
    args = parser.parse_args(argv[1:])
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")

    rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short",
                          args.base + "^{commit}"],
                         capture_output=True, text=True)
    if rev.returncode != 0:
        print(f"perf_ab: {args.base}: {rev.stderr.strip()}", file=sys.stderr)
        return 2
    base_rev = rev.stdout.strip()
    tmp = tempfile.mkdtemp(prefix="perf_ab-")
    worst = 0
    try:
        export(base_rev, tmp)
        sides = {"base": tmp, "change": ROOT}
        metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
        for workload in args.workload or names:
            # Untimed pass: builds each side and checks it is correct.
            for side in ("base", "change"):
                run_side(sides[side], workload, args.seed, 0,
                         f"{workload} {side} check", args.trace)
            results = {"base": [], "change": []}
            for i in range(args.pairs):
                for side in pair_order(i):
                    results[side].append(run_side(
                        sides[side], workload, args.seed, args.seconds,
                        f"{workload} {side} pair {i + 1}", args.trace))
                print(f"perf_ab: {workload} pair {i + 1}/{args.pairs}",
                      file=sys.stderr, flush=True)
            text, worse = report(workload, metrics, results, base_rev,
                                 args.seed, args.seconds, args.trace)
            print(text, flush=True)
            if worse:
                worst = 1
    except (RunRejected, RuntimeError) as e:
        print(f"perf_ab: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv))
