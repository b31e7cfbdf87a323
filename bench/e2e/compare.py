#!/usr/bin/env python3
"""Compare end-to-end benchmark results (bench/e2e/README.md).

    compare.py RESULT.json
        Per (workload, metric): median, quartiles and the run-to-run
        spread (interquartile range as a share of the median) against
        the metric's bound in BENCHMARK.json.

    compare.py PARENT.json CHANGE.json [--json OUT]
        Per (workload, metric): both sides' medians and quartiles and a
        verdict under the bounds in BENCHMARK.json:
          REGRESSION   the change's median is worse by more than the bound
          unresolved   the parent's spread is wider than the bound (unless
                       every change run beats every parent run)
          GAIN         paired rule: >= 10 seed-matched pairs, the change
                       wins >= 9/10 of them (ties count for neither), and
                       the median gap exceeds the parent's IQR; never when
                       the change fails more requests than the parent
          within bound otherwise
        Per workload, an error_frac row (failed / attempted over all its
        runs): any increase is a REGRESSION. Also flags any
        replies_digest that differs for the same workload and seed, and
        lists per-layer medians of the traced runs. --json writes both
        inputs, the rows and the flags to OUT.

Result files are what run_all.sh writes or appends to: JSON Lines, one
{"env": {...}} line and one line per run. To compare two commits, run
both checkouts' run_all.sh one workload and seed at a time, alternating
which side goes first, each with --record pointing at its own file.
Exits 1 on a regression, a digest change or an incorrect run.
Standard library only; compare_test.py covers the verdicts.
"""

import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..",
                         "BENCHMARK.json")


def load_json(path):
    with open(path) as f:
        return json.load(f)


def load(path):
    """A result file as {"env": ..., "runs": [...]}."""
    doc = {"env": None, "runs": []}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            record = json.loads(line)
            if "env" in record:
                doc["env"] = doc["env"] or record["env"]
            else:
                doc["runs"].append(record)
    return doc


def series(doc, trace):
    """{(workload, metric): [(seed, value)] in seed order} over the runs
    with this trace flag."""
    out = {}
    runs = sorted((r for r in doc["runs"] if r["trace"] == trace),
                  key=lambda r: (r["workload"], r["seed"]))
    for run in runs:
        for name, m in run["metrics"].items():
            out.setdefault((run["workload"], name), []).append(
                (run["seed"], m["value"]))
    return out


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def fmt(q):
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def verdict(parent, change, bound, lower_is_better):
    """Verdict for one (workload, metric) from (seed, value) lists."""
    p = [v for _, v in parent]
    c = [v for _, v in change]
    pq, cq = quartiles(p), quartiles(c)
    sign = 1.0 if lower_is_better else -1.0
    worse = sign * (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
    better = (lambda a, b: a < b) if lower_is_better else (lambda a, b: a > b)
    if spread(p) > bound:
        if all(better(x, y) for x in c for y in p):
            return "better (every run)", worse
        return "unresolved", worse
    if worse > bound:
        return "REGRESSION", worse
    by_seed = dict(parent)
    pairs = [(by_seed[s], v) for s, v in change if s in by_seed]
    wins = sum(1 for a, b in pairs if better(b, a))
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and abs(cq[1] - pq[1]) > pq[2] - pq[0] and better(cq[1], pq[1])):
        return "GAIN", worse
    return "within bound", worse


def error_frac(doc, workload):
    """failed / attempted over the workload's untraced runs, or None."""
    runs = [r for r in doc["runs"]
            if r["workload"] == workload and r["trace"] == 0]
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else None


def digests(doc):
    return {(r["workload"], r["seed"]): r["replies_digest"]
            for r in doc["runs"]}


def incorrect(doc):
    return [f'{r["workload"]} seed {r["seed"]}' for r in doc["runs"]
            if not r["correct"]]


def single(path, bench):
    doc = load(path)
    data = series(doc, 0)
    print(f"{'workload':14} {'metric':16} {'median [q1, q3]':40} "
          f"{'spread':>8} {'bound':>6}  n")
    worst = 0.0
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            values = [v for _, v in data.get((w["name"], m["name"]), [])]
            if not values:
                continue
            s = spread(values)
            share = s / m["bound"]
            if m["name"] != "setup_s":
                worst = max(worst, share)
            print(f'{w["name"]:14} {m["name"]:16} {fmt(quartiles(values)):40} '
                  f'{s:8.4f} {m["bound"]:6.3f}  {len(values)}'
                  f'{"  WIDE" if s > m["bound"] else ""}')
        frac = error_frac(doc, w["name"])
        if frac is not None:
            print(f'{w["name"]:14} {"error_frac":16} {frac:.6g}')
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    bad = incorrect(doc)
    for run in bad:
        print(f"INCORRECT RUN: {run}")
    return 1 if bad else 0


def compare(parent_path, change_path, bench, json_out):
    parent, change = load(parent_path), load(change_path)
    rows, status = [], 0
    p_data, c_data = series(parent, 0), series(change, 0)
    print(f"{'workload':14} {'metric':16} {'parent median [q1, q3]':36} "
          f"{'change median [q1, q3]':36} {'worse':>8}  verdict")
    for w in bench["workloads"]:
        p_fail, c_fail = error_frac(parent, w["name"]), error_frac(change,
                                                                   w["name"])
        more_failures = (p_fail is not None and c_fail is not None
                         and c_fail > p_fail)
        for m in bench["end_to_end"]:
            key = (w["name"], m["name"])
            if key not in p_data or key not in c_data:
                continue
            v, worse = verdict(p_data[key], c_data[key], m["bound"],
                               m["better"] == "lower")
            if v == "GAIN" and more_failures:
                v = "within bound (more failures, no gain)"
            pq = quartiles([x for _, x in p_data[key]])
            cq = quartiles([x for _, x in c_data[key]])
            status |= v == "REGRESSION"
            rows.append({"workload": w["name"], "metric": m["name"],
                         "unit": m["unit"], "bound": m["bound"],
                         "parent": pq, "change": cq, "worse": worse,
                         "verdict": v})
            print(f"{w['name']:14} {m['name']:16} {fmt(pq):36} {fmt(cq):36} "
                  f"{worse:+8.2%}  {v}")
        if p_fail is not None and c_fail is not None:
            v = "REGRESSION" if more_failures else "no increase"
            status |= more_failures
            rows.append({"workload": w["name"], "metric": "error_frac",
                         "unit": "ratio", "bound": 0.0,
                         "parent": p_fail, "change": c_fail,
                         "worse": c_fail - p_fail, "verdict": v})
            print(f"{w['name']:14} {'error_frac':16} {p_fail:<36.6g} "
                  f"{c_fail:<36.6g} {c_fail - p_fail:+8.2g}  {v}")

    p_layer, c_layer = series(parent, 1), series(change, 1)
    layers = []
    for w in bench["workloads"]:
        for m in bench["per_layer"]:
            key = (w["name"], m["name"])
            if key not in p_layer or key not in c_layer:
                continue
            values = [x for _, x in p_layer[key] + c_layer[key]]
            exact = len(values) > 1 and len(set(values)) == 1
            layers.append({
                "workload": w["name"], "metric": m["name"], "unit": m["unit"],
                "parent": statistics.median(x for _, x in p_layer[key]),
                "change": statistics.median(x for _, x in c_layer[key]),
                "exact": exact})
    if layers:
        print(f"\n{'workload':14} {'per-layer metric':28} {'parent':>14} "
              f"{'change':>14}")
        for row in layers:
            print(f"{row['workload']:14} {row['metric']:28} "
                  f"{row['parent']:14.6g} {row['change']:14.6g} {row['unit']}"
                  f"{'  (exact)' if row['exact'] else ''}")

    p_dig, c_dig = digests(parent), digests(change)
    changed = [f"{w} seed {s}: {p_dig[(w, s)]} -> {c_dig[(w, s)]}"
               for (w, s) in sorted(p_dig) if (w, s) in c_dig
               and p_dig[(w, s)] != c_dig[(w, s)]]
    for line in changed:
        print(f"REPLIES DIGEST CHANGED: {line}")
    bad = incorrect(parent) + incorrect(change)
    for run in bad:
        print(f"INCORRECT RUN: {run}")
    if json_out:
        with open(json_out, "w") as f:
            json.dump({"parent": parent, "change": change, "rows": rows,
                       "per_layer": layers, "digest_changes": changed,
                       "incorrect_runs": bad}, f, indent=1)
            f.write("\n")
    return 1 if status or changed or bad else 0


def main(argv):
    json_out = None
    if "--json" in argv:
        i = argv.index("--json")
        json_out = argv[i + 1]
        argv = argv[:i] + argv[i + 2:]
    if len(argv) not in (2, 3) or any(a.startswith("-") for a in argv[1:]):
        print(__doc__, file=sys.stderr)
        return 2
    bench = load_json(BENCHMARK)
    if len(argv) == 2:
        return single(argv[1], bench)
    return compare(argv[1], argv[2], bench, json_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
