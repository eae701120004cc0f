"""``run.py --compare A.json B.json``: did B move against A?

Per workload and end-to-end metric, the relative difference of B's
median from A's. Exit status is non-zero when a timing metric is worse
by more than its bound, or when anything that must repeat exactly (the
exact end-to-end metrics, every count-type layer metric) differs at
all. A difference inside the bound is reported as *unresolved*, not as
unchanged, when either run's own quartile range is wider than the
bound — the runs cannot tell such a change from noise.
"""

from __future__ import annotations

import json


def _verdict(a, b, better, bound):
    """``(relative difference, verdict)`` of one bounded metric."""
    rel = (b["value"] - a["value"]) / a["value"]
    worse = rel if better == "lower" else -rel
    spread = max((s["q3"] - s["q1"]) / s["value"] for s in (a, b))
    if worse > bound:
        return rel, "WORSE"
    if spread > bound:
        return rel, "unresolved"
    return rel, "better" if worse < -bound else "ok"


def main(path_a, path_b) -> int:
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    catalogue = a["catalogue"]
    bad = 0
    print(f"A = {path_a} ({a['host']['git_sha'][:12]}, seed {a['seed']})")
    print(f"B = {path_b} ({b['host']['git_sha'][:12]}, seed {b['seed']})")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"\n{name}: missing from B")
            bad += 1
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        print(f"\n{name}  (A: {wa['passes']} passes, B: {wb['passes']})")
        for metric, unit, better, bound in catalogue["end_to_end"]:
            sa, sb = wa["end_to_end"][metric], wb["end_to_end"][metric]
            rel, verdict = _verdict(sa, sb, better, bound)
            bad += verdict == "WORSE"
            print(f"  {metric:20s} {sa['value']:12.4f} -> "
                  f"{sb['value']:12.4f} {unit:8s} {rel:+7.2%} "
                  f"(bound {bound:.0%})  {verdict}")
        for metric, unit, __ in catalogue["exact"]:
            va, vb = wa["exact"][metric], wb["exact"][metric]
            same = va == vb
            bad += not same
            print(f"  {metric:20s} {va!r:>12} -> {vb!r:>12} {unit:8s} "
                  f"{'identical' if same else 'DIFFERS'}")
        la, lb = wa.get("per_layer"), wb.get("per_layer")
        if not (la and lb):
            continue
        moved = [metric for metric, unit, __ in catalogue["per_layer"]
                 if unit == "count" and la[metric] != lb[metric]]
        bad += len(moved)
        counts = sum(unit == "count" for __, unit, __ in
                     catalogue["per_layer"])
        print(f"  layer counts         {counts - len(moved)}/{counts} "
              "identical" + "".join(
                  f"\n    DIFFERS {m}: {la[m]!r} -> {lb[m]!r}"
                  for m in moved))
    print(f"\n{'FAIL' if bad else 'PASS'}: {bad} metric(s) out of bounds")
    return 1 if bad else 0
