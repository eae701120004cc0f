#!/usr/bin/env python3
"""Inspecting a run: timelines, critical-path analysis, the registry.

Walks the full observability loop on a small graph: run delta-stepping
SSSP and k-core (extension algorithms beyond the paper's four), render
the per-GPU timeline as ASCII art (the Figure-1 view), attribute the
end-to-end time along the critical path, archive the run in a
registry, then answer a what-if by re-executing: the same run without
FSteal, diffed against the recording.

Run:  python examples/inspect_a_run.py
"""

import tempfile
from pathlib import Path

import numpy as np

import repro
from repro.obs import analyze
from repro.obs.analysis import format_report
from repro.runs import RunRegistry, diff_manifests, format_diff, \
    workload_fingerprint
from repro.runtime import render_timeline, utilization_report


def main() -> None:
    graph = repro.with_random_weights(repro.datasets.load("CA"), seed=9)
    partition = repro.random_partition(graph, 8, seed=0)
    engine = repro.GumEngine(repro.dgx1(8))
    source = int(np.argmax(graph.out_degrees()))

    # --- delta-stepping SSSP (extension algorithm) -------------------
    result = engine.run(graph, partition, "dsssp", source=source)
    print(f"delta-stepping SSSP: {result.total_ms:.1f} virtual ms, "
          f"{result.num_iterations} bucket phases")
    plain = engine.run(graph, partition, "sssp", source=source)
    assert np.allclose(result.values, plain.values)
    print(f"plain frontier SSSP: {plain.total_ms:.1f} virtual ms, "
          f"{plain.num_iterations} supersteps "
          "(same distances, different schedule)\n")

    # --- the timeline view (Figure 1 in a terminal) -------------------
    print(render_timeline(plain, max_iterations=6, width=32))
    report = utilization_report(plain)
    print("\nper-GPU utilization:",
          [f"{u:.0%}" for u in report["per_gpu_utilization"]])

    # --- critical-path attribution ------------------------------------
    attribution = analyze(plain)
    print()
    print(format_report(attribution))
    bucket_sum = sum(attribution.buckets_ms.values())
    assert abs(bucket_sum - attribution.total_ms) < 1e-6 * bucket_sum

    # --- archive the run and diff it against itself -------------------
    with tempfile.TemporaryDirectory() as tmp:
        registry = RunRegistry(Path(tmp) / "runs")
        run_id = registry.record_result(
            plain,
            workload_fingerprint(engine="gum", algorithm="sssp",
                                 graph="CA", num_gpus=8),
        )
        manifest = registry.load_manifest(run_id)
        print(f"\nrecorded {run_id} "
              f"({len(registry.load_run_trace(run_id)[1])} trace records, "
              f"git {manifest['fingerprint']['provenance']['git_sha'][:9]})")
        diff = diff_manifests(manifest, manifest)
        print(format_diff(diff, verbose=False))
        # the archived trace analyzes identically to the live result
        archived = analyze(registry.load_run_trace(run_id))
        assert abs(archived.total_ms - plain.total_ms) < 1e-6 * plain.total_ms

        # what if FSteal were off? Runs are deterministic, so run it:
        # the fingerprint records the toggle, hence --force
        no_fsteal = repro.GumEngine(
            repro.dgx1(8), config=repro.GumConfig(fsteal=False),
        ).run(graph, partition, "sssp", source=source)
        other = registry.load_manifest(registry.record_result(
            no_fsteal,
            workload_fingerprint(engine="gum", algorithm="sssp",
                                 graph="CA", num_gpus=8, fsteal=False),
        ))
        print(f"\nwhat if FSteal were off: {plain.total_ms:.2f} -> "
              f"{no_fsteal.total_ms:.2f} virtual ms")
        print(format_diff(diff_manifests(manifest, other, force=True),
                          verbose=False))

    # --- k-core (extension algorithm) ----------------------------------
    social = repro.datasets.load("OR")
    cores = repro.run(social, "kcore", k=8, num_gpus=8)
    members = int((cores.values >= 0).sum())
    print(f"\n8-core of {social.name}: {members} of "
          f"{social.num_vertices} vertices "
          f"({cores.num_iterations} peeling rounds, "
          f"{cores.total_ms:.1f} virtual ms)")


if __name__ == "__main__":
    main()
