"""Memory deep dive: why NeRF gathering is memory-hostile and how Cicero fixes it.

Reproduces the Sec. II-D characterisation and the Sec. IV remedies on one
frame of each algorithm:

* the pixel-centric DRAM access stream and its (non-)streaming fraction,
* the MVoxel/RIT fully-streaming schedule and its traffic,
* feature-major vs channel-major bank-conflict behaviour.

Run:  python examples/memory_deep_dive.py
"""

import numpy as np

from repro.core.layout import ChannelMajorLayout, FeatureMajorLayout
from repro.core.streaming import FullyStreamingScheduler
from repro.harness import FAST, print_table
from repro.harness.configs import DEFAULT
from repro.harness.figures import full_frame_profile
from repro.memsys import analyze_streaming, interleaved_gather_trace


def main():
    config = DEFAULT
    rows = []
    conflict_rows = []
    for algorithm in ("directvoxgo", "instant_ngp", "tensorf"):
        profile = full_frame_profile(algorithm, "lego", config)

        trace = interleaved_gather_trace(profile.gather_groups)
        coalesced = trace.coalesced(config.cache_block_bytes)
        analysis = analyze_streaming(coalesced)
        report = profile.streaming_report
        rows.append({
            "algorithm": algorithm,
            "gather_MB": trace.total_bytes / 1e6,
            "nonstreaming_frac": analysis.non_streaming_fraction,
            "fs_MB": report.fs_bytes / 1e6,
            "fs_streaming_frac": report.fs_streaming_fraction,
            "traffic_reduction": report.baseline_bytes / max(report.fs_bytes, 1),
        })

        feature_major = FeatureMajorLayout(num_banks=config.fig6_banks)
        channel_major = ChannelMajorLayout(num_banks=32, ports_per_bank=2,
                                           feature_dim=config.feature_dim)
        group = profile.gather_groups[0]
        fm = feature_major.simulate(group.vertex_ids[:20000],
                                    concurrent_rays=16)
        cm = channel_major.simulate(group.vertex_ids[:8000])
        conflict_rows.append({
            "algorithm": algorithm,
            "feature_major_conflict": fm.conflict_rate,
            "feature_major_slowdown": fm.slowdown,
            "channel_major_conflict": cm.conflict_rate,
        })

    print_table(rows, title="DRAM behaviour: pixel-centric vs fully-streaming")
    print_table(conflict_rows,
                title="SRAM bank conflicts: feature-major vs channel-major")

    # Show the actual MVoxel schedule for the dense grid.
    profile = full_frame_profile("directvoxgo", "lego", config)
    scheduler = FullyStreamingScheduler(buffer_bytes=config.vft_buffer_bytes,
                                        baseline_cache_bytes=None,
                                        cache_block_bytes=config.cache_block_bytes)
    report, rit, layout = scheduler.schedule_group(profile.gather_groups[0])
    print(f"\nMVoxel schedule: {report.occupied_mvoxels}/{report.total_mvoxels}"
          f" MVoxels occupied (side {report.mvoxel_side} cells, "
          f"{layout.mvoxel_bytes / 1024:.1f} KB each), "
          f"RIT {rit.table_bytes / 1024:.1f} KB for "
          f"{rit.num_scheduled_samples:,} samples")
    first = [int(m) for m, _ in list(rit.iter_entries())[:8]]
    print(f"first MVoxels streamed: {first} ... (ascending = sequential DRAM)")


if __name__ == "__main__":
    main()
