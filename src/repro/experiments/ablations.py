"""Ablation studies for the design choices DESIGN.md calls out.

A. Anchor-distance sensitivity: static distance sweep vs the dynamic
   pick (how close is Algorithm 1 to the per-pair optimum?).
B. L2 TLB size sweep: does the anchor advantage persist as the shared
   L2 grows/shrinks?
C. Multi-region anchors (§4.2): per-region distances on a mapping with
   bimodal contiguity vs a single process-wide distance.
D. Cost-function weighting: the entry-count cost (primary) vs the
   pseudocode-literal inverse-coverage weighting, judged by how often
   each picks the distance that actually minimises misses.
E. Context switches (§3.1/§3.3): time-slice two processes over shared
   TLBs with flush-on-switch vs tagged TLBs; coverage schemes re-fill
   far faster after a flush, so the anchor advantage grows as the
   quantum shrinks.
F. Page-walk caches: compose the paper's two research directions —
   coverage improvement (anchors, fewer walks) and miss-penalty
   reduction (MMU caches, cheaper walks).
G. Virtualization (§6): nested guest-on-host translation; composed
   contiguity is the layer-wise minimum and nested walks cost 6x, so
   coverage matters even more and the anchor distance must follow the
   composition.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentConfig
from repro.experiments.report import Report
from repro.params import MachineConfig, TLBGeometry
from repro.schemes import make_scheme
from repro.schemes.anchor_scheme import AnchorScheme
from repro.sim.engine import run_trace
from repro.sim.sweep import distance_sweep, useful_distances
from repro.sim.workloads import get_workload
from repro.vmos.contiguity import contiguity_histogram
from repro.vmos.distance import (
    distance_cost,
    inverse_coverage_cost,
    select_distance,
)
from repro.vmos.mapping import MemoryMapping
from repro.vmos.regions import partition_regions
from repro.vmos.scenarios import build_mapping
from repro.vmos.vma import AllocationSite, layout_vmas


# ---------------------------------------------------------------------------
# A. Distance sensitivity
# ---------------------------------------------------------------------------

def distance_sensitivity(
    workload: str = "milc",
    scenario: str = "medium",
    config: ExperimentConfig | None = None,
) -> Report:
    config = config or ExperimentConfig()
    app = get_workload(workload)
    mapping = build_mapping(app.vmas(), scenario, seed=config.seed)
    trace = app.make_trace(config.references, seed=config.seed)
    dynamic = select_distance(contiguity_histogram(mapping))
    report = Report(
        title=f"Ablation A: static distance sweep, {workload}/{scenario}",
        headers=["distance", "walks", "is dynamic pick"],
        precision=0,
    )
    for point in distance_sweep(mapping, trace, config.machine):
        report.table.append([
            point.distance,
            point.walks,
            "<-- dynamic" if point.distance == dynamic else "",
        ])
    return report


# ---------------------------------------------------------------------------
# B. L2 size sweep
# ---------------------------------------------------------------------------

def l2_size_sweep(
    workload: str = "mcf",
    scenario: str = "medium",
    sizes: tuple[int, ...] = (256, 512, 1024, 2048, 4096),
    schemes: tuple[str, ...] = ("base", "cluster2mb", "anchor-dyn"),
    config: ExperimentConfig | None = None,
) -> Report:
    config = config or ExperimentConfig()
    app = get_workload(workload)
    mapping = build_mapping(app.vmas(), scenario, seed=config.seed)
    trace = app.make_trace(config.references, seed=config.seed)
    report = Report(
        title=f"Ablation B: L2 size sweep, {workload}/{scenario} (walks)",
        headers=["l2 entries"] + list(schemes),
        precision=0,
    )
    for entries in sizes:
        machine = MachineConfig(l2=TLBGeometry(entries, 8))
        row: list[object] = [entries]
        for scheme in schemes:
            result = run_trace(make_scheme(scheme, mapping, machine), trace)
            row.append(result.stats.walks)
        report.table.append(row)
    return report


# ---------------------------------------------------------------------------
# C. Multi-region anchors
# ---------------------------------------------------------------------------

def _bimodal_mapping(seed: int | None = None) -> tuple[MemoryMapping, list]:
    """Half the address space hugely contiguous, half fragmented.

    The big region is deliberately 2 MiB-phase-misaligned so that THP
    cannot rescue it: covering it efficiently *requires* a large anchor
    distance, while the fragmented small regions require a small one —
    the exact tension §4.2's per-region distances resolve.
    """
    del seed  # the construction is fully deterministic
    sites = [AllocationSite(16384, 1), AllocationSite(64, 256)]
    vmas = layout_vmas(sites)
    fragmented = MemoryMapping(vmas=list(vmas))
    big = vmas[0]
    # Contiguous but phase-shifted by one frame: never promotable.
    big_base = (1 << 24) + 1
    for vpn in range(big.start_vpn, big.end_vpn):
        fragmented.map_page(vpn, big_base + (vpn - big.start_vpn))
    cursor = 1 << 26
    for vma in vmas[1:]:
        for vpn in range(vma.start_vpn, vma.end_vpn):
            if (vpn - vma.start_vpn) % 4 == 0:
                cursor += 7  # break physical contiguity between groups
            fragmented.map_page(vpn, cursor)
            cursor += 1
    return fragmented, vmas


def region_anchors(
    references: int = 60_000,
    seed: int | None = None,
) -> Report:
    """Single process-wide distance vs per-region distances (§4.2)."""
    mapping, vmas = _bimodal_mapping(seed)
    regions = partition_regions(mapping, vmas, capacity=8)
    app_sites = sum(v.pages for v in vmas)

    # Build a synthetic trace over the bimodal space: half the accesses
    # to the big region, half to the fragmented small regions.
    import numpy as np

    from repro.sim.trace import Trace
    from repro.util.rng import spawn_rng

    rng = spawn_rng(seed, "ablation-regions")
    vpn_pool = np.array(
        [vpn for vpn, _ in mapping.items()], dtype=np.int64
    )
    big = vpn_pool[:16384]
    small = vpn_pool[16384:]
    picks = np.where(
        rng.random(references) < 0.5,
        big[rng.integers(0, len(big), references)],
        small[rng.integers(0, len(small), references)],
    )
    trace = Trace(picks, max(1, references * 3), name="bimodal")

    report = Report(
        title="Ablation C: multi-region anchors on a bimodal mapping",
        headers=["configuration", "walks", "relative %"],
        precision=1,
    )
    single = run_trace(AnchorScheme(mapping, distance=None), trace)
    report.table.append(["single distance (dynamic)", single.stats.walks, 100.0])

    # The real §4.2 scheme: one shared L2, per-region distances from
    # the region table.
    from repro.schemes.region_anchor_scheme import RegionAnchorScheme

    region_scheme = RegionAnchorScheme(mapping, regions=regions)
    per_region = run_trace(region_scheme, trace)
    report.table.append([
        f"per-region ({len(regions)} regions)",
        per_region.stats.walks,
        100.0 * per_region.stats.walks / max(single.stats.walks, 1),
    ])
    report.notes.append(f"footprint {app_sites} pages; region distances: "
                        + ", ".join(str(r.distance) for r in regions))
    return report


# ---------------------------------------------------------------------------
# D. Cost-function weighting
# ---------------------------------------------------------------------------

def cost_weighting(
    scenario: str = "medium",
    workloads: tuple[str, ...] = ("gups", "mcf", "milc", "omnetpp", "sphinx3"),
    config: ExperimentConfig | None = None,
) -> Report:
    """Compare the two Algorithm 1 readings against the simulated optimum."""
    config = config or ExperimentConfig(references=40_000)
    report = Report(
        title=f"Ablation D: cost-function variants, {scenario} contiguity",
        headers=["workload", "entry-count pick", "inv-coverage pick",
                 "simulated best", "walks(count)", "walks(inv)", "walks(best)"],
        precision=0,
    )
    for workload in workloads:
        app = get_workload(workload)
        mapping = build_mapping(app.vmas(), scenario, seed=config.seed)
        trace = app.make_trace(config.references, seed=config.seed)
        histogram = contiguity_histogram(mapping)
        pick_count = select_distance(histogram, cost_fn=distance_cost)
        pick_inv = select_distance(histogram, cost_fn=inverse_coverage_cost)
        points = {
            p.distance: p.walks
            for p in distance_sweep(mapping, trace, config.machine,
                                    candidates=useful_distances(mapping),
                                    subsample=2)
        }
        best = min(points, key=points.get)
        report.table.append([
            workload, pick_count, pick_inv, best,
            points.get(pick_count, float("nan")),
            points.get(pick_inv, float("nan")),
            points[best],
        ])
    return report


# ---------------------------------------------------------------------------
# E. Context switches
# ---------------------------------------------------------------------------

def context_switches(
    workloads: tuple[str, str] = ("sphinx3", "omnetpp"),
    scenario: str = "medium",
    quanta: tuple[int, ...] = (500, 2_000, 8_000),
    references: int = 24_000,
    seed: int | None = None,
) -> Report:
    """Walks under time slicing: flush-on-switch vs tagged TLBs."""
    from repro.sim.tenants import ProcessRun, run_timeshared

    def build_runs(scheme_name: str):
        runs = []
        for workload_name in workloads:
            app = get_workload(workload_name)
            mapping = build_mapping(app.vmas(), scenario, seed=seed)
            trace = app.make_trace(references, seed=seed)
            runs.append(ProcessRun(
                workload_name, make_scheme(scheme_name, mapping), trace
            ))
        return runs

    report = Report(
        title=f"Ablation E: context switches, {'+'.join(workloads)}/{scenario}",
        headers=["quantum", "base walks (flush)", "anchor walks (flush)",
                 "base walks (tagged)", "anchor walks (tagged)"],
        precision=0,
    )
    for quantum in quanta:
        row: list[object] = [quantum]
        for flush in (True, False):
            for scheme_name in ("base", "anchor-dyn"):
                result = run_timeshared(
                    build_runs(scheme_name), quantum=quantum,
                    flush_on_switch=flush,
                )
                row.append(result.total_walks())
        report.table.append(row)
    report.notes.append(
        "smaller quanta -> more flushes; the anchor scheme re-covers its"
        " footprint with footprint/d walks per flush, the baseline needs"
        " one walk per page"
    )
    return report


# ---------------------------------------------------------------------------
# F. Page-walk caches: coverage improvement x miss-penalty reduction
# ---------------------------------------------------------------------------

def pwc_composition(
    workload: str = "mcf",
    scenario: str = "medium",
    references: int = 40_000,
    seed: int | None = None,
) -> Report:
    """Compose the paper's two research directions (§1).

    Coverage improvement (the anchor scheme) removes walks; miss-penalty
    reduction (page-walk caches) makes the remaining walks cheaper.  The
    table shows translation cycles for all four combinations.
    """
    app = get_workload(workload)
    mapping = build_mapping(app.vmas(), scenario, seed=seed)
    trace = app.make_trace(references, seed=seed)
    report = Report(
        title=f"Ablation F: anchors x page-walk caches, {workload}/{scenario}",
        headers=["scheme", "PWC", "walks", "walk cycles", "translation CPI"],
        precision=3,
    )
    for scheme_name in ("base", "anchor-dyn"):
        for pwc in (False, True):
            machine = MachineConfig(pwc=pwc)
            result = run_trace(make_scheme(scheme_name, mapping, machine), trace)
            report.table.append([
                scheme_name,
                "on" if pwc else "off",
                result.stats.walks,
                result.stats.cycles_walk,
                result.translation_cpi,
            ])
    report.notes.append(
        "the two families compose: anchors cut the number of walks, the"
        " MMU caches cut the cycles each remaining walk costs"
    )
    return report


# ---------------------------------------------------------------------------
# G. Virtualization: nested translation (paper §6)
# ---------------------------------------------------------------------------

def virtualization(
    workload: str = "milc",
    guest_scenarios: tuple[str, ...] = ("max", "medium"),
    host_scenarios: tuple[str, ...] = ("max", "medium"),
    references: int = 30_000,
    seed: int | None = None,
) -> Report:
    """Hybrid coalescing under two-dimensional translation.

    For each guest x host contiguity combination, compose the mappings,
    re-run Algorithm 1 on the *composed* chunks (the hypervisor sees
    both layers), and simulate base vs anchor with the 24-access nested
    walk cost.  Composed contiguity is the layer-wise minimum, so a
    fragmented host erases the guest's chunks — and the selected anchor
    distance should track the composition, not the guest.
    """
    from repro.virt.nested import NestedAddressSpace, build_host_mapping, nested_machine

    app = get_workload(workload)
    machine = nested_machine()
    report = Report(
        title=f"Ablation G: nested translation, {workload} (guest x host)",
        headers=["guest", "host", "composed mean chunk", "anchor d",
                 "base CPI", "anchor CPI", "anchor rel misses %"],
        precision=2,
    )
    trace = app.make_trace(references, seed=seed)
    from repro.vmos.contiguity import mean_chunk_pages

    for guest_scenario in guest_scenarios:
        guest = build_mapping(app.vmas(), guest_scenario, seed=seed)
        for host_scenario in host_scenarios:
            host = build_host_mapping(guest, host_scenario, seed=seed)
            composed = NestedAddressSpace(guest, host).compose()
            base = run_trace(make_scheme("base", composed, machine), trace)
            anchor = run_trace(make_scheme("anchor-dyn", composed, machine), trace)
            report.table.append([
                guest_scenario,
                host_scenario,
                mean_chunk_pages(composed),
                anchor.anchor_distance,
                base.translation_cpi,
                anchor.translation_cpi,
                anchor.relative_misses(base),
            ])
    report.notes.append(
        "nested walks cost 300 cycles (24 accesses), so coverage wins"
        " are amplified; composed contiguity = min(guest, host)"
    )
    return report


# ---------------------------------------------------------------------------
# H. TLB prefetching vs coalescing
# ---------------------------------------------------------------------------

def prefetch_vs_coalescing(
    workloads: tuple[str, ...] = ("milc", "gups", "mcf"),
    scenario: str = "medium",
    references: int = 30_000,
    seed: int | None = None,
) -> Report:
    """Distance prefetching against hybrid coalescing (§6 related work).

    Prefetching anticipates misses one 4 KiB entry at a time, so it
    tracks strided sweeps (milc) but cannot help uniform random access
    (gups); coalescing raises per-entry coverage instead and helps both.
    """
    report = Report(
        title=f"Ablation H: prefetching vs coalescing, {scenario} contiguity",
        headers=["workload", "base walks", "prefetch walks",
                 "prefetch accuracy %", "anchor walks"],
        precision=1,
    )
    for workload_name in workloads:
        app = get_workload(workload_name)
        mapping = build_mapping(app.vmas(), scenario, seed=seed)
        trace = app.make_trace(references, seed=seed)
        base = run_trace(make_scheme("base", mapping), trace)
        prefetch_scheme = make_scheme("prefetch", mapping)
        prefetch = run_trace(prefetch_scheme, trace)
        anchor = run_trace(make_scheme("anchor-dyn", mapping), trace)
        report.table.append([
            workload_name,
            base.stats.walks,
            prefetch.stats.walks,
            100.0 * prefetch_scheme.prefetch_accuracy,
            anchor.stats.walks,
        ])
    report.notes.append(
        "prefetching anticipates one entry at a time (pattern-bound);"
        " coalescing multiplies per-entry coverage (contiguity-bound)"
    )
    return report
