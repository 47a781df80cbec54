"""A whole-machine facade: boot, launch, run, compact.

The lower layers are deliberately separable (mapping generators,
schemes, traces); this module glues them into the object most scripts
actually want — a machine with physical memory under pressure, processes
demand- or eager-paged onto it, translation schemes attached per
process, and a scheduler that runs them alone or time-sliced.

    system = System(pressure="heavy", seed=7)
    proc = system.launch("gups", policy="demand")
    result = system.run(proc, scheme="anchor-dyn", references=100_000)
    system.ease_pressure(1.0)          # co-runners exit
    system.compact(proc)               # khugepaged pass
    after = system.run(proc, scheme="anchor-dyn", references=100_000)

Unlike :func:`repro.vmos.scenarios.build_mapping` (which conjures a
mapping per Table 4), processes launched here share one physical memory,
so they fragment each other — the paper's Fig. 1 world.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mem.physmem import PhysicalMemory
from repro.params import DEFAULT_MACHINE, MachineConfig
from repro.schemes import make_scheme
from repro.sim.engine import SimulationResult, run_trace
from repro.sim.tenants import MultiProgramResult, ProcessRun, run_timeshared
from repro.sim.workloads import Workload, get_workload
from repro.util.rng import spawn_rng
from repro.vmos.compaction import CompactionResult, compact
from repro.vmos.contiguity import contiguity_histogram
from repro.vmos.distance import select_distance
from repro.vmos.mapping import MemoryMapping
from repro.vmos.paging_policy import demand_paging, eager_paging


@dataclass
class SystemProcess:
    """A launched process: its workload model and live mapping."""

    name: str
    workload: Workload
    mapping: MemoryMapping
    policy: str

    @property
    def footprint_pages(self) -> int:
        return self.mapping.mapped_pages

    def selected_distance(self) -> int:
        """What Algorithm 1 would pick for the current mapping."""
        return select_distance(contiguity_histogram(self.mapping))


class System:
    """One machine: physical memory, processes, schemes, scheduler."""

    def __init__(
        self,
        total_frames: int | None = None,
        pressure: str = "heavy",
        seed: int | None = None,
        machine: MachineConfig = DEFAULT_MACHINE,
    ) -> None:
        self.seed = seed
        self.machine = machine
        self._launch_count = 0
        self._deferred_frames = total_frames
        self._pressure = pressure
        self.memory: PhysicalMemory | None = None
        if total_frames is not None:
            self.memory = PhysicalMemory(total_frames, pressure, seed=seed)
        self.processes: dict[str, SystemProcess] = {}

    # ------------------------------------------------------------------
    # Machine state
    # ------------------------------------------------------------------

    def _ensure_memory(self, footprint: int) -> PhysicalMemory:
        """Size memory lazily to fit what gets launched (2x headroom).

        The frame count is the next power of two at or above twice the
        footprint, floored at 64 Ki frames (256 MiB of 4 KiB frames).
        """
        if self.memory is None:
            needed = max(2 * footprint, 1 << 16)
            total = 1 << (needed - 1).bit_length()
            self.memory = PhysicalMemory(total, self._pressure, seed=self.seed)
        return self.memory

    def ease_pressure(self, fraction: float) -> None:
        """Background co-runners exit, releasing their frames."""
        if self.memory is None:
            raise RuntimeError("no memory booted yet — launch a process first")
        rng = spawn_rng(self.seed, "system", "ease", self._launch_count)
        self.memory.release_background(fraction, rng)

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------

    def launch(
        self,
        workload_name: str,
        policy: str = "demand",
        name: str | None = None,
    ) -> SystemProcess:
        """Create a process and page its regions in via ``policy``."""
        workload = get_workload(workload_name)
        memory = self._ensure_memory(workload.footprint_pages)
        rng = spawn_rng(self.seed, "system", "launch", self._launch_count)
        if policy == "demand":
            mapping = demand_paging(workload.vmas(), memory, rng,
                                    thp=True, interleave=0.3)
        elif policy == "eager":
            mapping = eager_paging(workload.vmas(), memory)
        else:
            raise ValueError(f"unknown paging policy {policy!r}")
        process_name = name or f"{workload_name}#{self._launch_count}"
        if process_name in self.processes:
            raise ValueError(f"process {process_name!r} already exists")
        process = SystemProcess(process_name, workload, mapping, policy)
        self.processes[process_name] = process
        self._launch_count += 1
        return process

    def compact(self, process: SystemProcess,
                max_windows: int | None = None) -> CompactionResult:
        """Run a khugepaged pass over one process's mapping."""
        if self.memory is None:
            raise RuntimeError("no memory booted yet")
        return compact(process.mapping, self.memory, max_windows=max_windows)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(
        self,
        process: SystemProcess,
        scheme: str = "anchor-dyn",
        references: int = 50_000,
        epoch_references: int | None = None,
    ) -> SimulationResult:
        """Run one process alone on the machine's translation hardware."""
        trace = process.workload.make_trace(references, seed=self.seed)
        instance = make_scheme(scheme, process.mapping, self.machine)
        return run_trace(instance, trace, epoch_references=epoch_references)

    def run_together(
        self,
        processes: list[SystemProcess],
        scheme: str = "anchor-dyn",
        references: int = 50_000,
        quantum: int = 5_000,
        flush_on_switch: bool = True,
    ) -> MultiProgramResult:
        """Time-slice several processes over shared TLBs."""
        runs = [
            ProcessRun(
                process.name,
                make_scheme(scheme, process.mapping, self.machine),
                process.workload.make_trace(references, seed=self.seed),
            )
            for process in processes
        ]
        return run_timeshared(
            runs, quantum=quantum, flush_on_switch=flush_on_switch
        )
