"""Shared scenario builders for experiments and examples.

Builds ready-to-run CONCORD installations for the VLSI domain and the
paper's running scenarios: the full chip design (Fig.2/Fig.3) and the
Fig.5 delegation scenario around cell 0 with subcells A-D, including
the impossible-specification / renegotiation episode the paper walks
through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.activity import DesignActivity
from repro.core.features import DesignSpecification, RangeFeature
from repro.core.states import DaState
from repro.core.system import ConcordSystem
from repro.dc.script import DaOpStep, DopStep, Iteration, Script, Sequence
from repro.net.network import Network
from repro.net.rpc import TransactionalRpc
from repro.repository.repository import DesignDataRepository
from repro.repository.schema import (
    AttributeDef,
    AttributeKind,
    DesignObjectType,
)
from repro.sim.clock import SimClock
from repro.sim.kernel import Kernel
from repro.sim.shard import ShardedKernel
from repro.te.context import DopContext
from repro.te.locks import LockManager
from repro.te.object_buffer import ObjectBuffer
from repro.te.recovery import RecoveryPointPolicy
from repro.te.transaction_manager import (
    ClientTM,
    ServerTM,
    register_server_endpoints,
)
from repro.util.errors import StorageError
from repro.util.ids import IdGenerator
from repro.util.rng import SeededRng
from repro.vlsi.floorplan import Floorplan, FloorplanInterface
from repro.vlsi.methodology import full_design_script, playout_constraints
from repro.vlsi.tools import register_vlsi_tools, vlsi_dots
from repro.workload.generator import team_workload


def make_vlsi_system(workstations: tuple[str, ...] = ("ws-1",),
                     trace: bool = True,
                     recovery_interval: float = 30.0,
                     jitter: float = 0.0,
                     seed: int = 0,
                     shards: int = 1) -> ConcordSystem:
    """A CONCORD installation with the VLSI domain installed."""
    system = ConcordSystem(
        trace=trace,
        recovery_policy=RecoveryPointPolicy(interval=recovery_interval),
        jitter=jitter, seed=seed, shards=shards)
    for name in workstations:
        system.add_workstation(name)
    register_vlsi_tools(system.tools)
    system.tools.register("subcell_seed", subcell_seed, duration=10.0)
    for dot in vlsi_dots().values():
        system.repository.register_dot(dot)
    system.constraints = playout_constraints()
    return system


def subcell_seed(context: DopContext, params: dict[str, Any]) -> None:
    """Scenario tool: seed a sub-DA's working data from the parent plan.

    Reads the parent's floorplan (the sub-DA's initial DOV), extracts
    the placement of ``params['subcell']`` as this cell's interface,
    and installs a fresh behavioral description for the subcell's own
    content (``params['operations']``).
    """
    subcell = params["subcell"]
    operations = params.get("operations",
                            ["op-a", "op-b", "op-c", "op-d"])
    parent_plan_raw = context.data.get("floorplan")
    if parent_plan_raw:
        parent_plan = Floorplan.from_dict(parent_plan_raw)
        placement = parent_plan.placements.get(subcell)
    else:
        placement = None
    if placement is not None:
        interface = FloorplanInterface(subcell, placement.width,
                                       placement.height,
                                       origin=(placement.x, placement.y))
    else:
        interface = FloorplanInterface(subcell,
                                       params.get("max_width", 50.0),
                                       params.get("max_height", 50.0))
    context.data.clear()
    context.data.update({
        "cell": subcell,
        "level": params.get("level", "module"),
        "behavior": {"operations": list(operations)},
        "interface": interface.to_dict(),
    })


def chip_spec(max_width: float, max_height: float) -> DesignSpecification:
    """A chip-planning specification: shape/area limitations.

    The Fig.5 specification "expresses features for shape/area
    limitations and pin restrictions".
    """
    return DesignSpecification([
        RangeFeature("width-limit", "width", hi=max_width),
        RangeFeature("height-limit", "height", hi=max_height),
        RangeFeature("area-limit", "area", hi=max_width * max_height),
    ])


def subcell_script(subcell: str, operations: list[str],
                   max_rounds: int = 2) -> Script:
    """Work flow of a subcell-planning sub-DA in the Fig.5 scenario."""
    return Script(Sequence(
        DopStep("subcell_seed", params={"subcell": subcell,
                                        "operations": operations}),
        DopStep("structure_synthesis"),
        DopStep("shape_function_generator"),
        Iteration(Sequence(DopStep("chip_planner"),
                           DaOpStep("Evaluate")),
                  max_rounds=max_rounds, name="replan"),
    ), name=f"plan-{subcell}")


def run_full_chip_design(system: ConcordSystem,
                         workstation: str = "ws-1",
                         designer: str = "alice") -> DesignActivity:
    """Run the end-to-end Fig.2 traversal as one top-level DA."""
    dots = vlsi_dots()
    spec = chip_spec(60.0, 60.0)
    behavior = {"operations": [f"op-{i}" for i in range(6)]}
    da = system.init_design(dots["Chip"], spec, designer,
                            full_design_script(), workstation,
                            initial_data={"cell": "chip-0",
                                          "level": "chip",
                                          "behavior": behavior})
    system.start(da.da_id)
    system.run(da.da_id)
    return da


@dataclass
class RecursiveReport:
    """Chronicle of the recursive top-down planning scenario."""

    #: cell name -> DA id, per planned (inner) cell
    das: dict[str, str] = field(default_factory=dict)
    #: cell name -> hierarchy depth of its DA
    depths: dict[str, int] = field(default_factory=dict)
    #: cell name -> (width, height) of its floorplan
    floorplans: dict[str, tuple[float, float]] = field(
        default_factory=dict)
    #: DOVs devolved per termination (sub-DA -> inherited)
    devolved: dict[str, list[str]] = field(default_factory=dict)


def recursive_planning_scenario(
        system: ConcordSystem | None = None,
        hierarchy=None) -> tuple[ConcordSystem, RecursiveReport]:
    """Top-down recursive chip planning over a whole cell hierarchy.

    "In a top-down fashion, a floorplan is computed for each cell of
    the hierarchy by recursively applying the chip planner" (Sect.3).
    Every inner cell gets its own DA, delegated from its parent cell's
    DA and seeded with the parent's placement interface; when a subtree
    is fully planned, the sub-DA commits and its final DOVs devolve
    upward level by level.
    """
    from repro.vlsi.cells import sample_hierarchy

    if hierarchy is None:
        hierarchy = sample_hierarchy()
    if system is None:
        system = make_vlsi_system(("ws-1", "ws-2", "ws-3"))
    report = RecursiveReport()
    dots_by_level = {
        0: vlsi_dots()["Chip"], 1: vlsi_dots()["Module"],
        2: vlsi_dots()["Block"],
    }
    workstations = ("ws-1", "ws-2", "ws-3")

    def plan_cell(cell, parent_cell, parent_da_id, initial_dov, depth):
        """Create the DA planning *cell*, run it, recurse into children."""
        operations = [child.name for child in cell.children]
        dot = dots_by_level[min(depth, 2)]
        spec = chip_spec(500.0, 500.0)
        workstation = workstations[depth % len(workstations)]
        if parent_da_id is None:
            script = Script(Sequence(
                DopStep("structure_synthesis"),
                DopStep("shape_function_generator"),
                DopStep("pad_frame_editor",
                        params={"max_width": 500.0,
                                "max_height": 500.0}),
                DopStep("chip_planner"),
                DaOpStep("Evaluate"),
            ), name=f"plan-{cell.name}")
            da = system.init_design(
                dot, spec, f"designer-{cell.name}", script, workstation,
                initial_data={"cell": cell.name, "level": "chip",
                              "behavior": {"operations": operations}})
        else:
            # the parent's floorplan names this cell's placement
            # "<parent>/<cell>" (structure synthesis convention)
            placement_name = f"{parent_cell.name}/{cell.name}"
            script = Script(Sequence(
                DopStep("subcell_seed",
                        params={"subcell": placement_name,
                                "operations": operations}),
                DopStep("structure_synthesis"),
                DopStep("shape_function_generator"),
                DopStep("pad_frame_editor",
                        params={"max_width": 500.0,
                                "max_height": 500.0}),
                DopStep("chip_planner"),
                DaOpStep("Evaluate"),
            ), name=f"plan-{cell.name}")
            da = system.create_sub_da(parent_da_id, dot, spec,
                                      f"designer-{cell.name}", script,
                                      workstation,
                                      initial_dov=initial_dov)
        system.start(da.da_id)
        system.run(da.da_id)
        report.das[cell.name] = da.da_id
        report.depths[cell.name] = system.cm.hierarchy_depth(da.da_id)

        graph = system.repository.graph(da.da_id)
        plan_dov = next((d for d in graph if d.data.get("floorplan")),
                        None)
        if plan_dov is not None:
            plan = Floorplan.from_dict(plan_dov.data["floorplan"])
            report.floorplans[cell.name] = (plan.width, plan.height)

        # recurse into inner children (blocks of modules, etc.)
        for child in cell.children:
            if child.children and plan_dov is not None:
                plan_cell(child, cell, da.da_id, plan_dov.dov_id,
                          depth + 1)

        # commit this DA's subtree upward
        if parent_da_id is not None and da.has_final_dov():
            system.cm.sub_da_ready_to_commit(da.da_id)
            inherited = system.cm.terminate_sub_da(parent_da_id,
                                                   da.da_id)
            report.devolved[da.da_id] = inherited

    plan_cell(hierarchy.root, None, None, None, 0)
    return system, report


@dataclass
class ConcurrentReport:
    """Chronicle of a concurrent delegation run on the shared kernel."""

    top_da: str = ""
    #: subcell -> sub-DA id
    sub_das: dict[str, str] = field(default_factory=dict)
    #: sub-DA id -> DOVs devolved on its (rule-driven) termination
    devolved: dict[str, list[str]] = field(default_factory=dict)
    #: DA id -> final state value
    final_states: dict[str, str] = field(default_factory=dict)
    #: simulated end-to-end time of the delegated phase
    makespan: float = 0.0
    #: kernel events executed during the delegated phase
    events: int = 0
    #: deterministic kernel fingerprint (concurrent runs only)
    signature: tuple[Any, ...] = ()


def concurrent_delegation_scenario(
        subcells: tuple[str, ...] = ("A", "B", "C"),
        concurrent: bool = True,
        crash: tuple[str, float, float] | None = None,
        jitter: float = 0.0,
        seed: int = 0,
        trace: bool = False,
        shards: int = 1,
        on_kernel: Callable[[Kernel], None] | None = None,
        ) -> tuple[ConcordSystem, ConcurrentReport]:
    """Delegated subcell planning with every sub-DA live at once.

    The top-level DA plans cell 0, then delegates one sub-DA per
    subcell.  With ``concurrent=True`` the sub-DAs execute on the
    shared kernel — tool steps interleave on one clock, the
    Ready_To_Commit messages are auto-dispatched to the top DM whose
    ECA rule terminates each sub-DA the instant its message arrives
    (devolving the final DOVs).  With ``concurrent=False`` the same
    scenario runs sequentially (``run`` + ``pump_events``) — the
    reference path concurrency must be equivalent to.  *crash* arms a
    kernel-injected ``(node, at, restart_after)`` failure.
    """
    from repro.dc.rules import EcaRule

    stations = ("ws-0",) + tuple(f"ws-{cell}" for cell in subcells)
    system = make_vlsi_system(stations, trace=trace, jitter=jitter,
                              seed=seed, shards=shards)
    if on_kernel is not None:
        on_kernel(system.kernel)
    report = ConcurrentReport()
    dots = vlsi_dots()

    top_script = Script(Sequence(
        DopStep("structure_synthesis"),
        DopStep("shape_function_generator"),
        DopStep("pad_frame_editor",
                params={"max_width": 500.0, "max_height": 500.0}),
        DopStep("chip_planner"),
        DaOpStep("Evaluate"),
    ), name="plan-cell-0")
    top = system.init_design(
        dots["Chip"], chip_spec(500.0, 500.0), "lead", top_script, "ws-0",
        initial_data={"cell": "cell-0", "level": "chip",
                      "behavior": {"operations": list(subcells)}})
    report.top_da = top.da_id
    system.start(top.da_id)
    system.run(top.da_id)
    plan_dov = system.repository.graph(top.da_id).leaves()[0]

    for cell in subcells:
        script = Script(Sequence(
            DopStep("subcell_seed",
                    params={"subcell": f"cell-0/{cell}",
                            "operations": [f"{cell.lower()}-op-{i}"
                                           for i in range(3)]}),
            DopStep("structure_synthesis"),
            DopStep("shape_function_generator"),
            DopStep("chip_planner"),
            DaOpStep("Evaluate"),
            DaOpStep("Sub_DA_Ready_To_Commit"),
        ), name=f"plan-{cell}")
        sub = system.create_sub_da(
            top.da_id, dots["Module"], chip_spec(500.0, 500.0),
            f"designer-{cell}", script, f"ws-{cell}",
            initial_dov=plan_dov.dov_id)
        report.sub_das[cell] = sub.da_id
        system.start(sub.da_id)

    # the top DM terminates each sub-DA as its Ready_To_Commit arrives
    top_dm = system.runtime(top.da_id).dm
    top_dm.rules.register(EcaRule(
        "auto-terminate", "Ready_To_Commit",
        lambda env: True,
        lambda env: report.devolved.__setitem__(
            env["sender"],
            system.cm.terminate_sub_da(top.da_id, env["sender"]))))

    phase_start = system.clock.now
    events_before = system.kernel.executed
    if crash is not None:
        # crash instants are relative to the delegated phase's start
        node, at, restart_after = crash
        system.schedule_crash(node, at=phase_start + at,
                              restart_after=restart_after)
    sub_ids = list(report.sub_das.values())
    if concurrent:
        system.run_concurrent(sub_ids)
        report.signature = system.kernel.trace_signature()
    else:
        for sub_id in sub_ids:
            system.run(sub_id)
            system.pump_events(top.da_id)
    report.makespan = system.clock.now - phase_start
    report.events = system.kernel.executed - events_before
    for da_id in [top.da_id, *sub_ids]:
        report.final_states[da_id] = system.cm.da(da_id).state.value
    return system, report


@dataclass
class ShippingReport:
    """Chronicle of one T8 data-shipping run on the real TE stack."""

    caching: bool = True
    #: simulated completion time of the last designer session
    makespan: float = 0.0
    #: total payload bytes shipped over the LAN
    bytes_shipped: int = 0
    #: object-buffer lookups served locally / from the server
    hits: int = 0
    misses: int = 0
    hit_rate: float = 0.0
    #: lease invalidations the server scheduled / the buffers applied
    invalidations_sent: int = 0
    invalidations_applied: int = 0
    #: LAN messages of the whole run (control + data + invalidations)
    messages: int = 0
    #: simulated time the designers spent waiting on payload fetches
    fetch_time: float = 0.0
    #: committed checkins (superseding writes) across the team
    checkins: int = 0
    #: deterministic kernel fingerprint of the run
    signature: tuple[Any, ...] = ()
    #: per-node payload bytes received (workstation fetch profile)
    bytes_received_by: dict[str, int] = field(default_factory=dict)


def object_buffer_scenario(team: int = 3,
                           steps_per_session: int = 4,
                           mean_step: float = 60.0,
                           seed: int = 11,
                           caching: bool = True,
                           reread_locality: float = 0.6,
                           write_mix: float = 0.3,
                           reads_per_step: int = 2,
                           object_pool: int = 4,
                           payload_bytes: int = 4000,
                           bandwidth: float = 400.0,
                           lan_latency: float = 0.05,
                           jitter: float = 0.0,
                           shards: int = 1,
                           lease_ttl: float | None = None,
                           on_kernel: Callable[[Kernel], None]
                           | None = None) -> ShippingReport:
    """A designer team exercising the data-shipping path end to end.

    Runs the *implemented* TE protocol — client-TMs, server-TM,
    repository, 2PC checkin — on the unified kernel: one workstation
    per designer, every session a sequence of tool steps that check
    shared library objects out of the server (re-read locality per
    :func:`~repro.workload.generator.team_workload`), occasionally
    deriving and checking in a new version (``write_mix``), which
    supersedes the old one and triggers lease invalidations of the
    buffered copies elsewhere.  With ``caching=True`` each workstation
    has a DOV object buffer, so re-reads are local; with
    ``caching=False`` every checkout re-ships its payload, so network
    cost scales with reads instead of working-set size.

    The workload (read sets, durations, write plan) is drawn from
    *seed* before the run starts, so caching on/off compare the exact
    same design sessions.  Session dependencies are not enforced here
    — T8 measures data shipping, not visibility policies (that is T1).
    """
    clock = SimClock()
    kernel = ShardedKernel(clock, shards=shards) if shards > 1 \
        else Kernel(clock)
    if on_kernel is not None:
        on_kernel(kernel)
    network = Network(clock, lan_latency=lan_latency, jitter=jitter,
                      seed=seed, bandwidth=bandwidth)
    network.attach_kernel(kernel)
    network.add_server()
    kernel.assign_shard("server", 0)
    repository = DesignDataRepository()
    locks = LockManager()
    server_tm = ServerTM(repository, locks, network, clock=clock,
                         lease_ttl=lease_ttl)
    # the library pool is shared by construction; T8 measures
    # shipping, not authorization (scope checks are F-series ground)
    server_tm.scope_check = lambda da_id, dov_id: True
    rpc = TransactionalRpc(network)
    register_server_endpoints(rpc, server_tm)
    ids = IdGenerator()

    repository.register_dot(DesignObjectType("SharedObject", attributes=[
        AttributeDef("name", AttributeKind.STRING),
        AttributeDef("blob", AttributeKind.STRING),
    ]))
    repository.create_graph("lib")
    #: object name -> id of its current (frontier) version
    current: dict[str, str] = {}

    def blob_for(obj: str, generation: int) -> str:
        index = int(obj.rsplit("-", 1)[-1])
        return chr(ord("a") + generation % 26) \
            * (payload_bytes + 256 * index)

    for index in range(object_pool):
        name = f"lib-{index}"
        dov = repository.checkin(
            "lib", "SharedObject",
            {"name": name, "blob": blob_for(name, 0)}, ())
        current[name] = dov.dov_id

    workload = team_workload(
        team, steps_per_session, mean_step, seed,
        reads_per_step=reads_per_step,
        reread_locality=reread_locality, object_pool=object_pool)
    # the write plan is drawn up front so caching on/off runs execute
    # the identical sequence of designer decisions
    write_rng = SeededRng(seed * 7919 + 23)
    write_plan = {
        (spec.session_id, step): write_rng.bernoulli(write_mix)
        for spec in workload.sessions
        for step in range(len(spec.step_durations))}

    report = ShippingReport(caching=caching)
    clients: list[ClientTM] = []
    buffers: list[ObjectBuffer] = []

    def launch(spec, client: ClientTM, da_id: str,
               generations: dict[str, int]) -> None:
        state = {"step": 0}

        def start_step() -> None:
            step = state["step"]
            if step >= len(spec.step_durations):
                return
            dop = client.begin_dop(da_id, tool="t8-tool")
            fetched_before = client.fetch_time
            for obj in spec.reads_at(step):
                client.checkout(dop, current[obj])
            fetch_delay = client.fetch_time - fetched_before
            kernel.after(
                fetch_delay + spec.step_durations[step],
                lambda: finish_step(dop, step),
                label=f"t8-step:{spec.session_id}:{step}")

        def finish_step(dop, step: int) -> None:
            reads = spec.reads_at(step)
            if write_plan[(spec.session_id, step)] and reads:
                target = reads[0]
                generations[target] = generations.get(target, 0) + 1
                result = client.checkin(
                    dop, "SharedObject",
                    data={"name": target,
                          "blob": blob_for(target, generations[target])},
                    parents=[current[target]])
                if result.success:
                    current[target] = result.dov.dov_id
                    report.checkins += 1
                client.commit_dop(dop, result)
            else:
                client.commit_dop(dop)
            state["step"] = step + 1
            start_step()

        kernel.at(0.0, start_step,
                  label=f"t8-begin:{spec.session_id}")

    generations: dict[str, int] = {}
    for index, spec in enumerate(workload.sessions):
        workstation = f"ws-{index}"
        network.add_workstation(workstation)
        kernel.assign_shard(workstation, (1 + index) % max(shards, 1))
        buffer = ObjectBuffer(workstation) if caching else None
        client = ClientTM(workstation, server_tm, rpc, clock, ids=ids,
                          buffer=buffer)
        repository.create_graph(f"da-{index}")
        clients.append(client)
        if buffer is not None:
            buffers.append(buffer)
        launch(spec, client, f"da-{index}", generations)

    kernel.run_until_quiescent()

    stats = network.traffic_stats()
    report.makespan = clock.now
    report.bytes_shipped = stats["bytes_shipped"]
    report.bytes_received_by = stats["bytes_received_by"]
    report.messages = stats["messages_sent"]
    report.hits = sum(b.hits for b in buffers)
    report.misses = sum(b.misses for b in buffers)
    looked_up = report.hits + report.misses
    report.hit_rate = report.hits / looked_up if looked_up else 0.0
    report.invalidations_sent = server_tm.invalidations_sent
    report.invalidations_applied = sum(b.invalidations for b in buffers)
    report.fetch_time = sum(c.fetch_time for c in clients)
    report.signature = kernel.trace_signature()
    return report


@dataclass
class WriteBackReport:
    """Chronicle of one T9 write-back vs write-through run."""

    write_back: bool = False
    #: simulated completion time of the last designer session
    makespan: float = 0.0
    #: total payload bytes shipped over the LAN
    bytes_shipped: int = 0
    #: LAN messages of the whole run (control + data + invalidations)
    messages: int = 0
    #: batched (group-checkin) messages / payloads they carried
    batches: int = 0
    batched_payloads: int = 0
    #: logical checkins the designers issued (identical in both modes)
    checkins: int = 0
    #: group flushes executed / checkins they shipped
    flushes: int = 0
    flushed_checkins: int = 0
    #: dirty provisional versions that never crossed the LAN because a
    #: later checkin superseded them first (write-back's byte saving)
    coalesced: int = 0
    invalidations_sent: int = 0
    hits: int = 0
    misses: int = 0
    hit_rate: float = 0.0
    #: simulated time the designers spent waiting on payload fetches
    fetch_time: float = 0.0
    #: server-restart episode: entries kept warm via stamp
    #: re-validation / dropped, and the bytes a re-read round shipped
    #: afterwards (0 = the warm entries really were served locally)
    revalidated: int = 0
    revalidation_drops: int = 0
    post_restart_bytes: int = 0
    #: deterministic kernel fingerprint of the run
    signature: tuple[Any, ...] = ()


def write_back_scenario(team: int = 3,
                        steps_per_session: int = 4,
                        mean_step: float = 60.0,
                        seed: int = 13,
                        write_back: bool = True,
                        write_ratio: float = 0.6,
                        reads_per_step: int = 2,
                        reread_locality: float = 0.6,
                        object_pool: int = 4,
                        payload_bytes: int = 4000,
                        bandwidth: float = 400.0,
                        lan_latency: float = 0.05,
                        jitter: float = 0.0,
                        flush_interval: int = 0,
                        restart: bool = True,
                        shards: int = 1,
                        lease_ttl: float | None = None,
                        on_kernel: Callable[[Kernel], None]
                        | None = None) -> WriteBackReport:
    """A designer team exercising write-back vs write-through checkins.

    Both modes run the implemented TE protocol with object buffers on;
    the only difference is the checkin path.  Every designer session
    is **one long DOP**: each step checks shared library objects and
    the neighbour's design object out of the server, works, and — per
    the workload's seeded ``write_ratio`` plan — derives and checks in
    a new version of the designer's own object.  With
    ``write_back=False`` each checkin ships its payload and runs its
    own 2PC immediately; with ``write_back=True`` checkins stage dirty
    buffer entries that coalesce and ship as one batched group
    checkin at End-of-DOP (plus every ``flush_interval`` checkins when
    set).  The workload (read sets, durations, write plan) is drawn
    from *seed* before the run, so both modes execute identical
    designer decisions.

    With ``restart=True`` the scenario appends a server-crash /
    restart episode after the team finishes: the server-TM
    re-validates the resident buffer entries against fresh repository
    stamps (warm cache survives recovery), and a follow-up re-read
    round measures how many bytes that saved (`post_restart_bytes`
    stays 0 when every re-read hits the re-validated buffer).
    """
    clock = SimClock()
    kernel = ShardedKernel(clock, shards=shards) if shards > 1 \
        else Kernel(clock)
    if on_kernel is not None:
        on_kernel(kernel)
    network = Network(clock, lan_latency=lan_latency, jitter=jitter,
                      seed=seed, bandwidth=bandwidth)
    network.attach_kernel(kernel)
    server = network.add_server()
    kernel.assign_shard(server.node_id, 0)
    repository = DesignDataRepository()
    # repository recovery registers BEFORE the server-TM's restart
    # hook so stamps are fresh when the buffers re-validate
    server.on_crash.append(lambda: repository.crash())
    server.on_restart.append(lambda: repository.recover())
    locks = LockManager()
    server_tm = ServerTM(repository, locks, network, clock=clock,
                         lease_ttl=lease_ttl)
    server_tm.scope_check = lambda da_id, dov_id: True
    server_tm.revalidate_on_restart = True
    rpc = TransactionalRpc(network)
    register_server_endpoints(rpc, server_tm)
    ids = IdGenerator()

    repository.register_dot(DesignObjectType("SharedObject", attributes=[
        AttributeDef("name", AttributeKind.STRING),
        AttributeDef("blob", AttributeKind.STRING),
    ]))
    repository.create_graph("lib")
    #: object name -> id of its current durable (frontier) version
    current: dict[str, str] = {}

    def blob_for(obj: str, generation: int) -> str:
        index = int(obj.rsplit("-", 1)[-1])
        return chr(ord("a") + generation % 26) \
            * (payload_bytes + 256 * index)

    for index in range(object_pool):
        name = f"lib-{index}"
        dov = repository.checkin(
            "lib", "SharedObject",
            {"name": name, "blob": blob_for(name, 0)}, ())
        current[name] = dov.dov_id
    for index in range(team):
        name = f"cell-{index}"
        dov = repository.checkin(
            "lib", "SharedObject",
            {"name": name, "blob": blob_for(name, 0)}, ())
        current[name] = dov.dov_id

    workload = team_workload(
        team, steps_per_session, mean_step, seed,
        reads_per_step=reads_per_step,
        reread_locality=reread_locality, object_pool=object_pool,
        write_ratio=write_ratio, flush_interval=flush_interval)

    report = WriteBackReport(write_back=write_back)
    clients: list[ClientTM] = []
    buffers: list[ObjectBuffer] = []
    generations: dict[str, int] = {}
    #: per client, the read set of its final step (restart re-reads)
    last_reads: dict[str, list[str]] = {}

    def launch(index: int, spec, client: ClientTM) -> None:
        da_id = f"da-{index}"
        own = f"cell-{index}"
        neighbour = f"cell-{(index - 1) % team}"
        state: dict[str, Any] = {"step": 0, "dop": None, "last": None}

        def start_session() -> None:
            state["dop"] = client.begin_dop(da_id, tool="t9-tool")
            state["last"] = current[own]
            start_step()

        def start_step() -> None:
            step = state["step"]
            dop = state["dop"]
            reads = spec.reads_at(step) + [neighbour]
            fetched_before = client.fetch_time
            for obj in reads:
                client.checkout(dop, current[obj])
            last_reads[client.workstation] = [current[obj]
                                             for obj in reads]
            fetch_delay = client.fetch_time - fetched_before
            kernel.after(
                fetch_delay + spec.step_durations[step],
                lambda: finish_step(step),
                label=f"t9-step:{spec.session_id}:{step}")

        def finish_step(step: int) -> None:
            dop = state["dop"]
            if spec.writes_at(step):
                generations[own] = generations.get(own, 0) + 1
                result = client.checkin(
                    dop, "SharedObject",
                    data={"name": own,
                          "blob": blob_for(own, generations[own])},
                    parents=[state["last"]])
                if result.success:
                    state["last"] = result.dov.dov_id
                    report.checkins += 1
                    if not result.provisional:
                        current[own] = result.dov.dov_id
            state["step"] = step + 1
            if state["step"] >= len(spec.step_durations):
                client.commit_dop(dop)
                # write-back: End-of-DOP flushed; publish the durable
                # frontier of this designer's object
                current[own] = client.resolve(state["last"])
                return
            start_step()

        kernel.at(0.0, start_session,
                  label=f"t9-begin:{spec.session_id}")

    for index, spec in enumerate(workload.sessions):
        workstation = f"ws-{index}"
        network.add_workstation(workstation)
        kernel.assign_shard(workstation, (1 + index) % max(shards, 1))
        buffer = ObjectBuffer(workstation, policy="lru")
        client = ClientTM(
            workstation, server_tm, rpc, clock, ids=ids,
            buffer=buffer, write_back=write_back,
            flush_interval=workload.flush_interval or None,
            pressure_fraction=workload.pressure_fraction)
        repository.create_graph(f"da-{index}")
        clients.append(client)
        buffers.append(buffer)
        launch(index, spec, client)

    kernel.run_until_quiescent()

    stats = network.traffic_stats()
    report.makespan = clock.now
    report.bytes_shipped = stats["bytes_shipped"]
    report.messages = stats["messages_sent"]
    report.batches = stats["batches_sent"]
    report.batched_payloads = stats["batched_payloads"]
    report.flushes = sum(c.flushes for c in clients)
    report.flushed_checkins = sum(c.flushed_checkins for c in clients)
    report.coalesced = sum(b.coalesced for b in buffers)
    report.invalidations_sent = server_tm.invalidations_sent
    report.hits = sum(b.hits for b in buffers)
    report.misses = sum(b.misses for b in buffers)
    looked_up = report.hits + report.misses
    report.hit_rate = report.hits / looked_up if looked_up else 0.0
    report.fetch_time = sum(c.fetch_time for c in clients)
    report.signature = kernel.trace_signature()

    if restart:
        # the seeded server-restart episode: warm buffers survive via
        # stamp re-validation, then a re-read round shows the kept
        # entries serve locally (every re-shipped byte is counted)
        network.crash_node("server")
        network.restart_node("server")
        report.revalidated = sum(b.revalidated for b in buffers)
        report.revalidation_drops = sum(b.revalidation_drops
                                        for b in buffers)
        before = network.bytes_shipped
        for index, client in enumerate(clients):
            dop = client.begin_dop(f"da-{index}", tool="t9-reread")
            for dov_id in last_reads.get(client.workstation, []):
                client.checkout(dop, dov_id)
            client.commit_dop(dop)
        report.post_restart_bytes = network.bytes_shipped - before
    return report


@dataclass
class FederatedCommitReport:
    """Chronicle of one federated-atomic-commit run (experiment T10)."""

    crash: str = "none"
    members: int = 0
    #: cross-member batches the scenario drove to a commit
    batches: int = 0
    #: batches aborted by a member crash during prepare (presumed abort)
    aborted_batches: int = 0
    #: aborted batches re-staged and retried to success
    retried_batches: int = 0
    #: batches a recovering member redid from the global decision log
    redone_batches: int = 0
    #: COMMIT decisions in the global log / its forced writes
    decisions_logged: int = 0
    forced_decision_writes: int = 0
    #: logged decisions observed partially applied after recovery —
    #: any non-zero value is an atomicity violation
    atomic_violations: int = 0
    #: durable versions per member after the run
    durable_per_member: dict[str, int] = field(default_factory=dict)
    #: id-independent durable state: sorted (da, name, rev) triples —
    #: identical across crash placements iff commit is all-or-nothing
    state: tuple = ()
    directory_entries: int = 0


class _CoordinatorCrash(RuntimeError):
    """Injected coordinator failure between decision and notification."""


def federated_commit_scenario(crash: str = "none", members: int = 3,
                              batches: int = 4, crash_batch: int = 1,
                              crash_member: int = 1, seed: int = 17,
                              placement: str = "directory",
                              *, audit: Callable[[Any], None] | None
                              = None) -> FederatedCommitReport:
    """Cross-member ``commit_group`` under injected crashes.

    A federation of *members* repositories holds one DA per member;
    every batch stages one derived version per DA (a genuinely
    cross-member group) and commits it through the federated atomic
    commit.  *crash* places a failure around batch *crash_batch*:

    * ``"none"`` — the undisturbed reference run;
    * ``"before"`` — the target member crashes **before** the global
      decision record exists: prepare fails, the batch aborts
      everywhere (presumed abort — nothing was logged), and after the
      member recovers the batch is re-staged and retried;
    * ``"after"`` — the member crashes **after** the decision record
      (the :attr:`~repro.txn.decision_log.GlobalDecisionLog.on_decision`
      window): live members complete, and the crashed member redoes
      its portion from its forced prepare record when it recovers;
    * ``"coordinator"`` — the *coordinator* dies between the decision
      record and the participant notifications: nobody was told, the
      members still hold their staged portions, and
      :meth:`~repro.repository.federation.FederatedRepository.resolve_incomplete`
      finishes the logged decision on restart.

    All four runs must converge to the identical id-independent
    durable state — the all-or-nothing claim of the decision log.
    *placement* selects the federation's DA-placement strategy
    (irrelevant to the outcome here — every DA is pinned with
    ``assign`` — but it lets the scenario exercise both index modes).
    *audit*, when given, is called with the federation after every
    batch is staged and again at the injected crash instant — the
    moments a staged id's home must still equal member truth.
    """
    from repro.repository.federation import FederatedRepository

    report = FederatedCommitReport(crash=crash, members=members)
    # one id generator across the federation: the directory (and the
    # decision-log manifests) key on globally unique DOV ids
    ids = IdGenerator()
    federation = FederatedRepository({
        f"site-{index}": DesignDataRepository(ids)
        for index in range(members)}, placement=placement)
    dot = DesignObjectType("Part", attributes=[
        AttributeDef("name", AttributeKind.STRING),
        AttributeDef("rev", AttributeKind.INT),
        AttributeDef("weight", AttributeKind.FLOAT),
    ])
    federation.register_dot(dot)
    target = f"site-{crash_member % members}"
    current: dict[str, str] = {}
    for index in range(members):
        da_id = f"da-{index}"
        federation.assign(da_id, f"site-{index}")
        federation.create_graph(da_id)
        dov = federation.checkin(
            da_id, "Part", _part_payload(index, 0, seed), ())
        current[da_id] = dov.dov_id

    def stage_batch(rev: int) -> list[str]:
        staged: list[str] = []
        try:
            for index in range(members):
                da_id = f"da-{index}"
                dov = federation.stage_checkin(
                    da_id, "Part", _part_payload(index, rev, seed),
                    (current[da_id],), created_at=float(rev))
                staged.append(dov.dov_id)
        except StorageError:
            federation.abort_group(staged)  # un-stage the partial batch
            raise
        return staged

    def remember(committed: list[Any]) -> None:
        for dov in committed:
            current[dov.created_by] = dov.dov_id

    def check() -> None:
        if audit is not None:
            audit(federation)

    for batch in range(batches):
        rev = batch + 1
        injected = crash == "before" and batch == crash_batch
        if injected:
            federation.crash_member(target)
            check()
        staged = stage_batch(rev) if not injected else None
        if not injected:
            check()
        if injected:
            # staging on the crashed home member fails outright; the
            # batch never forms — same presumed-abort outcome as a
            # crash during prepare: nothing logged, nothing durable
            try:
                stage_batch(rev)
                raise AssertionError("staging on a crashed member "
                                     "must fail")
            except StorageError:
                report.aborted_batches += 1
            federation.recover_member(target)
            staged = stage_batch(rev)  # retry after recovery
            check()
            report.retried_batches += 1
            remember(federation.commit_group(staged))
        elif crash == "after" and batch == crash_batch:
            def crash_member_after_decision(gtxn_id: str,
                                            manifest: dict) -> None:
                federation.decision_log.on_decision = None
                federation.crash_member(target)
                check()

            federation.decision_log.on_decision = \
                crash_member_after_decision
            committed = federation.commit_group(staged)
            # the crashed member's portion is in doubt until recovery
            redone_before = federation.redone_batches
            recovery = federation.recover_member(target)
            report.redone_batches += \
                federation.redone_batches - redone_before
            assert recovery["redone_batches"] >= 1
            remember(committed)
            for dov_id in staged:
                current[federation.read(dov_id).created_by] = dov_id
        elif crash == "coordinator" and batch == crash_batch:
            def crash_coordinator(gtxn_id: str, manifest: dict) -> None:
                federation.decision_log.on_decision = None
                check()
                raise _CoordinatorCrash(gtxn_id)

            federation.decision_log.on_decision = crash_coordinator
            try:
                federation.commit_group(staged)
                raise AssertionError("injected coordinator crash "
                                     "did not fire")
            except _CoordinatorCrash:
                pass
            # restart: the logged decision completes from staged state
            settled = federation.resolve_incomplete()
            assert settled == 1
            for dov_id in staged:
                current[federation.read(dov_id).created_by] = dov_id
        else:
            remember(federation.commit_group(staged))
        report.batches += 1

    # -- the all-or-nothing audit: after recovery, every logged
    # decision must be applied at every manifest member in full — a
    # partially applied batch is an atomicity violation
    log = federation.decision_log
    for gtxn_id in log.decisions():
        durable = [dov_id in federation.member(name).store
                   for name, ids in log.manifest(gtxn_id).items()
                   for dov_id in ids]
        if durable and not all(durable):
            report.atomic_violations += 1

    state = []
    for index in range(members):
        member = federation.member(f"site-{index}")
        report.durable_per_member[f"site-{index}"] = len(member.store)
        for dov in member.store:
            state.append((dov.created_by, dov.data["name"],
                          dov.data["rev"]))
    report.state = tuple(sorted(state))
    report.decisions_logged = log.stats()["decisions"]
    report.forced_decision_writes = log.stats()["forced_writes"]
    report.directory_entries = federation.stats()["directory_entries"]
    return report


def _federation_rebuild_check(members: int = 3, batches: int = 2,
                              seed: int = 17) -> bool:
    """Directory-rebuild equality: run a few cross-member batches plus
    one version left staged, lose the coordinator (decision-log memory
    + the whole placement index), recover from the members alone, and
    compare every index surface against the pre-crash snapshot."""
    from repro.repository.federation import FederatedRepository

    ids = IdGenerator()
    federation = FederatedRepository({
        f"site-{index}": DesignDataRepository(ids)
        for index in range(members)})
    dot = DesignObjectType("Part", attributes=[
        AttributeDef("name", AttributeKind.STRING),
        AttributeDef("rev", AttributeKind.INT),
        AttributeDef("weight", AttributeKind.FLOAT),
    ])
    federation.register_dot(dot)
    current: dict[str, str] = {}
    for index in range(members):
        da_id = f"da-{index}"
        federation.assign(da_id, f"site-{index}")
        federation.create_graph(da_id)
        dov = federation.checkin(
            da_id, "Part", _part_payload(index, 0, seed), ())
        current[da_id] = dov.dov_id
    for rev in range(1, batches + 1):
        staged = []
        for index in range(members):
            da_id = f"da-{index}"
            dov = federation.stage_checkin(
                da_id, "Part", _part_payload(index, rev, seed),
                (current[da_id],), created_at=float(rev))
            staged.append(dov.dov_id)
        for dov in federation.commit_group(staged):
            current[dov.created_by] = dov.dov_id
    # one version stays staged across the crash: the rebuild must
    # recover the staged-home index too, not just the directory
    federation.stage_checkin("da-0", "Part",
                             _part_payload(0, batches + 1, seed),
                             (current["da-0"],),
                             created_at=float(batches + 1))
    before = federation.placement_index.stats()
    directory_before = federation.directory_snapshot()
    homes_before = federation.placement_index.homes()
    federation.crash_coordinator()
    federation.recover_coordinator()
    return (federation.directory_snapshot() == directory_before
            and federation.placement_index.homes() == homes_before
            and federation.placement_index.stats() == before)


def _part_payload(index: int, rev: int, seed: int) -> dict[str, Any]:
    """Deterministic payload of one staged version (no RNG state, so
    retried batches rebuild byte-identical data)."""
    return {"name": f"part-{index}", "rev": rev,
            "weight": float((seed * 31 + index * 7 + rev) % 97)}


@dataclass
class Fig5Report:
    """Chronicle of the delegation scenario (experiment F5)."""

    top_da: str = ""
    sub_das: dict[str, str] = field(default_factory=dict)  # subcell -> da
    phases: list[str] = field(default_factory=list)
    impossible_from: str = ""
    modified_specs: list[str] = field(default_factory=list)
    inherited_dovs: dict[str, list[str]] = field(default_factory=dict)
    final_states: dict[str, str] = field(default_factory=dict)


def fig5_delegation_scenario(system: ConcordSystem | None = None
                             ) -> tuple[ConcordSystem, Fig5Report]:
    """The Fig.5 scenario, end to end.

    DA1 plans cell 0 (subcells A-D), delegates subcell planning to
    sub-DAs; the A-planner discovers its area is insufficient and
    raises Sub_DA_Impossible_Specification; DA1 reacts by "giving DA2
    more and DA3 less area"; both replan, reach final DOVs, and are
    terminated, devolving their results to DA1's scope.
    """
    if system is None:
        system = make_vlsi_system(("ws-1", "ws-2", "ws-3", "ws-4", "ws-5"))
    report = Fig5Report()
    dots = vlsi_dots()
    subcells = ("A", "B", "C", "D")

    # --- DA1 plans cell 0 -------------------------------------------------
    top_script = Script(Sequence(
        DopStep("structure_synthesis"),
        DopStep("shape_function_generator"),
        DopStep("pad_frame_editor",
                params={"max_width": 40.0, "max_height": 40.0}),
        DopStep("chip_planner"),
        DaOpStep("Evaluate"),
    ), name="plan-cell-0")
    da1 = system.init_design(
        dots["Chip"], chip_spec(40.0, 40.0), "designer-1", top_script,
        "ws-1",
        initial_data={"cell": "cell-0", "level": "chip",
                      "behavior": {"operations": list(subcells)}})
    report.top_da = da1.da_id
    system.start(da1.da_id)
    system.run(da1.da_id)
    report.phases.append("DA1 planned cell-0 (floorplan contents for "
                         "subcells A-D)")

    plan_dov = system.repository.graph(da1.da_id).leaves()[0]
    floorplan = Floorplan.from_dict(plan_dov.data["floorplan"])

    # --- delegation: one sub-DA per subcell --------------------------------
    operations_per_subcell = {
        "A": [f"a-op-{i}" for i in range(6)],   # A needs the most content
        "B": [f"b-op-{i}" for i in range(3)],
        "C": [f"c-op-{i}" for i in range(3)],
        "D": [f"d-op-{i}" for i in range(3)],
    }
    workstations = ("ws-2", "ws-3", "ws-4", "ws-5")
    for subcell, workstation in zip(subcells, workstations):
        placement = floorplan.placements[f"cell-0/{subcell}"]
        if subcell == "A":
            # the paper's conflict: A's specified area is insufficient
            spec = chip_spec(placement.width * 0.4,
                             placement.height * 0.4)
        else:
            spec = chip_spec(placement.width * 4.0,
                             placement.height * 4.0)
        sub = system.create_sub_da(
            da1.da_id, dots["Module"], spec, f"designer-{subcell}",
            subcell_script(f"cell-0/{subcell}",
                           operations_per_subcell[subcell]),
            workstation, initial_dov=plan_dov.dov_id)
        report.sub_das[subcell] = sub.da_id
        system.start(sub.da_id)
    report.phases.append("DA1 delegated planning of A, B, C, D "
                         "(DA2..DA5)")

    # --- sub-DAs work; A fails its spec -------------------------------------
    for subcell in subcells:
        sub_id = report.sub_das[subcell]
        system.run(sub_id)
        sub = system.cm.da(sub_id)
        if sub.has_final_dov():
            system.cm.sub_da_ready_to_commit(sub_id)
        else:
            system.cm.sub_da_impossible_specification(
                sub_id, reason="specified area is not sufficient")
            report.impossible_from = sub_id
    report.phases.append(
        f"{report.impossible_from} reported "
        f"Sub_DA_Impossible_Specification (area insufficient)")

    # --- DA1 reacts: more area for A, less for B ----------------------------
    a_id, b_id = report.sub_das["A"], report.sub_das["B"]
    placement_a = floorplan.placements["cell-0/A"]
    placement_b = floorplan.placements["cell-0/B"]
    system.cm.modify_sub_da_specification(
        da1.da_id, a_id, chip_spec(placement_a.width * 4.0,
                                   placement_a.height * 4.0))
    system.cm.modify_sub_da_specification(
        da1.da_id, b_id, chip_spec(placement_b.width * 2.0,
                                   placement_b.height * 2.0))
    report.modified_specs = [a_id, b_id]
    report.phases.append("DA1 modified the specs of DA2 (more area) and "
                         "DA3 (less area)")

    # --- replanning under the modified features ------------------------------
    for sub_id in (a_id, b_id):
        system.run(sub_id)
        sub = system.cm.da(sub_id)
        if sub.has_final_dov() \
                and sub.state is not DaState.READY_FOR_TERMINATION:
            system.cm.sub_da_ready_to_commit(sub_id)
    report.phases.append("DA2 and DA3 replanned with the modified area "
                         "features")

    # --- termination: final DOVs devolve to DA1 -------------------------------
    for subcell in subcells:
        sub_id = report.sub_das[subcell]
        sub = system.cm.da(sub_id)
        if sub.state is DaState.READY_FOR_TERMINATION:
            inherited = system.cm.terminate_sub_da(da1.da_id, sub_id)
            report.inherited_dovs[sub_id] = inherited
    report.phases.append("DA1 terminated the sub-DAs; final DOVs "
                         "devolved to its scope")

    for sub_id in report.sub_das.values():
        report.final_states[sub_id] = system.cm.da(sub_id).state.value
    report.final_states[da1.da_id] = system.cm.da(da1.da_id).state.value
    return system, report
