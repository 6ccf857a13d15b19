"""The benchmark's four workloads: DSL configs, plan op counts and
correctness checks.

Each workload is a scenario file under ``perfbench/scenarios/``.  The
benchmark loads it with the public DSL (``load_scenario`` then
``validate_scenario`` with the ``--seed`` filled in) and runs it with
``compile_scenario(config).run()``.  The op count of a run comes from
the config and the seeded plan, never from how the program executed
it, so ``ops_per_s`` moves only with wall time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

SCENARIO_DIR = Path(__file__).resolve().parent / "scenarios"

#: the federated_commit kind runs every one of these crash placements
CRASH_PLACEMENTS = ("none", "before", "after", "coordinator")


@dataclass(frozen=True)
class Workload:
    name: str
    #: what a plan op is, for the printed report
    op: str
    #: plan-determined ops of one run of *config*
    ops: Callable[[Any], int]
    #: problems found in one run's report ([] when correct); the
    #: second argument is the number of failed checkins the run saw
    check: Callable[[Any, Any, int], list[str]]
    #: False for workloads that run outside the simulation kernel
    #: (no simulated makespan, no modelled LAN)
    kernel: bool = True


def load_config(name: str, seed: int,
                overrides: dict[str, dict[str, Any]] | None = None):
    """The workload's validated config at *seed*.

    *overrides* replaces whole keys of the file's tables (the tests use
    it to shrink a workload).
    """
    from repro.scenario import load_scenario, validate_scenario

    tables = load_scenario(SCENARIO_DIR / f"{name}.toml").as_tables()
    tables["scenario"]["seed"] = seed
    for table, keys in (overrides or {}).items():
        tables[table].update(keys)
    return validate_scenario(tables)


def canonical(report: Any) -> str:
    """A report as deterministic text: equal reports, equal text."""
    if dataclasses.is_dataclass(report):
        report = dataclasses.asdict(report)
    return json.dumps(report, sort_keys=True, default=repr)


def fingerprint(report: Any) -> str:
    return hashlib.sha256(canonical(report).encode()).hexdigest()[:16]


# -- delegation_tree -----------------------------------------------------


def _delegation_ops(config) -> int:
    return len(config.get("team", "subcells"))


def _delegation_check(config, report, failed_checkins: int) -> list[str]:
    problems = [f"sub-DA {da} of {cell} ended {report.final_states.get(da)}"
                for cell, da in report.sub_das.items()
                if report.final_states.get(da) != "terminated"]
    if len(report.sub_das) != _delegation_ops(config):
        problems.append(f"{len(report.sub_das)} sub-DAs created, "
                        f"{_delegation_ops(config)} planned")
    if not report.signature:
        problems.append("no kernel trace signature")
    if failed_checkins:
        problems.append(f"{failed_checkins} checkins failed")
    return problems


# -- design_campaign -----------------------------------------------------


def _campaign_sessions(config) -> int:
    return (config.get("team", "size") * config.get("campaign", "days")
            * config.get("campaign", "sessions_per_day"))


def _campaign_ops(config) -> int:
    return _campaign_sessions(config) \
        * config.get("team", "steps_per_session")


def _campaign_check(config, report, failed_checkins: int) -> list[str]:
    problems = []
    if report.sessions != _campaign_sessions(config):
        problems.append(f"{report.sessions} sessions committed, "
                        f"{_campaign_sessions(config)} planned")
    if report.steps != _campaign_ops(config):
        problems.append(f"{report.steps} steps executed, "
                        f"{_campaign_ops(config)} planned")
    if not report.signature:
        problems.append("no kernel trace signature")
    if failed_checkins:
        problems.append(f"{failed_checkins} planned checkins failed")
    return problems


# -- write_back_team -----------------------------------------------------


def _write_back_plan(config) -> tuple[int, int]:
    """(checkouts, checkins) the seeded team plan calls for.

    The plan is the one ``write_back_scenario`` draws: every step
    checks out its reads plus the neighbour's object, planned steps
    check in, and the restart episode re-reads each final step.
    """
    from repro.workload import team_workload

    steps = config.get("team", "steps_per_session")
    plan = team_workload(
        config.get("team", "size"), steps, config.get("team", "mean_step"),
        config.seed,
        reads_per_step=config.get("locality", "reads_per_step"),
        reread_locality=config.get("locality", "reread"),
        object_pool=config.get("objects", "pool"),
        write_ratio=config.get("writes", "ratio"),
        flush_interval=config.get("writes", "flush_interval"))
    checkouts = checkins = 0
    for session in plan.sessions:
        for step in range(steps):
            checkouts += len(session.reads_at(step)) + 1
            checkins += session.writes_at(step)
        if config.get("crashes", "server_restart"):
            checkouts += len(session.reads_at(steps - 1)) + 1
    return checkouts, checkins


def _write_back_ops(config) -> int:
    return sum(_write_back_plan(config))


def _write_back_check(config, report, failed_checkins: int) -> list[str]:
    problems = []
    planned = _write_back_plan(config)[1]
    if report.checkins != planned:
        problems.append(f"{report.checkins} checkins succeeded, "
                        f"{planned} planned")
    if failed_checkins:
        problems.append(f"{failed_checkins} planned checkins failed")
    if config.get("writes", "write_back") \
            and report.flushes < config.get("team", "size"):
        problems.append(f"{report.flushes} End-of-DOP flushes for "
                        f"{config.get('team', 'size')} designers")
    if not report.signature:
        problems.append("no kernel trace signature")
    return problems


# -- federated_commit ----------------------------------------------------


def _federated_ops(config) -> int:
    return config.get("federation", "batches") * len(CRASH_PLACEMENTS)


def _federated_check(config, report, failed_checkins: int) -> list[str]:
    problems = []
    if not report["states_identical"]:
        problems.append("durable states differ across crash placements")
    batches = config.get("federation", "batches")
    for crash in CRASH_PLACEMENTS:
        run = report["crashes"].get(crash)
        if run is None:
            problems.append(f"crash placement {crash!r} missing")
            continue
        if run["batches"] != batches:
            problems.append(f"{crash}: {run['batches']} batches "
                            f"committed, {batches} planned")
        if run["atomic_violations"]:
            problems.append(f"{crash}: {run['atomic_violations']} "
                            f"atomicity violations")
    return problems


WORKLOADS: dict[str, Workload] = {
    "delegation_tree": Workload(
        "delegation_tree", "sub-DAs planned to termination",
        _delegation_ops, _delegation_check),
    "design_campaign": Workload(
        "design_campaign", "designer steps",
        _campaign_ops, _campaign_check),
    "write_back_team": Workload(
        "write_back_team", "checkouts + checkins",
        _write_back_ops, _write_back_check),
    "federated_commit": Workload(
        "federated_commit", "batches x crash placements",
        _federated_ops, _federated_check, kernel=False),
}
