"""DAG plan: sub-tasks, dependency edges, statuses, and dependency-safe updates.

Plans are values: every operation returns a new plan and never mutates its
input, so a run can snapshot them freely and replays stay bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from .protocol import ProtocolError

PENDING = "pending"
ACTIVE = "active"
ANSWERED = "answered"


@dataclass(frozen=True)
class TaskNode:
    """One sub-task: answered nodes always carry their answer text."""

    task_id: str
    description: str
    status: str = PENDING
    answer: str | None = None
    evidence: tuple[str, ...] = ()


@dataclass(frozen=True)
class DagPlan:
    plan_id: int
    nodes: Mapping[str, TaskNode]
    edges: tuple[tuple[str, str], ...]

    def task(self, task_id: str) -> TaskNode:
        """The node of ``task_id``; ProtocolError when this plan has none."""
        node = self.nodes.get(task_id)
        if node is None:
            raise ProtocolError(f'task "{task_id}" is not in the current plan')
        return node

    def predecessors(self, task_id: str) -> list[str]:
        return sorted(src for src, dst in self.edges if dst == task_id)

    def successors(self, task_id: str) -> list[str]:
        return sorted(dst for src, dst in self.edges if src == task_id)

    def descendants(self, task_id: str) -> set[str]:
        """All tasks reachable from ``task_id`` along dependency edges."""
        seen: set[str] = set()
        stack = [task_id]
        while stack:
            for nxt in self.successors(stack.pop()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen


def _find_cycle(nodes: Iterable[str], edges: Iterable[tuple[str, str]]) -> list[str]:
    """Return task ids on unresolved cycles (empty list when acyclic).

    Kahn's algorithm; the returned ids are sorted for stable diagnostics.
    """
    indegree = {tid: 0 for tid in nodes}
    out: dict[str, list[str]] = {tid: [] for tid in indegree}
    for src, dst in edges:
        out[src].append(dst)
        indegree[dst] += 1
    ready = sorted(tid for tid, deg in indegree.items() if deg == 0)
    while ready:
        for nxt in out[ready.pop()]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
    return sorted(tid for tid, deg in indegree.items() if deg > 0)


def build_plan(tasks: Sequence[dict], edges: Iterable[Sequence[str]], plan_id: int = 0) -> DagPlan:
    """Validate and build a fresh plan with every node pending.

    This is the one owner of the graph rules: at least one task, unique
    task ids, declared edge endpoints and no cycle. ``tasks`` are
    framing-payload ``{"task_id", "description"}`` objects; edges are
    (from, to) pairs meaning "to depends on from".
    """
    nodes: dict[str, TaskNode] = {}
    for task in tasks:
        tid, description = task["task_id"], task["description"]
        if tid in nodes:
            raise ProtocolError(f'task "{tid}" is declared more than once')
        nodes[tid] = TaskNode(task_id=tid, description=description)
    if not nodes:
        raise ProtocolError("a plan needs at least one task")
    edge_set: set[tuple[str, str]] = set()
    for edge in edges:
        src, dst = edge[0], edge[1]
        for endpoint in (src, dst):
            if endpoint not in nodes:
                raise ProtocolError(f'edge endpoint "{endpoint}" is not a declared task')
        edge_set.add((src, dst))
    cyclic = _find_cycle(nodes, edge_set)
    if cyclic:
        raise ProtocolError(f"dependency edges form a cycle through: {', '.join(cyclic)}")
    return DagPlan(plan_id=plan_id, nodes=nodes, edges=tuple(sorted(edge_set)))


def frontier(plan: DagPlan) -> list[str]:
    """Unanswered tasks whose predecessors are all answered, in task-id order.

    Tasks marked active stay in the frontier: active is a rendering hint,
    not a scheduling state.
    """
    ready = []
    for tid in sorted(plan.nodes):
        node = plan.nodes[tid]
        if node.status == ANSWERED:
            continue
        if all(plan.nodes[p].status == ANSWERED for p in plan.predecessors(tid)):
            ready.append(tid)
    return ready


def apply_task_answer(plan: DagPlan, answers: Sequence[tuple[str, str]]) -> DagPlan:
    """Mark tasks answered, in the given order.

    Entries are applied sequentially, so earlier answers in the same batch
    may satisfy later entries' dependencies.
    """
    for task_id, answer in answers:
        node = plan.task(task_id)
        if node.status == ANSWERED:
            raise ProtocolError(f'task "{task_id}" is already answered; use revisit_task to redo it')
        unmet = [p for p in plan.predecessors(task_id) if plan.nodes[p].status != ANSWERED]
        if unmet:
            raise ProtocolError(f'task "{task_id}" depends on unanswered task(s): {", ".join(unmet)}')
        plan = replace(plan, nodes={**plan.nodes, task_id: replace(node, status=ANSWERED, answer=answer)})
    return plan


def mark_active(plan: DagPlan, task_id: str) -> DagPlan:
    """Flag the task targeted by the latest tool call (rendering only)."""
    node = plan.task(task_id)
    if node.status != PENDING:
        return plan
    nodes = dict(plan.nodes)
    nodes[task_id] = replace(node, status=ACTIVE)
    return replace(plan, nodes=nodes)


def attach_evidence(plan: DagPlan, task_id: str, facts: Sequence[str]) -> DagPlan:
    node = plan.task(task_id)
    nodes = dict(plan.nodes)
    nodes[task_id] = replace(node, evidence=node.evidence + tuple(facts))
    return replace(plan, nodes=nodes)


def reset_for_revisit(plan: DagPlan, task_id: str) -> tuple[DagPlan, list[dict]]:
    """Revert an answered task and every answered descendant to pending.

    Returns the new plan plus ``{"task_id", "old_answer"}`` records for the
    discarded answers (target first, then descendants in task-id order) so
    the register can archive them. Evidence is cleared on the revisited task
    only: descendants keep their facts, which may still be valid.
    """
    node = plan.task(task_id)
    if node.status != ANSWERED:
        raise ProtocolError(f'task "{task_id}" has no answer to revisit')
    to_reset = [task_id] + sorted(
        tid for tid in plan.descendants(task_id) if plan.nodes[tid].status == ANSWERED
    )
    nodes = dict(plan.nodes)
    discarded = []
    for tid in to_reset:
        old = nodes[tid]
        discarded.append({"task_id": tid, "old_answer": old.answer})
        evidence = () if tid == task_id else old.evidence
        nodes[tid] = replace(old, status=PENDING, answer=None, evidence=evidence)
    return replace(plan, nodes=nodes), discarded


def is_complete(plan: DagPlan) -> bool:
    return all(node.status == ANSWERED for node in plan.nodes.values())

