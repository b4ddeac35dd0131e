import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagsearch.plan import (
    ANSWERED,
    PENDING,
    apply_task_answer,
    attach_evidence,
    build_plan,
    frontier,
    is_complete,
    mark_active,
    reset_for_revisit,
)
from dagsearch.protocol import ProtocolError, canonical_json, parse_action
from helpers import make_plan, random_dag


def diamond():
    return make_plan(
        [("t1", "first"), ("t2", "second"), ("t3", "join")],
        [("t1", "t3"), ("t2", "t3")],
    )


class TestBuild:
    def test_textbook_dag(self):
        plan = diamond()
        assert len(plan.nodes) == 3
        assert all(node.status == PENDING for node in plan.nodes.values())

    def test_cycle_rejected(self):
        with pytest.raises(ProtocolError, match="^dependency edges form a cycle through: t1, t2$"):
            make_plan([("t1", "a"), ("t2", "b")], [("t1", "t2"), ("t2", "t1")])

    def test_self_loop_rejected(self):
        with pytest.raises(ProtocolError, match="^dependency edges form a cycle through: t1$"):
            make_plan([("t1", "a")], [("t1", "t1")])

    def test_empty_rejected(self):
        with pytest.raises(ProtocolError, match="^a plan needs at least one task$"):
            make_plan([], [])

    def test_duplicate_task_id(self):
        with pytest.raises(ProtocolError, match='^task "t1" is declared more than once$'):
            make_plan([("t1", "a"), ("t1", "b")], [])

    def test_unknown_edge_endpoint(self):
        with pytest.raises(ProtocolError, match='^edge endpoint "t9" is not a declared task$'):
            make_plan([("t1", "a")], [("t1", "t9")])

    def test_accepts_framing_payload_shape(self):
        plan = build_plan(
            [{"task_id": "t1", "description": "a"}, {"task_id": "t2", "description": "b"}],
            [["t1", "t2"]],
            plan_id=3,
        )
        assert plan.plan_id == 3
        assert plan.edges == (("t1", "t2"),)


class TestFrontier:
    def test_roots_first(self):
        assert frontier(diamond()) == ["t1", "t2"]

    def test_join_unlocks(self):
        plan = apply_task_answer(diamond(), [("t1", "a"), ("t2", "b")])
        assert frontier(plan) == ["t3"]

    def test_complete_plan_has_empty_frontier(self):
        plan = apply_task_answer(diamond(), [("t1", "a"), ("t2", "b"), ("t3", "c")])
        assert frontier(plan) == []

    def test_active_tasks_stay_in_frontier(self):
        plan = mark_active(diamond(), "t1")
        assert frontier(plan) == ["t1", "t2"]

    def test_deterministic_for_equal_plans(self):
        assert frontier(diamond()) == frontier(diamond())


class TestApplyAnswer:
    def test_dependency_unmet(self):
        plan = make_plan([("t1", "a"), ("t3", "b")], [("t1", "t3")])
        with pytest.raises(ProtocolError, match=r'^task "t3" depends on unanswered task\(s\): t1$'):
            apply_task_answer(plan, [("t3", "early")])

    def test_answer_root(self):
        plan = apply_task_answer(diamond(), [("t1", "1950")])
        assert plan.nodes["t1"].status == ANSWERED
        assert plan.nodes["t1"].answer == "1950"
        assert frontier(plan) == ["t2"]

    def test_unknown_task(self):
        with pytest.raises(ProtocolError, match='^task "t9" is not in the current plan$'):
            apply_task_answer(diamond(), [("t9", "x")])

    def test_already_answered(self):
        plan = apply_task_answer(diamond(), [("t1", "a")])
        with pytest.raises(ProtocolError, match='^task "t1" is already answered; use revisit_task to redo it$'):
            apply_task_answer(plan, [("t1", "again")])

    def test_batch_is_sequential(self):
        chain = make_plan([("t1", "a"), ("t2", "b")], [("t1", "t2")])
        plan = apply_task_answer(chain, [("t1", "x"), ("t2", "y")])
        assert is_complete(plan)
        with pytest.raises(ProtocolError, match=r'^task "t2" depends on unanswered task\(s\): t1$'):
            apply_task_answer(chain, [("t2", "y"), ("t1", "x")])

    def test_input_plan_is_untouched(self):
        plan = diamond()
        apply_task_answer(plan, [("t1", "a")])
        assert plan.nodes["t1"].status == PENDING


class TestRevisit:
    def test_chain_reset_includes_descendants(self):
        chain = make_plan([("t1", "a"), ("t2", "b")], [("t1", "t2")])
        answered = apply_task_answer(chain, [("t1", "x"), ("t2", "y")])
        plan, discarded = reset_for_revisit(answered, "t1")
        assert plan.nodes["t1"].status == PENDING
        assert plan.nodes["t2"].status == PENDING
        assert discarded == [
            {"task_id": "t1", "old_answer": "x"},
            {"task_id": "t2", "old_answer": "y"},
        ]

    def test_revisit_pending_task(self):
        with pytest.raises(ProtocolError, match='^task "t1" has no answer to revisit$'):
            reset_for_revisit(diamond(), "t1")

    def test_revisit_unknown_task(self):
        with pytest.raises(ProtocolError, match='^task "t9" is not in the current plan$'):
            reset_for_revisit(diamond(), "t9")

    def test_leaf_reset_touches_only_itself(self):
        plan = apply_task_answer(diamond(), [("t1", "a"), ("t2", "b"), ("t3", "c")])
        plan, discarded = reset_for_revisit(plan, "t3")
        assert [d["task_id"] for d in discarded] == ["t3"]
        assert plan.nodes["t1"].status == ANSWERED

    def test_unanswered_descendants_stay_untouched(self):
        chain = make_plan([("t1", "a"), ("t2", "b")], [("t1", "t2")])
        answered = apply_task_answer(chain, [("t1", "x")])
        plan, discarded = reset_for_revisit(answered, "t1")
        assert [d["task_id"] for d in discarded] == ["t1"]
        assert plan.nodes["t2"].status == PENDING

    def test_evidence_cleared_on_target_only(self):
        chain = make_plan([("t1", "a"), ("t2", "b")], [("t1", "t2")])
        chain = attach_evidence(chain, "t1", ["f1"])
        chain = attach_evidence(chain, "t2", ["f2"])
        answered = apply_task_answer(chain, [("t1", "x"), ("t2", "y")])
        plan, _ = reset_for_revisit(answered, "t1")
        assert plan.nodes["t1"].evidence == ()
        assert plan.nodes["t2"].evidence == ("f2",)


class TestComplete:
    def test_fresh_plan(self):
        assert not is_complete(diamond())

    def test_all_answered(self):
        plan = apply_task_answer(diamond(), [("t1", "a"), ("t2", "b"), ("t3", "c")])
        assert is_complete(plan)

    def test_one_pending_of_five(self):
        plan = make_plan([(f"t{i}", "d") for i in range(1, 6)], [])
        plan = apply_task_answer(plan, [(f"t{i}", "a") for i in range(1, 5)])
        assert not is_complete(plan)


def oracle_reachable(edges, start):
    out = {}
    for src, dst in edges:
        out.setdefault(src, []).append(dst)
    seen, stack = set(), [start]
    while stack:
        for nxt in out.get(stack.pop(), []):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


class TestSmallInstanceOracles:
    """Exhaustive comparisons against brute force on small random DAGs."""

    def test_accepted_orders_are_exactly_topological_prefixes(self):
        rng = random.Random(101)
        for _ in range(60):
            n = rng.randint(1, 6)
            ids, edges = random_dag(rng, n, rng.choice([0.2, 0.5, 0.8]))
            plan0 = make_plan([(tid, "d") for tid in ids], edges)
            preds = {tid: {s for s, d in edges if d == tid} for tid in ids}
            seen = {frozenset()}
            stack = [(plan0, frozenset())]
            while stack:
                plan, answered = stack.pop()
                for tid in ids:
                    try:
                        new_plan = apply_task_answer(plan, [(tid, "a")])
                        accepted = True
                    except ProtocolError:
                        accepted = False
                    expected = tid not in answered and preds[tid] <= answered
                    assert accepted == expected, (ids, edges, sorted(answered), tid)
                    if accepted:
                        new_set = answered | {tid}
                        if new_set not in seen:
                            seen.add(new_set)
                            stack.append((new_plan, new_set))

    def test_reset_matches_reachability(self):
        rng = random.Random(202)
        for _ in range(60):
            n = rng.randint(2, 6)
            ids, edges = random_dag(rng, n, rng.choice([0.3, 0.6]))
            plan = make_plan([(tid, "d") for tid in ids], edges)
            # ids order is topological by construction
            k = rng.randint(1, n)
            answered_ids = ids[:k]
            plan = apply_task_answer(plan, [(tid, "a") for tid in answered_ids])
            target = rng.choice(answered_ids)
            new_plan, discarded = reset_for_revisit(plan, target)
            expected = {target} | (oracle_reachable(edges, target) & set(answered_ids))
            assert {d["task_id"] for d in discarded} == expected
            for tid in ids:
                want = PENDING if tid in expected or tid not in answered_ids else ANSWERED
                assert new_plan.nodes[tid].status == want


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_answered_set_stays_downward_closed(seed):
    rng = random.Random(seed)
    ids, edges = random_dag(rng, rng.randint(1, 6), 0.4)
    plan = make_plan([(tid, "d") for tid in ids], edges)
    answered = set()
    for _ in range(rng.randint(0, 8)):
        choices = frontier(plan)
        if not choices:
            break
        tid = rng.choice(choices)
        plan = apply_task_answer(plan, [(tid, "a")])
        answered.add(tid)
    for src, dst in edges:
        if plan.nodes[dst].status == ANSWERED:
            assert plan.nodes[src].status == ANSWERED


@st.composite
def framing_payloads(draw):
    """Framing payloads over a small id alphabet.

    Duplicate ids, undeclared endpoints ("e"), an empty id, self-loops and
    longer cycles all occur.
    """
    ids = draw(st.lists(st.sampled_from("abcd"), max_size=5, unique=draw(st.booleans())))
    if ids and draw(st.integers(0, 7)) == 7:
        ids[draw(st.integers(0, len(ids) - 1))] = ""
    endpoint = st.sampled_from(ids + ["e"]) if draw(st.booleans()) or not ids else st.sampled_from(ids)
    edges = draw(st.lists(st.lists(endpoint, min_size=2, max_size=2), max_size=6))
    return {"tasks": [{"task_id": tid, "description": "d"} for tid in ids], "edges": edges}


def oracle_graph_ok(payload):
    """Brute force: non-empty unique ids, declared endpoints, no cycle (DFS)."""
    ids = [task["task_id"] for task in payload["tasks"]]
    if not ids or "" in ids or len(set(ids)) != len(ids):
        return False
    if any(endpoint not in ids for edge in payload["edges"] for endpoint in edge):
        return False
    out = {tid: [dst for src, dst in payload["edges"] if src == tid] for tid in ids}
    state = {}  # "open" while on the DFS path, "done" once fully explored

    def has_cycle(tid):
        state[tid] = "open"
        for nxt in out[tid]:
            if state.get(nxt) == "open" or (nxt not in state and has_cycle(nxt)):
                return True
        state[tid] = "done"
        return False

    return not any(tid not in state and has_cycle(tid) for tid in ids)


@settings(max_examples=400, deadline=None)
@given(framing_payloads(), st.sampled_from(["problem_framing", "replanning"]))
def test_graph_rules_accept_exactly_the_oracle_graphs(payload, tag):
    if tag == "replanning":
        payload = {"reason": "r", **payload}
    try:
        action = parse_action(f"<{tag}>{canonical_json(payload)}</{tag}>")
        build_plan(action.payload["tasks"], action.payload["edges"])
    except ProtocolError:
        accepted = False
    else:
        accepted = True
    assert accepted == oracle_graph_ok(payload)
