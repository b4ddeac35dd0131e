"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import random
import time

import pytest

from dagsearch.plan import apply_task_answer, reset_for_revisit
from dagsearch.protocol import ActionKind, ProtocolError, parse_action
from dagsearch.trajectory import export_sft, rft_filter, step_cache_ratios
from helpers import (
    COMPLIANT_KINDS,
    fixture_registry,
    make_action,
    make_plan,
    make_trajectory,
    mutate_action,
    random_action,
    random_dag,
    run_twenty_turn,
    run_two_hop,
)
from oracles import cache_ratio, context_compactness, rebuild_registers

K = ActionKind


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {criterion}{suffix}", flush=True)


@pytest.fixture(scope="module")
def twenty_turn_result():
    return run_twenty_turn()


def test_criterion_1_protocol_round_trip_and_mutations():
    start = time.perf_counter()
    rng = random.Random(1001)
    for _ in range(1000):
        action = random_action(rng)
        assert parse_action(make_action(action.kind, action.payload).raw_text) == action
    typed = 0
    for _ in range(200):
        action = random_action(rng)
        text, expected = mutate_action(rng, action)
        try:
            parse_action(text)
        except ProtocolError as exc:
            if expected not in str(exc):  # rejected, but not with the diagnostic the mutation promises
                raise AssertionError(f"{text!r} raised {exc}, wanted {expected!r}")
            typed += 1
    elapsed = time.perf_counter() - start
    ok = typed == 200 and elapsed < 5.0
    _report(
        "criterion 1: 1000 round-trips + 200 mutations -> typed errors",
        ok,
        f"{elapsed:.2f}s",
    )
    assert typed == 200
    assert elapsed < 5.0


def test_criterion_2_dag_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(2002)
    grid = [0.1, 0.3, 0.5, 0.7, 0.9]
    instances = 0
    for p in grid:
        for _ in range(100):
            n = rng.randint(1, 6)
            ids, edges = random_dag(rng, n, p)
            instances += 1
            plan0 = make_plan([(tid, "d") for tid in ids], edges)
            preds = {tid: {s for s, d in edges if d == tid} for tid in ids}

            # every accepted extension from every reachable answered-set must
            # agree with the topological-prefix oracle
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

            # reset set must equal brute-force descendant reachability
            out = {}
            for src, dst in edges:
                out.setdefault(src, []).append(dst)

            def reachable(node):
                found, frontier_ = set(), [node]
                while frontier_:
                    for nxt in out.get(frontier_.pop(), []):
                        if nxt not in found:
                            found.add(nxt)
                            frontier_.append(nxt)
                return found

            k = rng.randint(1, n)
            answered_ids = ids[:k]  # ids order is topological by construction
            plan = apply_task_answer(plan0, [(tid, "a") for tid in answered_ids])
            target = rng.choice(answered_ids)
            _, discarded = reset_for_revisit(plan, target)
            expected_reset = {target} | (reachable(target) & set(answered_ids))
            assert {d["task_id"] for d in discarded} == expected_reset

    elapsed = time.perf_counter() - start
    ok = instances >= 500 and elapsed < 30.0
    _report(
        "criterion 2: DAG oracle equivalence on sampled instances",
        ok,
        f"{instances} instances, {elapsed:.2f}s",
    )
    assert instances >= 500
    assert elapsed < 30.0


def test_criterion_3_register_determinism(tmp_path):
    results = [run_two_hop() for _ in range(3)]
    for i, r in enumerate(results):
        r.trajectory.save(tmp_path / f"run{i}.jsonl")
    run_dumps = [(tmp_path / f"run{i}.jsonl").read_bytes() for i in range(3)]
    registers = [rebuild_registers(r.trajectory) for r in results]
    ok = (
        run_dumps[0] == run_dumps[1] == run_dumps[2]
        and registers[0] == registers[1] == registers[2]
        and all(r.outcome == "answered" for r in results)
    )
    _report(
        "criterion 3: two-hop fixture replayed 3x is byte-identical, with equal registers",
        ok,
        f"{len(registers[0])} registers per run",
    )
    assert ok


def test_criterion_4_positional_constraint_enforcement():
    rng = random.Random(4004)
    solving_kinds = [K.TOOL_CALL, K.DOC_EXTRACTION, K.TASK_ANSWER, K.REVISIT_TASK, K.REPLANNING]

    def compliant(length):
        middle = [rng.choice(solving_kinds) for _ in range(length - 3)]
        return [K.INTENT_REFINEMENT, K.PROBLEM_FRAMING] + middle + [K.FINAL_ANSWER]

    rejected = accepted = 0
    violating = []
    for _ in range(40):
        kinds = compliant(rng.randint(4, 10))
        kinds[0] = rng.choice(solving_kinds)
        violating.append(kinds)
    for _ in range(40):
        kinds = compliant(rng.randint(4, 10))
        kinds[1] = rng.choice(solving_kinds)
        violating.append(kinds)
    for _ in range(40):
        kinds = compliant(rng.randint(4, 10))
        kinds[-1] = rng.choice(solving_kinds)
        violating.append(kinds)
    for _ in range(40):
        kinds = compliant(rng.randint(5, 10))
        kinds[rng.randint(2, len(kinds) - 2)] = rng.choice(
            [K.INTENT_REFINEMENT, K.PROBLEM_FRAMING]
        )
        violating.append(kinds)
    for _ in range(40):
        kinds = compliant(rng.randint(5, 10))
        kinds[rng.randint(2, len(kinds) - 2)] = K.FINAL_ANSWER
        violating.append(kinds)

    for kinds in violating:
        if rft_filter(make_trajectory(kinds), ["x"]) is not None:
            rejected += 1

    compliant_count = 60
    for _ in range(compliant_count):
        kinds = compliant(rng.randint(4, 12))
        if rft_filter(make_trajectory(kinds), ["x"]) is None:
            accepted += 1

    ok = rejected == len(violating) and accepted == compliant_count
    _report(
        "criterion 4: positional constraints enforced by the rejection filter",
        ok,
        f"{rejected}/{len(violating)} violators rejected, {accepted}/{compliant_count} compliant accepted",
    )
    assert rejected == len(violating)
    assert accepted == compliant_count


def test_criterion_5_context_compactness(twenty_turn_result):
    assert twenty_turn_result.outcome == "answered"
    solving = twenty_turn_result.trajectory.solving_steps()
    assert len(solving) == 20
    report = context_compactness(twenty_turn_result.trajectory)
    ok = report.ratio < 0.30
    _report(
        "criterion 5: register context at turn 20 < 30% of naive transcript",
        ok,
        f"{report.register_tokens} vs {report.transcript_tokens} tokens = {report.ratio:.1%}",
    )
    assert ok


def test_criterion_6_cache_ratio(twenty_turn_result):
    assert cache_ratio([5, 7, 9], [5, 7, 9, 2, 4]) == 0.6
    assert cache_ratio([1, 2, 3], [1, 2, 3]) == 1.0
    assert cache_ratio([9, 1], [1, 1]) == 0.0
    ratios = step_cache_ratios(twenty_turn_result.trajectory)
    # ratios[i] compares solving turns i+1 and i+2; turns 5..20 are ratios[3:]
    window = ratios[3:]
    assert len(window) == 16
    mean = sum(window) / len(window)
    ok = mean >= 0.80
    _report(
        "criterion 6: mean cache ratio over turns 5-20 >= 0.80",
        ok,
        f"mean {mean:.3f}",
    )
    assert ok


def test_criterion_7_budget_discipline(twenty_turn_result):
    two_hop = run_two_hop()
    all_steps = two_hop.trajectory.steps + twenty_turn_result.trajectory.steps
    max_tokens = max(step.token_count for step in all_steps)
    registry = fixture_registry()
    doc_counts = {
        len(registry.invoke("search", {"query": q}).documents)
        for q in ("University of Oxford", "World Wide Web", "unrelated nonsense query")
    }
    recorded_counts = {
        len(step.tool_result.documents)
        for step in all_steps
        if step.tool_result is not None
    }
    ok = max_tokens <= 32_000 and doc_counts == {3} and recorded_counts == {3}
    _report(
        "criterion 7: contexts <= 32000 tokens, retrieval returns exactly 3 docs",
        ok,
        f"max context {max_tokens} tokens",
    )
    assert max_tokens <= 32_000
    assert doc_counts == {3}
    assert recorded_counts == {3}


def test_criterion_8_export_arithmetic(tmp_path):
    eight_step = make_trajectory(
        [
            K.INTENT_REFINEMENT,
            K.PROBLEM_FRAMING,
            K.TOOL_CALL,
            K.DOC_EXTRACTION,
            K.TOOL_CALL,
            K.DOC_EXTRACTION,
            K.TASK_ANSWER,
            K.FINAL_ANSWER,
        ]
    )
    assert len(eight_step.steps) == 8
    out = tmp_path / "single.jsonl"
    count = export_sft([eight_step], out)
    single_ok = count == 8 and len(out.read_text().splitlines()) == 8

    rng = random.Random(8008)
    mixed = []
    for _ in range(4):
        middle = [rng.choice([K.TOOL_CALL, K.DOC_EXTRACTION, K.TASK_ANSWER]) for _ in range(rng.randint(1, 6))]
        mixed.append(
            make_trajectory(
                [K.INTENT_REFINEMENT, K.PROBLEM_FRAMING] + middle + [K.FINAL_ANSWER]
            )
        )
    mixed.append(make_trajectory(COMPLIANT_KINDS, retries_at=(3,)))
    mixed.append(make_trajectory(COMPLIANT_KINDS, answer="wrong value"))
    mixed.append(make_trajectory([K.TOOL_CALL] + COMPLIANT_KINDS[1:]))
    mixed.append(make_trajectory(COMPLIANT_KINDS[:-1], outcome="budget_exhausted"))
    mixed.append(make_trajectory(COMPLIANT_KINDS[:2] + [K.FINAL_ANSWER, K.TASK_ANSWER, K.FINAL_ANSWER]))
    mixed.append(make_trajectory(COMPLIANT_KINDS))
    assert len(mixed) == 10

    accepted = [t for t in mixed if rft_filter(t, ["x"]) is None]
    rejected = len(mixed) - len(accepted)
    out2 = tmp_path / "mixed.jsonl"
    count2 = export_sft(accepted, out2)
    expected = sum(len(t.steps) for t in accepted)
    mixed_ok = (
        len(accepted) == 5
        and rejected == 5
        and count2 == expected
        and len(out2.read_text().splitlines()) == expected
    )
    ok = single_ok and mixed_ok
    _report(
        "criterion 8: export record accounting",
        ok,
        f"8-step -> {count}; mixed: {len(accepted)} accepted -> {count2} records",
    )
    assert single_ok
    assert mixed_ok
