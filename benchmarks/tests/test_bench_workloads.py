"""Workload generators: determinism, seed sensitivity, and reply validity."""

import random

import pytest

from dagsearch.protocol import ProtocolError, parse_action
from workloads import DEFAULT_SIZES, MALFORMED_MODES, WORKLOADS, generate, malform, write_inputs

TINY = {"long_horizon": 6, "eval_batch": 3, "revise_churn": 2}


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_same_inputs(name):
    assert generate(name, 7, TINY[name]) == generate(name, 7, TINY[name])


@pytest.mark.parametrize("name", WORKLOADS)
def test_different_seeds_differ(name):
    a, b = generate(name, 1, TINY[name]), generate(name, 2, TINY[name])
    assert a.questions != b.questions
    # Structure is fixed by the size: only the content varies.
    assert [len(q.replies) - q.malformed.count(True) for q in a.questions] == [
        len(q.replies) - q.malformed.count(True) for q in b.questions
    ]


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_reply_parses_unless_meant_to_fail(name):
    workload = generate(name, 3, DEFAULT_SIZES[name])
    for q in workload.questions:
        assert len(q.replies) == len(q.malformed)
        for reply, bad in zip(q.replies, q.malformed):
            if bad:
                with pytest.raises(ProtocolError):
                    parse_action(reply)
            else:
                parse_action(reply)


def test_revise_churn_has_malformed_replies_never_two_in_a_row():
    (q,) = generate("revise_churn", 3, DEFAULT_SIZES["revise_churn"]).questions
    rate = q.malformed.count(True) / len(q.replies)
    assert 1 / 30 < rate < 1 / 8
    assert not any(a and b for a, b in zip(q.malformed, q.malformed[1:]))
    assert not any(q.malformed[:2]), "planning replies are never corrupted"


@pytest.mark.parametrize("mode", MALFORMED_MODES)
def test_each_malformation_is_rejected(mode):
    rng = random.Random(mode)
    (q,) = generate("long_horizon", 1, 4).questions
    for reply in q.replies:
        with pytest.raises(ProtocolError):
            parse_action(malform(rng, reply, mode))


def test_only_revise_churn_is_malformed():
    assert generate("long_horizon", 1, 8).malformed_replies == 0
    assert generate("eval_batch", 1, 3).malformed_replies == 0
    assert generate("revise_churn", 1, 3).malformed_replies > 0


def test_write_inputs_round_trip(tmp_path):
    workload = generate("eval_batch", 1, 3)
    paths = write_inputs(workload, tmp_path)
    assert all(path.is_file() for path in paths.values())
    assert (tmp_path / "corpus.jsonl").read_text(encoding="utf-8").count("\n") == len(workload.corpus)


def test_unknown_workload_and_bad_size():
    with pytest.raises(ValueError):
        generate("nope", 1)
    with pytest.raises(ValueError):
        generate("long_horizon", 1, 0)
