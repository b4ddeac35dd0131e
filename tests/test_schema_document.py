"""The shipped schema document must agree with the runtime validators.

jsonschema acts as the independent side of the check: every payload the
runtime validators accept must satisfy the shipped JSON Schema, and the
mutations the validators reject must fail it too (for the structural cases
JSON Schema can express).
"""

import json
import random
from importlib import resources

import jsonschema
import pytest

from dagsearch.protocol import PAYLOAD_FIELDS, ActionKind, subspace_of
from helpers import DATA_DIR, random_action, random_payload


@pytest.fixture(scope="module")
def schema_doc():
    path = resources.files("dagsearch") / "schemas" / "actions.json"
    return json.loads(path.read_text(encoding="utf-8"))


def _validator(schema_doc, kind):
    schema = dict(schema_doc["actions"][kind.value]["payload"])
    schema["$defs"] = schema_doc["definitions"]
    resolved = json.loads(json.dumps(schema).replace("#/definitions/", "#/$defs/"))
    return jsonschema.Draft202012Validator(resolved)


def test_document_covers_all_eight_kinds(schema_doc):
    assert set(schema_doc["actions"]) == {kind.value for kind in ActionKind}


def test_subspace_labels_match_runtime_partition(schema_doc):
    for kind in ActionKind:
        assert schema_doc["actions"][kind.value]["subspace"] == subspace_of(kind)


def test_document_requires_exactly_each_kinds_fields_in_table_order(schema_doc):
    for kind, fields in PAYLOAD_FIELDS.items():
        payload = schema_doc["actions"][kind.value]["payload"]
        assert list(payload["properties"]) == payload["required"] == list(fields), kind
        assert payload["additionalProperties"] is False, kind


def test_golden_payloads_the_validators_accept_satisfy_shipped_schemas(schema_doc):
    with open(DATA_DIR / "payload_diagnostics.jsonl", encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    validators = {kind.value: _validator(schema_doc, kind) for kind in ActionKind}
    accepted = [record for record in records if record["diagnostic"] is None]
    assert accepted
    for record in accepted:
        validators[record["kind"]].validate(record["payload"])


def test_generated_payloads_satisfy_shipped_schemas(schema_doc):
    rng = random.Random(31337)
    for kind in ActionKind:
        validator = _validator(schema_doc, kind)
        for _ in range(50):
            payload = random_payload(rng, kind)
            validator.validate(payload)


def test_structural_mutations_fail_shipped_schemas_too(schema_doc):
    rng = random.Random(4242)
    for kind in ActionKind:
        validator = _validator(schema_doc, kind)
        payload = dict(random_action(rng, kind).payload)
        payload["unexpected_extra"] = True
        assert not validator.is_valid(payload)
        for missing in list(payload):
            if missing == "unexpected_extra":
                continue
            broken = {k: v for k, v in payload.items() if k not in (missing, "unexpected_extra")}
            assert not validator.is_valid(broken), (kind, missing)

