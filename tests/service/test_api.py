"""Wire-schema validation: every malformed /predict body is a 400 that
names the offending field; valid bodies map 1:1 onto RunRequests."""

import json

import pytest

from repro.service.api import (
    MRC_METHODS,
    ApiError,
    parse_prediction_request,
)


def body(**fields):
    return json.dumps(fields).encode()


class TestValidBodies:
    def test_minimal_sim(self):
        request = parse_prediction_request(
            body(kind="sim", benchmark="va", size=8)
        )
        assert request.kind == "sim"
        assert request.benchmark == "va"
        assert request.size == 8
        assert request.work_scale == 1.0
        assert request.deadline_s is None
        run = request.run_request
        assert run.key and run.spec.abbr == "va"

    def test_defaults_kind_sim_and_method_stack(self):
        request = parse_prediction_request(body(benchmark="va", size=8))
        assert request.kind == "sim" and request.method == "stack"

    def test_mrc_with_method(self):
        for method in MRC_METHODS:
            request = parse_prediction_request(
                body(kind="mrc", benchmark="va", method=method)
            )
            assert request.size == 0 and request.method == method

    def test_full_request_round_trips(self):
        request = parse_prediction_request(
            body(
                kind="mcm", benchmark="bfs", size=4, work_scale=0.5,
                seed=7, weak=True, deadline_s=2.5,
                idempotency_key="retry-token-1",
            )
        )
        assert request.weak is True
        assert request.deadline_s == 2.5
        assert request.idempotency_key == "retry-token-1"

    def test_distinct_configs_get_distinct_keys(self):
        first = parse_prediction_request(body(benchmark="va", size=8))
        second = parse_prediction_request(body(benchmark="va", size=8, seed=1))
        assert first.run_request.key != second.run_request.key


class TestRejectedBodies:
    @pytest.mark.parametrize(
        "raw, needle",
        [
            (b"not json", "not valid JSON"),
            (b"[1, 2]", "JSON object"),
            (b'{"benchmrk": "va"}', "benchmrk"),
            (b'{"kind": "magic", "benchmark": "va"}', "kind"),
            (b'{"kind": "sim"}', "benchmark"),
            (b'{"benchmark": "nosuchbench", "size": 8}', "nosuchbench"),
            (b'{"benchmark": "va"}', "size"),
            (b'{"benchmark": "va", "size": true}', "size"),
            (b'{"benchmark": "va", "size": 99999}', "size"),
            (b'{"kind": "mrc", "benchmark": "va", "size": 8}', "mrc"),
            (b'{"benchmark": "va", "size": 8, "work_scale": 0}', "work_scale"),
            (b'{"benchmark": "va", "size": 8, "seed": -1}', "seed"),
            (b'{"benchmark": "va", "size": 8, "method": "guess"}', "method"),
            (b'{"benchmark": "va", "size": 8, "deadline_s": 0}', "deadline_s"),
            (b'{"benchmark": "va", "size": 8, "deadline_s": "soon"}',
             "deadline_s"),
            (b'{"benchmark": "va", "size": 8, "weak": "yes"}', "weak"),
            (b'{"benchmark": "va", "size": 8, "idempotency_key": ""}',
             "idempotency_key"),
        ],
    )
    def test_rejection_names_the_field(self, raw, needle):
        with pytest.raises(ApiError, match=needle) as excinfo:
            parse_prediction_request(raw)
        assert excinfo.value.status == 400

    def test_oversized_idempotency_key(self):
        with pytest.raises(ApiError, match="idempotency_key"):
            parse_prediction_request(
                body(benchmark="va", size=8, idempotency_key="x" * 257)
            )
