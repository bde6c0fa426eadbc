"""Protocol framing: round-trips and validation."""

import json

import pytest

from repro.serve.protocol import (
    ERROR_BAD_JSON,
    ERROR_BAD_REQUEST,
    ERROR_BAD_VERSION,
    ERROR_UNKNOWN_OP,
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_request,
    encode_frame,
    make_error,
    make_response,
)


class TestEncodeDecode:
    def test_round_trip_every_op(self):
        for i, op in enumerate(OPS):
            frame = {"v": PROTOCOL_VERSION, "id": i, "op": op, "x": [1, 2]}
            line = encode_frame(frame)
            assert line.endswith(b"\n") and line.count(b"\n") == 1
            rid, out_op, payload = decode_request(line.rstrip(b"\n"))
            assert rid == i
            assert out_op == op
            assert payload == {"x": [1, 2]}

    def test_encode_is_canonical(self):
        a = encode_frame({"b": 1, "a": 2})
        b = encode_frame({"a": 2, "b": 1})
        assert a == b  # sorted keys, compact separators

    def test_payload_excludes_envelope(self):
        line = encode_frame(
            {"v": PROTOCOL_VERSION, "id": 9, "op": "stats", "extra": True}
        )
        _, _, payload = decode_request(line.rstrip(b"\n"))
        assert "v" not in payload and "id" not in payload and "op" not in payload
        assert payload == {"extra": True}

    def test_response_round_trip(self):
        frame = make_response(3, "stats", {"ok_field": 1}, 0.0123)
        parsed = json.loads(encode_frame(frame))
        assert parsed["ok"] is True
        assert parsed["id"] == 3
        assert parsed["result"] == {"ok_field": 1}
        assert parsed["server_seconds"] == pytest.approx(0.0123)

    def test_error_round_trip(self):
        parsed = json.loads(encode_frame(make_error(4, ERROR_BAD_REQUEST, "nope")))
        assert parsed["ok"] is False
        assert parsed["id"] == 4
        assert parsed["error"] == {"code": ERROR_BAD_REQUEST, "message": "nope"}


class TestValidation:
    def _code(self, line: bytes) -> str:
        with pytest.raises(ProtocolError) as exc_info:
            decode_request(line)
        return exc_info.value.code

    def test_bad_json(self):
        assert self._code(b"{not json") == ERROR_BAD_JSON

    def test_bad_utf8(self):
        assert self._code(b"\xff\xfe") == ERROR_BAD_JSON

    def test_non_object(self):
        assert self._code(b"[1,2,3]") == ERROR_BAD_JSON

    def test_missing_version(self):
        assert self._code(b'{"op": "stats"}') == ERROR_BAD_VERSION

    def test_wrong_version(self):
        assert self._code(b'{"v": 99, "op": "stats"}') == ERROR_BAD_VERSION

    def test_missing_op(self):
        assert self._code(b'{"v": 1}') == ERROR_BAD_REQUEST

    def test_unknown_op(self):
        assert self._code(b'{"v": 1, "op": "frobnicate"}') == ERROR_UNKNOWN_OP

    def test_error_carries_request_id(self):
        with pytest.raises(ProtocolError) as exc_info:
            decode_request(b'{"v": 1, "id": 42, "op": "frobnicate"}')
        assert exc_info.value.request_id == 42

