"""Request-reader parity: raw bytes in, one status out.

The reader takes the head in as few reads as the client's segments
allow and the body in one, all under a single deadline — and answers
every malformed, oversize, slow or abandoned request exactly as the
line-at-a-time reader did.  Each row is a list of segments written one
``drain`` apart, whether the client then half-closes, and the status it
must read back (``None``: the server says nothing and logs nothing).
"""

import asyncio
import json

import pytest

from repro.service import server as server_module

from .harness import running_service

MAX_BODY = 2048
BODY = json.dumps({"benchmark": "va"}).encode()  # valid JSON, invalid request
GET = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
OVERSIZE = b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * (17 * 1024)


def predict(content_length, body=BODY, eol=b"\r\n"):
    head = [b"POST /predict HTTP/1.1", b"Host: t"]
    head.append(b"Content-Length: " + str(content_length).encode())
    return eol.join(head) + eol + eol + body


CASES = {
    "well-formed": ([GET], False, 200),
    "body-in-its-own-segment": (
        [predict(len(BODY), body=b""), BODY], False, 400,  # "size is required"
    ),
    "oversize-head": ([OVERSIZE + b"\r\n\r\n"], False, 431),
    # Refused as soon as it is over the limit, not when the line ends.
    "oversize-head-unterminated": ([OVERSIZE], False, 431),
    "content-length-over-limit": ([predict(MAX_BODY + 1, b"")], False, 413),
    "short-body": ([predict(len(BODY) + 40)], True, 400),
    "non-numeric-content-length": ([predict("many")], False, 400),
    "negative-content-length": ([predict(-5)], False, 400),
    "two-token-request-line": ([b"GET /healthz\r\n\r\n"], False, 400),
    "bare-lf-line-endings": ([b"GET /healthz HTTP/1.1\nHost: t\n\n"], False, 200),
    "bare-lf-with-body": ([predict(len(BODY), eol=b"\n")], False, 400),
    "connect-and-close": ([], True, None),
    "head-trickled-bytewise": ([GET[i:i + 1] for i in range(len(GET))], False, 200),
    "head-never-finished": ([b"GET /healthz HTTP/1.1\r\nHost: t\r\n"], False, 400),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_request_reader_parity(name, tmp_path, monkeypatch):
    segments, half_close, expected = CASES[name]
    # Only the never-finished head waits the deadline out.
    monkeypatch.setattr(server_module, "_REQUEST_DEADLINE_S", 0.3)

    async def scenario():
        loop_errors = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: loop_errors.append(context)
        )
        async with running_service(tmp_path, max_body_bytes=MAX_BODY) as service:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            for segment in segments:
                writer.write(segment)
                await writer.drain()
                await asyncio.sleep(0.002)
            if half_close:
                writer.write_eof()
            raw = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
        assert not loop_errors, loop_errors
        return raw

    raw = asyncio.run(scenario())
    if expected is None:
        assert raw == b""
        return
    status_line, _, rest = raw.partition(b"\r\n")
    assert int(status_line.split()[1]) == expected, raw
    body = json.loads(rest.partition(b"\r\n\r\n")[2])
    if name == "head-never-finished":
        assert "timed out" in body["error"]
    if name in ("body-in-its-own-segment", "bare-lf-with-body"):
        # The whole body reached the validator: it names the missing field.
        assert "size" in body["error"]
