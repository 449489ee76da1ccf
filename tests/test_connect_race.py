"""Concurrent first requests share one connection.

Both multiplexing clients — the router's :class:`BackendLink` and
:class:`AsyncEvalClient` — connect lazily on the first request.  Two
requests fired together before any connection exists must open exactly
one connection and both be answered; a second connection would start a
second read loop on the same stream, which then dies with
``readuntil() called while another coroutine is already waiting``.
"""

import asyncio

from repro.router.backends import BackendLink
from repro.serve import protocol
from repro.serve.client import AsyncEvalClient


class StubServer:
    """Answers every newline-JSON request with an ok row; counts accepts."""

    def __init__(self):
        self.accepted = 0
        self.server = None
        self.host = None
        self.port = None

    async def __aenter__(self):
        self.server = await asyncio.start_server(
            self._handle, "127.0.0.1", 0)
        self.host, self.port = self.server.sockets[0].getsockname()[:2]
        return self

    async def __aexit__(self, *exc):
        self.server.close()
        await self.server.wait_closed()

    async def _handle(self, reader, writer):
        self.accepted += 1
        try:
            while line := await reader.readline():
                payload = protocol.decode_message(line)
                writer.write(protocol.encode_message({
                    "v": protocol.PROTOCOL_VERSION,
                    "status": protocol.STATUS_OK,
                    "request_id": payload.get("request_id", ""),
                    "result": {"echo": payload.get("request_id")}}))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()


def test_backend_link_opens_one_connection_for_concurrent_first_requests():
    async def scenario():
        async with StubServer() as server:
            link = BackendLink(server.host, server.port)
            try:
                answers = await asyncio.wait_for(asyncio.gather(
                    link.request({"op": protocol.OP_PING,
                                  "request_id": "a"}),
                    link.request({"op": protocol.OP_PING,
                                  "request_id": "b"})), timeout=10)
            finally:
                await link.close()
            return server.accepted, answers

    accepted, answers = asyncio.run(scenario())
    assert accepted == 1
    assert [a["result"]["echo"] for a in answers] == ["a", "b"]


def test_async_client_opens_one_connection_for_concurrent_first_requests():
    async def scenario():
        async with StubServer() as server:
            client = AsyncEvalClient(server.host, server.port)
            try:
                answers = await asyncio.wait_for(asyncio.gather(
                    client.stats(), client.stats()), timeout=10)
            finally:
                await client.close()
            return server.accepted, answers

    accepted, answers = asyncio.run(scenario())
    assert accepted == 1
    assert sorted(a["echo"] for a in answers) == ["r1", "r2"]
