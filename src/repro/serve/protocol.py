"""Request/response dataclasses and the newline-JSON wire codec.

One connection carries a sequence of newline-delimited JSON objects.
Requests carry an ``op`` ("eval", "stats", "ping"); responses carry a
``status`` (:data:`STATUS_OK`, :data:`STATUS_TIMEOUT`, :data:`STATUS_SHED`,
:data:`STATUS_ERROR`) plus the echoed ``request_id`` so clients can
pipeline.  The codec is intentionally dumb — plain :mod:`json`, no
pickle — so any language can speak it.

Two derived keys drive the batching layer:

* :meth:`EvalRequest.sim_key` — the canonical identity of one
  simulation; requests with equal sim keys are satisfied by a single
  execution (dedup);
* :meth:`EvalRequest.trace_key` — the identity of the functional trace
  ``(workload, instructions, seed)``; sim groups sharing a trace key are
  shipped to one worker invocation so the in-process
  :class:`~repro.harness.runner.WorkloadCache` computes the trace once.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import ClassVar

from repro.core.simconfig import CheckMode
from repro.cpu.presets import parse_checkers
from repro.faults.engine import CampaignSpec

PROTOCOL_VERSION = 1

#: Maximum accepted line length (a trace never travels over the wire,
#: so anything bigger than this is a confused or hostile client).
MAX_LINE_BYTES = 1 << 20

OP_EVAL = "eval"
OP_CAMPAIGN = "campaign"
OP_STATS = "stats"
OP_PING = "ping"
#: Router-only op: describe the consistent-hash ring (shard addresses
#: and replica count) so clients can follow it; plain serve backends
#: reject it as unknown.
OP_RING = "ring"
KNOWN_OPS = (OP_EVAL, OP_CAMPAIGN, OP_STATS, OP_PING, OP_RING)

STATUS_OK = "ok"
STATUS_TIMEOUT = "timeout"
STATUS_SHED = "shed"
STATUS_ERROR = "error"
KNOWN_STATUSES = (STATUS_OK, STATUS_TIMEOUT, STATUS_SHED, STATUS_ERROR)

DEFAULT_INSTRUCTIONS = 20_000
DEFAULT_SEED = 7
DEFAULT_MODE = "full"

#: Fields that determine the simulated outcome (everything except
#: delivery metadata such as ``request_id`` and ``timeout_s``).
_SIM_FIELDS = ("workload", "backend", "checkers", "mode", "hash_mode",
               "instructions", "seed", "fault_trials")


class ProtocolError(ValueError):
    """A malformed or unsupported wire message."""


@dataclass(frozen=True)
class EvalRequest:
    """One evaluation query: a workload under one detection scheme.

    Exactly one of ``backend`` (a registry name, see ``paraverser
    backends``) or ``checkers`` (a pool spec such as ``"4xA510@2.0"``,
    interpreted with ``mode``/``hash_mode``) selects the scheme.
    ``fault_trials > 0`` additionally runs a stuck-at injection campaign
    against the scheme's configuration.
    """

    workload: str
    backend: str | None = None
    checkers: str | None = None
    mode: str = DEFAULT_MODE
    hash_mode: bool = False
    instructions: int = DEFAULT_INSTRUCTIONS
    seed: int = DEFAULT_SEED
    fault_trials: int = 0
    #: Per-request deadline in seconds (None: the service default).
    timeout_s: float | None = None
    request_id: str = ""

    def validate(self) -> None:
        if not self.workload or not isinstance(self.workload, str):
            raise ProtocolError("eval request needs a workload name")
        if (self.backend is None) == (self.checkers is None):
            raise ProtocolError(
                "eval request needs exactly one of backend/checkers")
        if self.checkers is not None and not isinstance(self.checkers, str):
            raise ProtocolError("checkers must be a pool spec string")
        try:
            if self.checkers is not None:
                parse_checkers(self.checkers)
            CheckMode(self.mode)
        except ValueError as exc:
            raise ProtocolError(f"bad eval request: {exc}") from None
        if self.instructions <= 0:
            raise ProtocolError("instructions must be positive")
        if self.fault_trials < 0:
            raise ProtocolError("fault_trials must be >= 0")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ProtocolError("timeout_s must be positive when given")

    def sim_spec(self) -> dict:
        """The executable subset of the request, as a plain dict."""
        data = asdict(self)
        return {name: data[name] for name in _SIM_FIELDS}

    def sim_key(self) -> str:
        """Canonical identity of the simulation this request asks for."""
        return json.dumps(self.sim_spec(), sort_keys=True)

    def trace_key(self) -> tuple[str, int, int]:
        """Identity of the functional trace the simulation replays."""
        return (self.workload, self.instructions, self.seed)


@dataclass(frozen=True)
class CampaignRequest(CampaignSpec):
    """One fault-injection campaign: a :class:`CampaignSpec` on the wire.

    Adds only delivery metadata (``timeout_s``, ``request_id``); the
    spec's construction-time validation surfaces as
    :class:`ProtocolError`.  Flows through the same admission queue and
    batching layer as :class:`EvalRequest` — it exposes the identical
    ``sim_key`` / ``sim_spec`` / ``trace_key`` surface — so long
    campaigns get the service's load-shedding, deadlines and
    crash-retry for free.  ``backend`` is fixed at ``None``: campaigns
    always run against a simulated checker configuration.
    """

    timeout_s: float | None = None
    request_id: str = ""

    backend: ClassVar[None] = None

    def __post_init__(self) -> None:
        try:
            super().__post_init__()
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ProtocolError("timeout_s must be positive when given")

    def sim_spec(self) -> dict:
        """The executable subset (every spec field, trials and
        ``trial_offset`` included: the row aggregates over exactly that
        window), tagged so workers branch on ``op``."""
        spec = self.to_json()
        spec["fault_kinds"] = list(spec["fault_kinds"])
        spec["op"] = OP_CAMPAIGN
        return spec

    def sim_key(self) -> str:
        """Canonical identity; equal campaigns dedup to one execution."""
        return json.dumps(self.sim_spec(), sort_keys=True)

    def trace_key(self) -> tuple[str, int, int]:
        """Same functional-trace identity as :class:`EvalRequest`, so
        campaigns batch with evals replaying the same trace."""
        return (self.workload, self.instructions, self.seed)


@dataclass(frozen=True)
class EvalResponse:
    """The service's answer to one request."""

    status: str
    request_id: str = ""
    result: dict | None = field(default=None)
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


# -- wire codec -------------------------------------------------------------

def encode_message(payload: dict) -> bytes:
    """One wire message: compact JSON + newline."""
    return json.dumps(payload, separators=(",", ":")).encode() + b"\n"


def decode_message(line: bytes | str) -> dict:
    """Parse one wire line; raises :class:`ProtocolError` on garbage."""
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError("wire message exceeds MAX_LINE_BYTES")
        try:
            line = line.decode()
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"non-UTF-8 wire message: {exc}") from None
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"bad JSON on the wire: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("wire message must be a JSON object")
    return payload


def request_to_wire(request: EvalRequest) -> dict:
    """Serialise a request, tagging op and protocol version."""
    payload = {"op": OP_EVAL, "v": PROTOCOL_VERSION}
    payload.update(asdict(request))
    return payload


def request_from_wire(payload: dict) -> EvalRequest:
    """Rebuild and validate an :class:`EvalRequest` from a wire dict."""
    op = payload.get("op", OP_EVAL)
    if op != OP_EVAL:
        raise ProtocolError(f"expected an eval request, got op {op!r}")
    version = payload.get("v", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version!r}")
    kwargs = {}
    for name in EvalRequest.__dataclass_fields__:
        if name in payload:
            kwargs[name] = payload[name]
    try:
        request = EvalRequest(**kwargs)
    except TypeError as exc:
        raise ProtocolError(f"bad eval request: {exc}") from None
    request.validate()
    return request


def campaign_to_wire(request: CampaignRequest) -> dict:
    """Serialise a campaign request, tagging op and protocol version."""
    payload = {"op": OP_CAMPAIGN, "v": PROTOCOL_VERSION}
    payload.update(asdict(request))
    payload["fault_kinds"] = list(request.fault_kinds)
    return payload


def campaign_from_wire(payload: dict) -> CampaignRequest:
    """Rebuild and validate a :class:`CampaignRequest` from a wire dict."""
    op = payload.get("op", OP_CAMPAIGN)
    if op != OP_CAMPAIGN:
        raise ProtocolError(f"expected a campaign request, got op {op!r}")
    version = payload.get("v", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version!r}")
    kwargs = {}
    for name in CampaignRequest.__dataclass_fields__:
        if name in payload:
            kwargs[name] = payload[name]
    try:
        return CampaignRequest(**kwargs)
    except TypeError as exc:
        raise ProtocolError(f"bad campaign request: {exc}") from None


def response_to_wire(response: EvalResponse) -> dict:
    payload = {"v": PROTOCOL_VERSION, "status": response.status,
               "request_id": response.request_id}
    if response.result is not None:
        payload["result"] = response.result
    if response.error:
        payload["error"] = response.error
    return payload


def response_from_wire(payload: dict) -> EvalResponse:
    status = payload.get("status")
    if status not in KNOWN_STATUSES:
        raise ProtocolError(f"unknown response status {status!r}")
    return EvalResponse(
        status=status,
        request_id=payload.get("request_id", ""),
        result=payload.get("result"),
        error=payload.get("error", ""),
    )


# -- canned responses -------------------------------------------------------

def ok_response(request: EvalRequest, result: dict) -> EvalResponse:
    return EvalResponse(STATUS_OK, request.request_id, result=result)


def shed_response(request: EvalRequest, depth: int) -> EvalResponse:
    return EvalResponse(
        STATUS_SHED, request.request_id,
        error=f"admission queue saturated (depth {depth}); retry later")


def timeout_response(request: EvalRequest) -> EvalResponse:
    return EvalResponse(
        STATUS_TIMEOUT, request.request_id,
        error="request deadline expired before a result was ready")


def error_response(request: EvalRequest, message: str) -> EvalResponse:
    return EvalResponse(STATUS_ERROR, request.request_id, error=message)
