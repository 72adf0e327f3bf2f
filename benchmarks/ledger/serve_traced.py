"""``python -m repro serve`` with the ledger's layer spans installed.

``python -m benchmarks.ledger.serve_traced LAYERS.json TRACE.jsonl serve ...``
wraps the server's layers, runs the ordinary ``repro serve`` command line
until SIGTERM drains it, then writes the per-layer figures to
``LAYERS.json`` and the spans to ``TRACE.jsonl``.

Layers: ``serve.decode`` (frame parse and request decode),
``serve.decide_many`` (one batched policy call, with ``rl.forward`` inside),
``serve.encode`` (reply framing) and ``serve.idle`` (the event loop waiting
in its selector).  Queue wait is the time from a request's decode to the
start of the batch that answers it.  Everything else the server does in the
measured window -- asyncio dispatch, stream reads and writes, batching
logic -- is the unattributed share.
"""

from __future__ import annotations

import json
import selectors
import sys
import time
from typing import Any, Dict, List, Tuple

from benchmarks.ledger.layers import SpanRecorder, batch_size, ratio


def _frame(args: tuple, result: Any) -> Tuple[float, float]:
    # frames are not requests: serve.decode_us is per decoded request
    return 0.0, float(len(args[0]))


def main(argv: List[str]) -> int:
    layers_path, trace_path, serve_argv = argv[0], argv[1], argv[2:]
    import repro.serve.server as server_mod
    from repro import cli
    from repro.nn import fusion
    from repro.policy.api import AgentPolicy
    from repro.rl.agent import ReadysAgent
    from repro.serve import protocol

    recorder = SpanRecorder()
    recorder.wrap(selectors.DefaultSelector, "select", "serve.idle")
    recorder.wrap(protocol, "decode_frame", "serve.decode", _frame)
    recorder.wrap(server_mod, "decode_request", "serve.decode")
    recorder.wrap(protocol, "encode_frame", "serve.encode")
    recorder.wrap(AgentPolicy, "decide_many", "serve.decide_many", batch_size)
    recorder.wrap(ReadysAgent, "greedy_actions", "rl.forward", batch_size)
    recorder.wrap(ReadysAgent, "greedy_action", "rl.forward")

    # queue wait: stamp each decoded observation, read the stamp at the
    # start of the batch that answers it
    decoded_at: Dict[int, float] = {}
    waits: List[float] = []
    decode_request = server_mod.decode_request
    decide_many = AgentPolicy.decide_many

    def stamped_decode(payload: Dict[str, Any]) -> Any:
        request = decode_request(payload)
        decoded_at[id(request.obs)] = time.perf_counter()
        return request

    def timed_decide_many(self: Any, obs_list: Any) -> Any:
        now = time.perf_counter()
        waits.extend(now - decoded_at.pop(id(o), now) for o in obs_list)
        return decide_many(self, obs_list)

    server_mod.decode_request = stamped_decode
    AgentPolicy.decide_many = timed_decide_many

    recorder.enabled = True
    code = cli.main(serve_argv)
    recorder.enabled = False

    decodes = [s for s in recorder.spans if s[2] == "serve.decode"]
    encodes = [s for s in recorder.spans if s[2] == "serve.encode"]
    window = (decodes[0][3], encodes[-1][4]) if decodes and encodes else (0.0, 0.0)
    totals, top = recorder.layer_totals(window)
    decode, decide = totals["serve.decode"], totals["serve.decide_many"]
    forward = totals["rl.forward"]
    layers = {
        "serve.decode_us": ratio(decode["total"], decode["items"], 1e6),
        "serve.decide_many_us": ratio(decide["total"], decide["calls"], 1e6),
        "serve.queue_wait_ms": ratio(sum(waits), len(waits), 1e3),
        "rl.forward.us": ratio(forward["total"], forward["calls"], 1e6),
        "rl.forward.obs_per_call": ratio(forward["items"], forward["calls"]),
        "nn.fusion.loaded": 1.0 if fusion.load() is not None else 0.0,
        "attr.unattributed_frac": 1.0 - ratio(top, window[1] - window[0]),
    }
    with open(layers_path, "w") as fh:
        json.dump(layers, fh)
    recorder.write_jsonl(trace_path, {"server": serve_argv, "layers": layers})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
