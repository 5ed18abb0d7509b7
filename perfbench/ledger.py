"""The traced run's per-layer ledger.

While a :class:`Ledger` is active, ``repro.obs`` tracing is on and the
public entry points of each layer are wrapped, from this file, in spans
named ``bench.<layer>.<call>``:

==========  ==============================================================
streaming   ``StreamingForecaster.ingest`` / ``.forecast``
serving     ``ForecastService.submit`` / ``.flush``
plan        ``CompiledPredictor.predict``
cluster     ``ShardedForecaster`` / ``ProcessCoordinator`` ``.ingest`` /
            ``.forecast_all``
wire        ``repro.wire.send_message`` / ``recv_message`` (coordinator
            side) and the ``pack_message`` / ``unpack_message`` inside them
==========  ==============================================================

Worker processes cannot be wrapped from here; their time comes from the
``worker.<command>`` span trees that ``repro.obs`` already ships back in
replies.  Spans are drained after every operation and folded into running
totals (the recorder is a bounded ring), and the span trees of a few
operations are kept in memory and written as a Chrome trace at the end.

A layer span's *self time* is its duration minus the part of it covered
by the nearest layer spans below it.  Built-in spans in between
(``cluster.forecast_all``, ``service.flush``, ``plan.replay`` ...) are
transparent, and worker spans never count as coverage of coordinator
time: the coordinator is blocked in ``recv`` while a worker computes, and
that wait is the wire layer's.  The *unattributed remainder* of an
operation is its wall time minus the union of its top-level layer spans.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Tuple

from repro import obs, wire
from repro.cluster import ProcessCoordinator, ShardedForecaster
from repro.nn.plan import CompiledPredictor
from repro.serving import ForecastService
from repro.streaming import StreamingForecaster

LAYER_OF = {
    "bench.streaming.ingest": "streaming",
    "bench.streaming.forecast": "streaming",
    "bench.serving.submit": "serving",
    "bench.serving.flush": "serving",
    "bench.plan.predict": "plan",
    "bench.cluster.ingest": "cluster",
    "bench.cluster.forecast_all": "cluster",
    "bench.wire.send": "wire",
    "bench.wire.recv": "wire",
    "bench.wire.encode": "wire",
    "bench.wire.decode": "wire",
}
LEDGER_LAYERS = ("streaming", "serving", "plan", "cluster", "wire")
#: wire commands reported separately; their names in metric keys
COMMANDS = {"ingest": "ingest", "forecast_many": "forecast"}
#: operations whose full span trees are kept for the Chrome export
_KEEP_FIRST = 3
_KEEP_EVERY = 200


def _union_length(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


class _Totals:
    __slots__ = ("count", "duration", "self_time", "value")

    def __init__(self) -> None:
        self.count = 0
        self.duration = 0.0
        self.self_time = 0.0
        self.value = 0.0


class Ledger:
    """Install the wrappers and tracing; fold each operation's spans."""

    def __init__(self) -> None:
        self._patches: List[Tuple[object, str, object]] = []
        self._sent_command: Dict[int, str] = {}
        self._submitted: Dict[int, List[float]] = defaultdict(list)
        self.queue_wait = _Totals()
        self.spans = defaultdict(_Totals)     # local layer spans, by name
        self.remote = defaultdict(_Totals)    # worker-side spans, by name
        self.wire = defaultdict(_Totals)      # (command, part) -> totals
        self.layer_self = defaultdict(float)
        self.ops = 0
        self.op_seconds = 0.0
        self.attributed = 0.0
        self.dropped_ops = 0
        self.kept: List[Dict[str, object]] = []

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "Ledger":
        spanned = self._spanned
        for owner, attr, name in (
            (StreamingForecaster, "ingest", "bench.streaming.ingest"),
            (StreamingForecaster, "forecast", "bench.streaming.forecast"),
            (ShardedForecaster, "ingest", "bench.cluster.ingest"),
            (ShardedForecaster, "forecast_all", "bench.cluster.forecast_all"),
            (ProcessCoordinator, "ingest", "bench.cluster.ingest"),
            (ProcessCoordinator, "forecast_all", "bench.cluster.forecast_all"),
        ):
            self._patch(owner, attr, spanned(name, getattr(owner, attr)))
        self._patch(ForecastService, "submit", self._submit(ForecastService.submit))
        self._patch(ForecastService, "flush", self._flush(ForecastService.flush))
        self._patch(CompiledPredictor, "predict", self._predict(CompiledPredictor.predict))
        self._patch(wire, "pack_message", self._encode(wire.pack_message))
        self._patch(wire, "unpack_message", self._decode(wire.unpack_message))
        self._patch(wire, "send_message", self._send(wire.send_message))
        self._patch(wire, "recv_message", self._recv(wire.recv_message))
        obs.default_recorder().clear()
        obs.configure(tracing=True)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        obs.configure(tracing=False)
        obs.default_recorder().clear()
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # ------------------------------------------------------------------ #
    # Wrappers.
    # ------------------------------------------------------------------ #
    @staticmethod
    def _spanned(name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with obs.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _submit(self, fn):
        @functools.wraps(fn)
        def submit(service, *args, **kwargs):
            with obs.span("bench.serving.submit"):
                handle = fn(service, *args, **kwargs)
            self._submitted[id(service)].append(perf_counter())
            return handle

        return submit

    def _flush(self, fn):
        @functools.wraps(fn)
        def flush(service, *args, **kwargs):
            started = perf_counter()
            waits = self._submitted.pop(id(service), ())
            for submitted in waits:
                self.queue_wait.count += 1
                self.queue_wait.duration += started - submitted
            with obs.span("bench.serving.flush"):
                return fn(service, *args, **kwargs)

        return flush

    @staticmethod
    def _predict(fn):
        @functools.wraps(fn)
        def predict(predictor, x, *args, **kwargs):
            with obs.span("bench.plan.predict", batch=int(x.shape[0])):
                return fn(predictor, x, *args, **kwargs)

        return predict

    @staticmethod
    def _encode(fn):
        @functools.wraps(fn)
        def pack_message(message):
            with obs.span("bench.wire.encode") as span:
                payload = fn(message)
                span.args["bytes"] = len(payload)
                return payload

        return pack_message

    @staticmethod
    def _decode(fn):
        @functools.wraps(fn)
        def unpack_message(payload):
            with obs.span("bench.wire.decode", bytes=len(payload)):
                return fn(payload)

        return unpack_message

    def _send(self, fn):
        @functools.wraps(fn)
        def send_message(sock, message):
            command = str(message.get("cmd")) if isinstance(message, dict) else "?"
            self._sent_command[id(sock)] = command
            with obs.span("bench.wire.send", cmd=command, sock=id(sock)):
                return fn(sock, message)

        return send_message

    def _recv(self, fn):
        @functools.wraps(fn)
        def recv_message(sock, timeout=None):
            command = self._sent_command.get(id(sock), "?")
            with obs.span("bench.wire.recv", cmd=command, sock=id(sock)):
                return fn(sock, timeout=timeout)

        return recv_message

    # ------------------------------------------------------------------ #
    # Folding.
    # ------------------------------------------------------------------ #
    def collect(self, op: int, op_seconds: float) -> None:
        """Fold the spans one operation produced into the running totals."""
        recorder = obs.default_recorder()
        spans = recorder.spans()
        recorder.clear()
        if len(spans) >= recorder.capacity:
            self.dropped_ops += 1
        self.ops += 1
        self.op_seconds += op_seconds
        if op < _KEEP_FIRST or op % _KEEP_EVERY == 0:
            self.kept.extend(_chrome_events(spans, op))

        by_id = {span.span_id: span for span in spans}
        remote_flag: Dict[int, bool] = {}

        def is_remote(span) -> bool:
            chain = []
            node = span
            while node is not None and node.span_id not in remote_flag:
                if node.name.startswith("worker."):
                    remote_flag[node.span_id] = True
                    break
                chain.append(node)
                node = by_id.get(node.parent_id)
            verdict = node is not None and remote_flag[node.span_id]
            for visited in chain:
                remote_flag[visited.span_id] = verdict
            return verdict

        def layer_parent(span):
            node = by_id.get(span.parent_id)
            while node is not None and node.name not in LAYER_OF:
                node = by_id.get(node.parent_id)
            return node

        children: Dict[int, List] = defaultdict(list)
        roots = []
        local = []
        for span in spans:
            if span.name not in LAYER_OF or is_remote(span):
                continue
            local.append(span)
            parent = layer_parent(span)
            if parent is None:
                roots.append(span)
            else:
                children[parent.span_id].append(span)

        for span in local:
            end = span.start + span.duration
            kids = children.get(span.span_id, ())
            self_time = span.duration - _union_length(
                [(kid.start, kid.start + kid.duration) for kid in kids], span.start, end
            )
            totals = self.spans[span.name]
            totals.count += 1
            totals.duration += span.duration
            totals.self_time += self_time
            if span.name == "bench.plan.predict":
                totals.value += float(span.args.get("batch", 0))
            self.layer_self[LAYER_OF[span.name]] += self_time
            command = COMMANDS.get(str(span.args.get("cmd")))
            if span.name == "bench.wire.send" and command:
                self._fold_wire(command, span, kids, "bench.wire.encode", "encode")
            elif span.name == "bench.wire.recv" and command:
                self._fold_wire(command, span, kids, "bench.wire.decode", "decode")
                self.wire[command, "recv_wait"].duration += self_time
        self.attributed += _union_length(
            [(root.start, root.start + root.duration) for root in roots],
            float("-inf"),
            float("inf"),
        )
        self._fold_remote(spans, children, is_remote)

    def _fold_wire(self, command: str, span, kids, codec: str, part: str) -> None:
        frames = self.wire[command, "frames"]
        frames.count += 1
        for kid in kids:
            if kid.name == codec:
                totals = self.wire[command, part]
                totals.count += 1
                totals.duration += kid.duration
                frames.value += float(kid.args.get("bytes", 0))

    def _fold_remote(self, spans, children, is_remote) -> None:
        """Worker span trees, paired with the coordinator RPC they answer.

        Spans are recorded in completion order, and a reply's worker spans
        are imported right after its ``recv`` span closes, so each worker
        root pairs with the latest ``recv`` and the latest ``send`` on the
        same socket.  The transport gap of that RPC is the part of the
        coordinator's receive that neither the worker's command span nor
        the coordinator's decode accounts for: socket transfer, worker-side
        codec and wake-up latency.
        """
        last_send: Dict[int, object] = {}
        last_recv = None
        for span in spans:
            if span.name == "bench.wire.send" and not is_remote(span):
                last_send[span.args.get("sock")] = span
            elif span.name == "bench.wire.recv" and not is_remote(span):
                last_recv = span
            elif is_remote(span):
                totals = self.remote[span.name]
                totals.count += 1
                totals.duration += span.duration
                if span.name == "plan.replay":
                    totals.value += float(span.args.get("batch", 0))
                if not span.name.startswith("worker.") or last_recv is None:
                    continue
                command = COMMANDS.get(span.name[len("worker."):])
                sent = last_send.get(last_recv.args.get("sock"))
                if command is None or sent is None:
                    continue
                decode = sum(
                    kid.duration
                    for kid in children.get(last_recv.span_id, ())
                    if kid.name == "bench.wire.decode"
                )
                sent_end = sent.start + sent.duration
                recv_end = last_recv.start + last_recv.duration
                gap = recv_end - decode - max(last_recv.start, sent_end + span.duration)
                self.wire[command, "transport_gap"].duration += gap

    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics of the traced phase: ``name -> (value, unit)``."""
        ops = max(self.ops, 1)

        def mean(totals: _Totals, field: str = "duration", scale: float = 1e6) -> float:
            return getattr(totals, field) * scale / totals.count if totals.count else 0.0

        spans = self.spans
        plan_local = spans["bench.plan.predict"]
        plan = plan_local if plan_local.count else self.remote["plan.replay"]
        out: Dict[str, Tuple[float, str]] = {
            "streaming.ingest_us": (mean(spans["bench.streaming.ingest"]), "us/call"),
            "streaming.forecast_self_us": (
                mean(spans["bench.streaming.forecast"], "self_time"), "us/call"),
            "serving.submit_us": (mean(spans["bench.serving.submit"]), "us/call"),
            "serving.flush_self_us": (mean(spans["bench.serving.flush"], "self_time"), "us/call"),
            "serving.queue_wait_us": (mean(self.queue_wait), "us/request"),
            "plan.predict_us": (mean(plan), "us/call"),
            "plan.rows_per_call": (mean(plan, "value", 1.0), "rows/call"),
            "cluster.ingest_self_us": (
                mean(spans["bench.cluster.ingest"], "self_time"), "us/call"),
            "cluster.forecast_all_self_us": (
                mean(spans["bench.cluster.forecast_all"], "self_time"), "us/call"),
        }
        frames = 0
        for command in COMMANDS.values():
            wire_frames = self.wire[command, "frames"]
            frames += wire_frames.count
            rpcs = max(wire_frames.count // 2, 1)
            out[f"wire.{command}_frame_bytes"] = (wire_frames.value / rpcs, "bytes/rpc")
            for part in ("encode", "decode", "recv_wait"):
                out[f"wire.{command}_{part}_us"] = (
                    self.wire[command, part].duration * 1e6 / ops, "us/op")
            out[f"worker.{command}_transport_gap_us"] = (
                self.wire[command, "transport_gap"].duration * 1e6 / ops, "us/op")
        out["wire.frames_per_tick"] = (frames / ops, "frames/op")
        out["worker.ingest_us"] = (mean(self.remote["worker.ingest"]), "us/rpc")
        out["worker.forecast_many_us"] = (mean(self.remote["worker.forecast_many"]), "us/rpc")
        op_us = self.op_seconds * 1e6 / ops
        out["ledger.op_wall_us"] = (op_us, "us/op")
        for layer in LEDGER_LAYERS:
            out[f"ledger.{layer}_us"] = (self.layer_self[layer] * 1e6 / ops, "us/op")
        unattributed = (self.op_seconds - self.attributed) * 1e6 / ops
        out["ledger.unattributed_us"] = (unattributed, "us/op")
        out["ledger.unattributed_share"] = (unattributed / op_us if op_us else 0.0, "ratio")
        return out


def _chrome_events(spans, op: int) -> List[Dict[str, object]]:
    return [
        {
            "name": span.name,
            "ph": "X",
            "ts": span.start * 1e6,
            "dur": span.duration * 1e6,
            "pid": 1,
            "tid": span.thread_id,
            "cat": "perfbench",
            "args": {
                "op": op,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                **{key: value for key, value in span.args.items() if key != "sock"},
            },
        }
        for span in spans
    ]
