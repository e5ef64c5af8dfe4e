"""Traced driver: one ``repro`` op in a fresh interpreter, with spans.

Usage::

    python3 perfbench/tracedriver.py --out AGG.json run <repro run flags>
    python3 perfbench/tracedriver.py --out AGG.json serve --cache-dir DIR

``run`` imports ``repro.cli`` (timed as ``repro.import``), wraps the
public functions of every layer in spans (:func:`instrument`), then calls
``repro.cli.main(["run", ...])``.  ``serve`` embeds the daemon with
``serve_in_thread`` (one warm worker), prints ``port N`` once it is
ready, serves until a line arrives on stdin, and tags each request's
spans with its ``X-Bench-Req`` header.  Either mode writes the span
aggregates (:class:`tracer.Tracer`) to ``--out`` on exit.

Nothing in ``src/`` changes: spans sit around calls into each module's
public functions, and every callback entering the event engine through
``schedule``, ``schedule_at`` or ``schedule_many`` is wrapped and charged
to the module that defines it.  Modules the program would import lazily
are imported up front so they can be wrapped; that time is the
``trace`` layer's.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable, Dict, List  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, layer_of  # noqa: E402

TRACER = Tracer()

#: Modules whose public functions and classes are wrapped, by layer.
MODULES = (
    "repro.workload.generators", "repro.workload.models",
    "repro.frontend.hf_config", "repro.frontend.zoo",
    "repro.frontend.opgraph_json", "repro.frontend.planner",
    "repro.core.simulator", "repro.core.folding", "repro.core.engine",
    "repro.system.scheduler", "repro.system.collective_op",
    "repro.system.executor", "repro.system.phases", "repro.system.compute",
    "repro.network.api", "repro.network.analytical",
    "repro.network.flowlevel", "repro.network.adaptive",
    "repro.network.garnetlite",
    "repro.memory.local", "repro.memory.remote", "repro.memory.inswitch",
    "repro.memory.zero_infinity", "repro.memory.pools",
    "repro.stats.export", "repro.stats.report",
)

#: Span names the per-layer metrics read (default: the layer name).
NAMES = {
    "repro.core.simulator.Simulator.__init__": "core.init",
    "repro.core.simulator.Simulator.run": "core.run",
    "repro.stats.export.dump_result_json": "stats.export",
    "repro.stats.export.result_to_dict": "stats.export",
    "repro.system.scheduler.ThemisScheduler.plan_order": "system.scheduler",
    "repro.system.scheduler.ThemisScheduler.balanced_plan":
        "system.scheduler",
    "repro.system.scheduler.BaselineScheduler.plan_order":
        "system.scheduler",
}
_NAME_PREFIX = {
    "repro.workload.": "workload.generate",
    "repro.frontend.planner.": "frontend.plan",
    "repro.frontend.": "frontend.ingest",
}


def _span_name(qualname: str, layer: str) -> str:
    if qualname in NAMES:
        return NAMES[qualname]
    for prefix, name in _NAME_PREFIX.items():
        if qualname.startswith(prefix):
            return name
    return layer


def _rebind(original: Any, replacement: Any) -> None:
    """Point every module-level reference to ``original`` at ``replacement``."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace or not getattr(module, "__name__", "").startswith(
                "repro"):
            continue
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement


def _wrap_class(cls: type, module: str, layer: str) -> None:
    for attr, value in list(vars(cls).items()):
        if not inspect.isfunction(value):
            continue
        if attr.startswith("_") and attr != "__init__":
            continue
        if attr == "__init__" and hasattr(cls, "__dataclass_fields__"):
            continue  # a record, not layer work
        qualname = f"{module}.{cls.__name__}.{attr}"
        setattr(cls, attr, TRACER.wrap(value, _span_name(qualname, layer),
                                       layer))


def _wrap_module(name: str) -> None:
    module = importlib.import_module(name)
    layer = layer_of(name)
    for attr, value in list(vars(module).items()):
        if attr.startswith("_") or getattr(value, "__module__", None) != name:
            continue
        qualname = f"{name}.{attr}"
        if inspect.isclass(value):
            if issubclass(value, BaseException) or not any(
                    inspect.isfunction(v) for v in vars(value).values()):
                continue
            _wrap_class(value, name, layer)
        elif inspect.isfunction(value):
            wrapped = TRACER.wrap(value, _span_name(qualname, layer), layer)
            _rebind(value, wrapped)


# -- the event kernel -----------------------------------------------------------

_LAYER_CACHE: Dict[str, str] = {}


def _callback_layer(fn: Callable) -> str:
    module = getattr(fn, "__module__", None)
    if module is None:
        module = getattr(getattr(fn, "func", None), "__module__", None)
    layer = _LAYER_CACHE.get(module)  # type: ignore[arg-type]
    if layer is None:
        layer = _LAYER_CACHE[module] = layer_of(module)  # type: ignore[index]
    return layer


def _traced_callback(fn: Callable) -> Callable:
    """``fn`` charged to its module's layer; its span counts the firing."""
    layer = _callback_layer(fn)
    return TRACER.wrap(fn, "cb:" + layer, layer)


def _instrument_events() -> None:
    from repro.events import engine as events

    cls = events.EventEngine
    schedule, schedule_at = cls.schedule, cls.schedule_at
    schedule_many, run = cls.schedule_many, cls.run
    cancel = events.Event.cancel
    count = TRACER.count

    def traced_schedule(self, delay, fn, *args, priority=0):
        return schedule(self, delay, _traced_callback(fn), *args,
                        priority=priority)

    def traced_schedule_at(self, when, fn, *args, priority=0):
        return schedule_at(self, when, _traced_callback(fn), *args,
                           priority=priority)

    def traced_schedule_many(self, items, priority=0):
        batch = [(item[0], _traced_callback(item[1])) + tuple(item[2:])
                 for item in items]
        count("events.batched", len(batch))
        count("events.schedule_many")
        return schedule_many(self, batch, priority=priority)

    def traced_cancel(self):
        if not self.cancelled:
            count("events.cancelled")
        cancel(self)

    cls.schedule = TRACER.wrap(traced_schedule, "events.schedule", "events")
    cls.schedule_at = TRACER.wrap(traced_schedule_at, "events.schedule",
                                  "events")
    cls.schedule_many = TRACER.wrap(traced_schedule_many, "events.schedule",
                                    "events")
    cls.run = TRACER.wrap(run, "events.run", "events")
    events.Event.cancel = traced_cancel


def _instrument_network() -> None:
    from repro.network.api import NetworkBackend

    sim_send = NetworkBackend.__dict__["sim_send"]
    sim_send = getattr(sim_send, "__wrapped__", sim_send)
    enter, exit_, count = TRACER.enter, TRACER.exit, TRACER.count

    def traced_sim_send(self, src, dest, size_bytes, tag=0, callback=None):
        count("network.sim_send_calls")
        count("network.sim_send_bytes", size_bytes)
        frame = enter("network.sim_send", layer_of(type(self).__module__))
        try:
            return sim_send(self, src, dest, size_bytes, tag, callback)
        finally:
            exit_(frame)

    NetworkBackend.sim_send = traced_sim_send


def _instrument_folding() -> None:
    from repro.core.simulator import Simulator

    init = Simulator.__init__

    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        report = self.folding.report
        TRACER.count("core.traced_ranks", report.traced_ranks)
        TRACER.count("core.simulated_ranks", report.simulated_ranks)

    Simulator.__init__ = traced_init


def _instrument_cli() -> None:
    import repro.cli as cli

    parse_args = argparse.ArgumentParser.parse_args
    argparse.ArgumentParser.parse_args = TRACER.wrap(
        parse_args, "cli.parse", "cli")
    build_parser = cli.build_parser
    _rebind(build_parser, TRACER.wrap(build_parser, "cli.parse", "cli"))
    for attr in ("simulate_from_args", "run_from_args"):
        original = getattr(cli, attr)
        _rebind(original, TRACER.wrap(original, "cli", "cli"))


def instrument() -> None:
    """Wrap every layer of the simulator (call after importing repro)."""
    for name in MODULES:
        _wrap_module(name)
    _instrument_events()
    _instrument_network()
    _instrument_folding()
    _instrument_cli()


def _instrument_campaign() -> None:
    from repro.campaign import cache, runner, serve

    RunCache = cache.RunCache
    RunCache.get = TRACER.wrap(RunCache.get, "campaign.cache_get", "campaign")
    RunCache.put = TRACER.wrap(RunCache.put, "campaign.cache_put", "campaign")
    normalize = runner.normalize_point
    traced_normalize = TRACER.wrap(normalize, "campaign.normalize", "campaign")
    _rebind(normalize, traced_normalize)
    runner.run_point.normalize = traced_normalize
    handler = serve._RequestHandler
    # The pool dispatch of one point: submit to the warm worker and wait.
    handler._execute_point = TRACER.wrap(
        handler._execute_point, "campaign.pool_submit", "campaign")
    do_post = handler.do_POST

    def traced_do_post(self):
        TRACER.set_tag(self.headers.get("X-Bench-Req", ""))
        frame = TRACER.enter("campaign.http", "campaign.http")
        try:
            do_post(self)
        finally:
            TRACER.exit(frame)

    handler.do_POST = traced_do_post


# -- entry points ---------------------------------------------------------------

def _write(path: str, extra: Dict[str, Any]) -> None:
    doc = TRACER.to_dict()
    doc.update(extra)
    Path(path).write_text(json.dumps(doc, sort_keys=True))


def _run(out: str, argv: List[str]) -> int:
    def on_limit(_signum, _frame):
        # Hit the wall limit: close every open span now and keep them.
        stack = TRACER.state().stack
        if stack:
            TRACER.exit(stack[0])
        _write(out, {"driver_s": time.perf_counter() - _T0,
                     "terminated": True})
        os._exit(124)

    signal.signal(signal.SIGTERM, on_limit)
    TRACER.set_tag("op")
    frame = TRACER.enter("repro.import", "import")
    import repro.cli  # noqa: F401
    TRACER.exit(frame)
    frame = TRACER.enter("trace.setup", "trace")
    instrument()
    TRACER.exit(frame)
    code: Any = 0
    frame = TRACER.enter("cli.main", "cli")
    try:
        code = repro.cli.main(["run"] + argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        TRACER.exit(frame)
        _write(out, {"driver_s": time.perf_counter() - _T0})
    if code is None:
        return 0
    if isinstance(code, int):
        return code
    print(code, file=sys.stderr)
    return 1


def _serve(out: str, cache_dir: str) -> int:
    TRACER.set_tag("setup")
    import repro.cli  # noqa: F401
    from repro.campaign.pool import shutdown_shared_pool
    from repro.campaign.serve import ServeConfig, serve_in_thread

    _instrument_campaign()
    server = serve_in_thread(ServeConfig(port=0, jobs=1, cache_dir=cache_dir))
    try:
        server.warm_up()
        print(f"port {server.server_address[1]}", flush=True)
        sys.stdin.readline()
    finally:
        server.shutdown()
        server.server_close()
        shutdown_shared_pool(wait=True)
        _write(out, {"driver_s": time.perf_counter() - _T0})
    return 0


def main(argv: List[str]) -> int:
    if (len(argv) < 3 or argv[0] != "--out" or argv[2] not in ("run", "serve")
            or (argv[2] == "serve" and (len(argv) != 5
                                        or argv[3] != "--cache-dir"))):
        print(__doc__.split("``run``")[0].strip(), file=sys.stderr)
        return 2
    if argv[2] == "run":
        return _run(argv[1], argv[3:])
    return _serve(argv[1], argv[4])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
