"""HTTP server child: the stack ``serve-http`` ships, driven over stdin.

Run as ``python3 -m perfbench.http_child --artifact PATH`` from the
repository root with ``src`` on ``PYTHONPATH``. It boots the artifact
``SETUP_BOOTS`` times (``ServingEngine.from_artifact`` + ``warm``, timing
each; the last boot serves), then serves it through ``BatchingServer`` and
``HttpFrontend`` with ``serve-http``'s default settings on an ephemeral
port. It prints one JSON line when listening and answers one JSON line per
stdin command:

* ``trace on`` — install the span wrappers;
* ``trace off PATH`` — remove them and write the spans plus the engine and
  server counters to ``PATH``;
* ``quit`` — stop the front end and the batching server, then exit.

Closing stdin counts as ``quit``, so the child never outlives its parent.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys

from perfbench.common import SETUP_BOOTS, timed_boots
from perfbench.tracer import Tracer, tag_connections

# serve-http's shipped defaults (repro.cli): --host, --max-batch,
# --max-delay-ms, --max-queue, --timeout-ms, --workers.
HOST = "127.0.0.1"
MAX_BATCH = 32
MAX_DELAY_MS = 2.0
MAX_QUEUE = 1024


def _say(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


async def _serve(engine, boot_seconds) -> None:
    from repro.service import BatchingServer, HttpFrontend

    loop = asyncio.get_running_loop()
    commands = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(commands), sys.stdin)
    server = BatchingServer(engine, max_batch_size=MAX_BATCH,
                            max_delay_ms=MAX_DELAY_MS, max_queue=MAX_QUEUE)
    tracer = before = None
    tag_connections()
    async with server:
        async with HttpFrontend(server, host=HOST, port=0) as front:
            _say({"ready": True, "port": front.port, "pid": os.getpid(),
                  "boot_s": boot_seconds})
            while True:
                line = (await commands.readline()).decode().split()
                if not line or line[0] == "quit":
                    break
                if line[:2] == ["trace", "on"]:
                    before = engine.stats()
                    tracer = Tracer()
                    tracer.install_stack()
                    _say({"ok": "trace on"})
                elif line[:2] == ["trace", "off"] and tracer is not None:
                    tracer.uninstall()
                    with open(line[2], "w") as handle:
                        json.dump({"spans": tracer.spans,
                                   "engine_before": before,
                                   "engine": engine.stats(),
                                   "server": server.report().summary()},
                                  handle)
                    tracer = None
                    _say({"ok": "trace off"})
                else:
                    _say({"error": f"unknown command {' '.join(line)!r}"})
    _say({"ok": "quit"})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--artifact", required=True)
    args = parser.parse_args()
    from repro.service import ServingEngine

    def boot(_):
        engine = ServingEngine.from_artifact(args.artifact)
        engine.warm()
        return engine

    engine, boot_seconds = timed_boots(boot, SETUP_BOOTS)
    asyncio.run(_serve(engine, boot_seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
