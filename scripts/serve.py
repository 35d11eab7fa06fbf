#!/usr/bin/env python3
"""Run the prediction service (see ``docs/ARCHITECTURE.md`` § "Service").

Usage:
  PYTHONPATH=src python scripts/serve.py --port 8080 --store results/simcache

Prints one line once the socket is listening::

  [serve] listening on http://127.0.0.1:8080 (pid 1234)

so harnesses can bind ``--port 0`` and parse the assigned port.

Exit codes follow the repository contract: 0 clean stop, 2 on an
out-of-range flag (before anything binds), 75 drained on SIGTERM/SIGINT
(everything accepted was answered or recorded; rerun or restart to
resume), 128+signum on a second signal.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys

from repro.obs import bootstrap
from repro.resilience import (
    EXIT_ERROR,
    apply_memory_limit,
    install_shutdown_handlers,
)
from repro.service import PredictionService, ServiceConfig

#: Flags that override the ``ServiceConfig`` field of the same name.
FLAG_FIELDS = (
    "workers_min",
    "workers_max",
    "queue_depth",
    "default_deadline_s",
    "breaker_threshold",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8080, help="0 binds an ephemeral port"
    )
    parser.add_argument(
        "--store",
        default=os.path.join("results", "simcache"),
        help="result-store root ('' for memory-only)",
    )
    parser.add_argument("--workers-min", type=int, default=None)
    parser.add_argument("--workers-max", type=int, default=None)
    parser.add_argument("--queue-depth", type=int, default=None)
    parser.add_argument(
        "--default-deadline",
        dest="default_deadline_s",
        type=float,
        default=None,
        help="per-request deadline in seconds when the client sends none",
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=None,
        help="consecutive terminal failures before a config fast-fails "
        "(0 disables; default 3)",
    )
    args = parser.parse_args(argv)

    # Unclamped: ServiceConfig rejects an out-of-range flag, and the
    # service then exits 2 before it binds, as the batch CLIs do.
    overrides = {"host": args.host, "port": args.port}
    overrides["store_root"] = args.store or None
    for name in FLAG_FIELDS:
        if getattr(args, name) is not None:
            overrides[name] = getattr(args, name)
    try:
        config = ServiceConfig(**overrides)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR

    bootstrap()
    apply_memory_limit()
    install_shutdown_handlers()
    service = PredictionService(config)

    async def run() -> int:
        serve_task = asyncio.get_running_loop().create_task(service.serve())
        # serve() binds the socket before awaiting; poll until the port
        # is known, then announce readiness on stdout for harnesses.
        while service.port is None and not serve_task.done():
            await asyncio.sleep(0.01)
        if service.port is not None:
            print(
                f"[serve] listening on http://{config.host}:{service.port} "
                f"(pid {os.getpid()})",
                flush=True,
            )
        return await serve_task

    return asyncio.run(run())


if __name__ == "__main__":
    sys.exit(main())
