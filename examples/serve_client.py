"""Drive a running ``phoenix serve`` from a client process.

Submits a four-job compiler sweep (the same UCCSD benchmark through
``phoenix``, ``tetris``, ``paulihedral``, and ``naive``) to a resident
compilation server, follows the job's Server-Sent Events stream
(``GET /v1/jobs/<id>/events``) as each program completes, and prints the
final metrics table fetched from ``GET /v1/jobs/<id>``.  Everything goes
over plain HTTP via :class:`repro.serve.client.ServeClient` — no SDK, no
dependencies; any HTTP client could do the same.

Start a server first (in another terminal, or backgrounded)::

    phoenix serve --port 8077 --cache disk:.phoenix-cache

then::

    python examples/serve_client.py [--host 127.0.0.1] [--port 8077]
                                    [--benchmark LiH_frz_JW]

Run it twice: the second run streams four instant ``hit`` events — the
server's cache and warm process pool persist across client processes,
which is the point of serving instead of batching.
"""

import argparse

from repro.experiments import format_table
from repro.serve import ServeClient

COMPILERS = ["phoenix", "tetris", "paulihedral", "naive"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8077)
    parser.add_argument(
        "--benchmark", default="LiH_frz_JW",
        help="built-in benchmark to sweep across compilers (default: LiH_frz_JW)",
    )
    args = parser.parse_args()

    client = ServeClient(args.host, args.port)
    health = client.wait_ready(timeout=10)
    print(f"server is {health['status']} (up {health['uptime_seconds']:.0f}s)")

    submitted = client.submit(
        [
            {"name": f"{args.benchmark}/{compiler}",
             "benchmark": args.benchmark, "compiler": compiler}
            for compiler in COMPILERS
        ],
        name=f"{args.benchmark}-compiler-sweep",
    )
    print(
        f"submitted job {submitted['id']} "
        f"({submitted['programs']} programs, queue depth {submitted['queue_depth']})"
    )

    # The event stream replays history first, then follows live progress —
    # connecting late or reconnecting never loses events.
    for event in client.events(submitted["id"]):
        if event["type"] == "progress":
            print(
                f"  {event['completed']}/{event['total']} {event['name']} "
                f"({event['outcome']}, {event['elapsed']:.2f}s)"
            )
        elif event["type"] == "done":
            print(f"  terminal: {event['state']} ({event.get('ok', 0)} ok)")

    summary = client.job(submitted["id"])
    rows = [
        [
            result["name"],
            result["status"],
            "hit" if result["cached"] else "miss",
            result["metrics"]["cx_count"],
            result["metrics"]["depth_2q"],
            f"{result['elapsed']:.2f}s",
        ]
        for result in summary["results"]
    ]
    print()
    print(format_table(
        rows, headers=["job", "status", "cache", "#CNOT", "Depth-2Q", "elapsed"]
    ))

    stats = client.stats()
    executor = stats["executor"]
    print(
        f"\nserver: {stats['queue']['submitted']} jobs submitted this lifetime, "
        f"{stats['queue']['jobs_per_second']} jobs/s, "
        f"warm pool workers: {executor['pool_workers']} "
        f"(breaker {executor['breaker']}); rerun to hit the cache"
    )


if __name__ == "__main__":
    main()
