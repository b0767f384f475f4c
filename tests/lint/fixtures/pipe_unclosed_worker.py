"""Seeded RES001 + PIPE001 violations: an open exit path, a one-sided marker.

``worker_broken`` is a pool-shaped child main: it drains job items off
its ``Connection`` until the ``None`` sentinel — but the sentinel path
returns without closing, so the child exits holding an open pipe end
and the parent's ``recv`` blocks on a connection that will never see
EOF cleanly. ``worker_ok`` is the correct twin (``try/finally`` pairs
the close on every path, like the fleet's ``_pool_worker_main``).

``announce`` seeds the pairing half of the rule: it is marked
``# protocol: sends[orphan]`` but nothing in the project is marked
``receives[orphan]`` — a one-sided cross-process message protocol.
"""

from multiprocessing import Process
from multiprocessing.connection import Connection


# protocol: receives[cell] -- drains cell specs until the None sentinel
def worker_broken(conn: Connection) -> None:
    while True:
        item = conn.recv()
        if item is None:
            return  # BUG: the sentinel path leaves conn open
        conn.send(item * 2)


# protocol: receives[cell] -- same drain loop, close paired on every path
def worker_ok(conn: Connection) -> None:
    try:
        while True:
            item = conn.recv()
            if item is None:
                return
            conn.send(item * 2)
    finally:
        conn.close()


# protocol: sends[cell] -- feeds the drain loop of either worker
def feed(conn: Connection, items: list) -> None:
    for item in items:
        conn.send(item)
    conn.send(None)


# protocol: sends[orphan] -- BUG: no receives[orphan] peer exists
def announce(conn: Connection, payload: dict) -> None:
    conn.send(payload)


def launch_broken(child: Connection) -> None:
    worker = Process(target=worker_broken, args=(child,))
    worker.start()
    worker.join()


def launch_ok(child: Connection) -> None:
    worker = Process(target=worker_ok, args=(child,))
    worker.start()
    worker.join()
