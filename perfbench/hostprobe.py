"""Host-speed probe: a separate interpreter that times a fixed burst of
pure-Python work on request.

    python3 -I perfbench/hostprobe.py <scratch directory>

Each line read from stdin holds a count; the probe runs that many
bursts and answers with one line of their durations in seconds.  An
empty line or the end of stdin ends it.  It imports nothing of the
program, so a change to the program's interpreter (its GC settings, a
profile or trace hook, the switch interval) cannot move its times:
only the host's speed does.
"""

from __future__ import annotations

import os
import pickle
import sys
import time

BURST_ITEMS = 5500
BURST_LOADS = 9


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int, value: int, nxt) -> None:
        self.key, self.value, self.next = key, value, nxt


def burst(blob_path: str) -> int:
    """A fixed piece of pure-Python work in the program's style: a dict
    built and probed, small objects allocated and walked, and a small
    pickle read back from a file (as a result-cache hit does)."""
    table = {}
    for i in range(BURST_ITEMS):
        table[i] = i * 3
    total = sum(table.get(i, 0) for i in range(BURST_ITEMS))
    head = None
    for i in range(BURST_ITEMS):
        head = _Node(i, i + 1, head)
    while head is not None:
        total += head.value
        head = head.next
    for _ in range(BURST_LOADS):
        with open(blob_path, "rb") as handle:
            total += len(pickle.load(handle))
    return total


def main(argv) -> int:
    os.makedirs(argv[1], exist_ok=True)
    blob = os.path.join(argv[1], f"burst-{os.getpid()}.pkl")
    with open(blob, "wb") as handle:
        pickle.dump([{"key": i, "hops": [i] * 4} for i in range(200)],
                    handle)
    try:
        for line in sys.stdin:
            if not line.strip():
                break
            took = []
            for _ in range(int(line)):
                start = time.perf_counter()
                burst(blob)
                took.append(time.perf_counter() - start)
            print(" ".join(repr(t) for t in took), flush=True)
    finally:
        os.unlink(blob)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
