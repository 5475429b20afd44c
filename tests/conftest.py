"""Shared fixtures."""

import math
import threading

import pytest

import innaprop.numerics as numerics


@pytest.fixture
def class_csv(tmp_path):
    """Writer of a two-feature CSV dataset with columns ``a,b,y`` and labels
    ``i % n_classes``; it returns the file's path."""
    def write(n_classes: int, rows: int = 72):
        lines = ["a,b,y"]
        for i in range(rows):
            c = i % n_classes
            lines.append(f"{c + 0.5 * math.sin(1.7 * i):.6f},"
                         f"{math.cos(c) + 0.3 * math.cos(2.3 * i):.6f},{c}")
        path = tmp_path / f"classes{n_classes}.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path
    return write


class Gate:
    """A ``share_blocks`` call's blocks, handed out so that both threads
    run blocks: the worker takes the first one, and its second waits for the
    caller's first. ``taken`` records each block's first column with the
    thread that took it."""

    def __init__(self, blocks, caller, taken):
        self.blocks, self.caller, self.taken = blocks, caller, taken
        self.worker_took, self.caller_took = threading.Event(), threading.Event()

    def __iter__(self):
        return self

    def __next__(self):
        by_caller = threading.current_thread() is self.caller
        # A timeout, not a hang, when the other thread never comes.
        (self.worker_took if by_caller else self.caller_took).wait(
            timeout=10 if by_caller or self.worker_took.is_set() else 0)
        block = next(self.blocks)
        self.taken.append((block[0], by_caller))
        (self.caller_took if by_caller else self.worker_took).set()
        return block


class SharingPool:
    """The block runner's pool, one worker of its own, that gates each
    call's blocks (``Gate``) unless ``gate`` is off, and keeps the worker's
    futures."""

    def __init__(self):
        from concurrent.futures import ThreadPoolExecutor

        self.pool, self.gate = ThreadPoolExecutor(1), True
        self.futures, self.taken = [], []

    def submit(self, fn, *args):
        job = args[-1]
        if self.gate:
            job[0] = Gate(job[0], threading.current_thread(), self.taken)
        future = self.pool.submit(fn, *args)
        self.futures.append(future)
        return future


@pytest.fixture
def sharing(monkeypatch):
    """A ``SharingPool`` that ``numerics.share_blocks`` uses for the test."""
    pool = SharingPool()
    monkeypatch.setattr(numerics, "_block_pool", lambda: pool)
    yield pool
    pool.pool.shutdown(cancel_futures=True)
