"""One computation in parts, one per usable CPU, each in its own process.

`run(work, limit)` runs work(0, parts) in the calling process and every
other work(k, parts) in a child made by `os.fork()`, for `parts` the least
of `limit` and the CPUs this process may run on (1 without `os.fork`).  A
child writes its part's value through a pipe with `marshal` (built in, and
both ends run the same interpreter), or, should the part raise, a 0xff byte
(which starts no marshal record) and its exception's class and message,
pickled; then it ends in `os._exit`: it never returns into the caller.  The
CLI loads this module for a `reliability` grid that it splits, and the
engine for a run of more than one worker.
"""

from __future__ import annotations

import marshal
import os


def run(work, limit: int) -> list:
    """[work(k, parts) for k in range(parts)], each a value `marshal`
    carries, for `parts` the least of `limit` and the usable CPUs:
    work(0, parts) in this process, every other in a forked child, or here
    once a fork fails.  A child's exception is raised here.  Each child is
    reaped before this returns or raises."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    parts = min(limit, cpus or 1) if hasattr(os, "fork") else 1
    children = []  # (pid, read end of its pipe), in part order
    try:
        for k in range(1, parts):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the rest run here
                os.close(read_end)
                os.close(write_end)
                break
            if pid == 0:
                _child(work, k, parts, [read_end, *(fd for _, fd in children)], write_end)
            os.close(write_end)
            children.append((pid, read_end))
        values = [work(0, parts)]
        answers = []
        for _, read_end in children:
            with open(read_end, "rb", closefd=False) as pipe:
                answers.append(pipe.read())
    finally:
        # Every read end is closed before the first wait, so that a child
        # still writing gets EPIPE and exits; no child holds another's.
        for _, read_end in children:
            os.close(read_end)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in children]
    for answer, code in zip(answers, codes):
        if code:
            if answer[:1] == b"\xff":
                import pickle

                cls, message = pickle.loads(answer[1:])
                raise cls(message)
            # Killed before it could answer, the OOM killer's way.
            raise MemoryError(f"a part ended with exit status {code}")
    values += map(marshal.loads, answers)
    return values + [work(k, parts) for k in range(len(values), parts)]


def _child(work, k: int, parts: int, read_ends: list[int], write_end: int) -> None:
    """Write work(k, parts)'s value, or its exception, to `write_end` and
    exit, having closed every read end inherited from the parent."""
    code = 1
    try:
        for fd in read_ends:
            os.close(fd)
        with open(write_end, "wb") as pipe:
            try:
                pipe.write(marshal.dumps(work(k, parts)))
            except BaseException as exc:
                import pickle

                pipe.write(b"\xff" + pickle.dumps((type(exc), str(exc))))
                return  # through the `finally`: exit status 1
        code = 0
    finally:
        os._exit(code)
