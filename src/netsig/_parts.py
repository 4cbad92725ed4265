"""One computation in contiguous parts, one per process.

`run(work, parts)` runs work(0) in the calling process and every other
work(k) in a child made by `os.fork()`.  A child writes the strings of
work(k) through a pipe in UTF-8, split by NUL bytes, or, should work(k)
raise, a 0xff byte (which UTF-8 never holds) and its exception's class and
message; then it ends in `os._exit`: it never returns into the caller.
The CLI loads this module only for a `reliability` grid that it splits.
"""

from __future__ import annotations

import os


def run(work, parts: int) -> list[tuple[str, ...]]:
    """[work(k) for k in range(parts)], each a tuple of strings holding no
    NUL: work(0) in this process, every other in a forked child, or here
    once a fork fails.  A child's exception is raised here.  Each child is
    reaped before this returns or raises."""
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
                _child(work, k, [read_end, *(fd for _, fd in children)], write_end)
            os.close(write_end)
            children.append((pid, read_end))
        texts = [work(0)]
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
            fault = answer.find(b"\xff")
            if fault >= 0:
                import pickle

                cls, message = pickle.loads(answer[fault + 1:])
                raise cls(message)
            # Killed before it could answer, the OOM killer's way.
            raise MemoryError(f"a part ended with exit status {code}")
    texts += [tuple(answer.decode().split("\0")) for answer in answers]
    return texts + [work(k) for k in range(len(texts), parts)]


def _child(work, k: int, read_ends: list[int], write_end: int) -> None:
    """Write work(k)'s strings, or its exception, to `write_end` and exit,
    having closed every read end inherited from the parent."""
    code = 1
    try:
        for fd in read_ends:
            os.close(fd)
        with open(write_end, "wb") as pipe:
            try:
                for i, text in enumerate(work(k)):
                    if i:
                        pipe.write(b"\0")
                    pipe.write(text.encode())
            except BaseException as exc:
                import pickle

                pipe.write(b"\xff" + pickle.dumps((type(exc), str(exc))))
                return  # through the `finally`: exit status 1
        code = 0
    finally:
        os._exit(code)
