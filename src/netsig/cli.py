"""Command-line interface.

Subcommands: nstar (order-count table), exact (exhaustive batch-failure
signature), approx (Monte Carlo signature), signature (classic permutation
signature), reliability (mixture survival curve).  exact and approx take
`--m-mode` by the library's names (`M_MODES`) and `--workers`.
Signature artifacts are JSON (or CSV) with an embedded run manifest; counts
are string-encoded because they exceed 64-bit JSON-safe integers.

Exit codes: 0 success, 1 output pipe closed by the reader (nothing is
written to stderr), 2 usage, 3 input validation (an unreadable or
unwritable path, a malformed graph or artifact, a non-finite rate or time,
a seed outside [0, 2**64), an m-mode the network does not support, or a
non-finite number in a JSON artifact), 4 an exact program refused (memory
budget, link limit) or a run out of memory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from itertools import chain, islice

# The builtin SHA-256 gives hashlib's digest without loading its OpenSSL
# binding, which costs every CLI call a few milliseconds.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from . import __version__
from ._record import M_MODES, PROCESSES, TSignature, _fubini
from .errors import EnumerationCapError, UnsupportedModeError

# The library functions that only some commands run, resolved through the
# package's lazy exports on first use, so that a call loads only what its
# command runs.  The commands call them through this module, `_lib`, where a
# name replaced on the module is found too.
_LAZY = ("parse_network", "exact_tsignature", "classic_signature", "approx_tsignature",
         "survival_mixture")
_lib = sys.modules[__name__]


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


EXIT_OK = 0
EXIT_PIPE = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_CAP = 4

# The time grid and its curve are built whole before anything is written, so
# `reliability --steps` is bounded before they are: a million steps take
# about 1.4 s for 39 MB of JSON (figure1, two parts on a 2-core x86-64 host;
# 2.1 s in one process), with a max RSS of 172 MiB in the calling process
# and 107 MiB in its child (167 MiB in one process); as CSV, in one
# process, 2.4 s and 92 MiB.
MAX_STEPS = 10**6
# `reliability` computes and encodes a JSON curve of 2 * PART_POINTS points
# or more in parts, one per usable CPU (`netsig._parts`).  Two parts break
# even with one process at about 4,001 points (7.2 against 6.9 ms, Poisson,
# in process, same host) and save about a quarter from 20,001 on (26.2
# against 35.4 ms), so the default 101 points never fork.  A CSV curve runs
# in one process, which writes its rows 4,096 at a time as they are made.
PART_POINTS = 10_000
# `nstar N` makes about N^2/2 products of integers of up to N*log2(N) bits,
# so time, not memory, bounds N: 500 takes about 0.3 s and 15 MiB (same
# host), 1,000 about 2 s in the same memory.
MAX_NSTAR = 500


def _read_input(path: str) -> tuple[str, str]:
    """The text of a UTF-8 file, whatever the locale and with a leading
    byte-order mark dropped, and the SHA-256 of its bytes as they are on
    disk (line endings untranslated)."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return text, sha256(data).hexdigest()


def _manifest(command: str, digest: str | None, args: argparse.Namespace, started: float) -> dict:
    flags = {
        key: getattr(args, key)
        for key in ("m_mode", "seed", "workers", "samples", "process", "rate", "tmax", "steps")
        if hasattr(args, key)
    }
    return {
        "command": command,
        "input_sha256": digest,
        "flags": flags,
        "duration_seconds": time.time() - started,
        "version": __version__,
    }


# The separator of the items of a top-level list of numbers in JSON.
_ITEM = ",\n    "


class _Items(str):
    """The encoded items of a top-level list of numbers in JSON."""


def _json_items(values: list) -> _Items:
    """The items of a list of numbers as `indent=2` lays them out at the top
    level, by the C encoder.  Non-finite floats raise ValueError."""
    return _Items(json.dumps(values, allow_nan=False, separators=(_ITEM, ": "))[1:-1])


def _json_pieces(payload: dict) -> list[str]:
    """The pieces of `json.dumps(payload, indent=2, sort_keys=True)`, byte
    for byte once joined, with each top-level list of numbers written by the
    C encoder (which `indent` would turn off), or given as `_Items`, and
    laid out as `indent=2` lays it out.  Non-finite floats raise
    ValueError."""
    pieces = []
    for key in sorted(payload):
        value = payload[key]
        pieces += (",\n  " if pieces else "{\n  ", json.dumps(key), ": ")
        if isinstance(value, list) and set(map(type, value)) <= {int, float}:
            value = _json_items(value)
        if type(value) is _Items:
            pieces += ("[\n    ", value, "\n  ]") if value else ("[]",)
        else:
            text = json.dumps(value, indent=2, sort_keys=True, allow_nan=False)
            pieces.append(text.replace("\n", "\n  "))
    pieces.append("\n}\n")
    return pieces


def _emit(payload: dict, args: argparse.Namespace, csv_rows=None, csv_header=None) -> None:
    """Write the artifact to `args.out` or stdout.  JSON is encoded whole
    before the first byte is written, so a non-finite value writes nothing;
    CSV is written as its rows are formatted."""
    if args.output == "json":
        pieces = _json_pieces(payload)
    else:
        lines = chain([",".join(csv_header)], (",".join(map(str, row)) for row in csv_rows))
        # Joined 4,096 lines at a time: a write per line costs more than the join.
        pieces = iter(lambda: "".join(f"{line}\n" for line in islice(lines, 4096)), "")
    if getattr(args, "out", None):
        with open(args.out, "w") as f:
            f.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def cmd_nstar(args) -> int:
    for n, orders in enumerate(_fubini(args.n)[2:], start=2):
        print(f"{n:>3} | {math.factorial(n):,} | {orders:,}")
    return EXIT_OK


def cmd_signature(args) -> int:
    """exact, approx and signature: one network in, one signature artifact
    out."""
    started = time.time()
    text, digest = _read_input(args.graph)
    net = _lib.parse_network(text)
    if args.command == "exact":
        sig = _lib.exact_tsignature(net, m_mode=args.m_mode, workers=args.workers)
    elif args.command == "approx":
        sig = _lib.approx_tsignature(net, args.samples, seed=args.seed, workers=args.workers,
                                     m_mode=args.m_mode)
    else:
        sig = _lib.classic_signature(net)
    payload = {
        "manifest": _manifest(args.command, digest, args, started),
        "n": sig.n,
        "mode": sig.mode,
        "m_mode": sig.m_mode,
        "counts": [str(c) for c in sig.counts],
        "total": str(sig.total),
        "values": list(sig.values),
    }
    columns = [range(1, sig.n + 1), sig.counts, sig.values]
    header = ["i", "count", "value"]
    if sig.mode == "sampled":
        std_error = sig.std_error
        payload["std_error"] = list(std_error)
        columns.append(std_error)
        header.append("std_error")
    rows = zip(*columns) if args.output == "csv" else None
    _emit(payload, args, csv_rows=rows, csv_header=header)
    return EXIT_OK


def _artifact_int(value) -> int:
    """A JSON integer or an ASCII decimal string (`-?[0-9]+`); not a float
    (`1e400`, `2.7`), `true`, or a string that only `int` reads (`5_41`)."""
    if type(value) is int or isinstance(value, str) and re.fullmatch("-?[0-9]+", value):
        return int(value)
    raise TypeError(f"expected an integer or a decimal integer string, got {value!r}")


def _load_signature_input(path: str):
    """Accept either a graph file (exact signature is computed) or a
    previously emitted signature artifact."""
    text, digest = _read_input(path)
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
            counts = data["counts"]
            if type(counts) is not list:
                raise TypeError(f"counts must be a list, got {type(counts).__name__}")
            fields = dict(
                n=_artifact_int(data["n"]),
                counts=tuple(map(_artifact_int, counts)),
                total=_artifact_int(data["total"]),
                mode=data["mode"],
                m_mode=data["m_mode"],
            )
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ValueError(
                f"{path}: not a signature artifact ({type(exc).__name__}: {exc})"
            ) from None
        # Outside the `try`: an invalid signature keeps TSignature's message.
        return TSignature(**fields), digest
    net = _lib.parse_network(text)
    return _lib.exact_tsignature(net), digest


def _time_grid(tmax: float, steps: int) -> list[float]:
    """`tmax * i / steps` for i = 0..steps, or `tmax * (i / steps)` at the
    points where `tmax * i` alone overflows (none if `tmax * steps` is
    finite, as rounding is monotone)."""
    if math.isfinite(tmax * steps):
        return [tmax * i / steps for i in range(steps + 1)]
    return [tmax * i / steps if math.isfinite(tmax * i) else tmax * (i / steps)
            for i in range(steps + 1)]


def cmd_reliability(args) -> int:
    started = time.time()
    sig, digest = _load_signature_input(args.input)
    times = _time_grid(args.tmax, args.steps)
    parts = len(times) // PART_POINTS  # at most: `netsig._parts` caps it at the usable CPUs
    if parts > 1 and args.output == "json":
        times, survival = _curve_in_parts(sig, args, times, parts)
    else:
        survival = _lib.survival_mixture(sig, args.process, args.rate, times)
    payload = {
        "manifest": _manifest("reliability", digest, args, started),
        "n": sig.n,
        "process": args.process,
        "rate": args.rate,
        "times": times,
        "survival": survival,
    }
    rows = zip(times, survival) if args.output == "csv" else None
    _emit(payload, args, csv_rows=rows, csv_header=["t", "survival"])
    return EXIT_OK


def _curve_in_parts(sig, args, times: list[float], limit: int) -> list[_Items]:
    """The JSON items of `cmd_reliability`'s times and survival, from at
    most `limit` contiguous slices of the grid, each evaluated and encoded
    in its own process (`netsig._parts`) and joined in order.  The whole
    grid is checked before any part starts."""
    from . import reliability
    from ._parts import run

    reliability._check_curve(sig, args.process, args.rate, times)

    def part(k, parts):
        grid = times[len(times) * k // parts:len(times) * (k + 1) // parts]
        curve = reliability._mixture(args.process, args.rate, sig.n, sig.counts, sig.total, grid)
        return str(_json_items(grid)), str(_json_items(curve))  # marshal: str, not _Items

    return [_Items(_ITEM.join(column)) for column in zip(*run(part, limit))]


def _sample_count(text: str) -> int:
    """`--samples`: a whole number, also in scientific notation (1e6)."""
    try:
        return int(text)
    except ValueError:
        value = float(text)
    if not value.is_integer():
        raise argparse.ArgumentTypeError(f"not a finite whole number: {text!r}")
    return int(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netsig",
        description="Batch-failure signatures and reliability of two-state networks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nstar", help="print n! and the failure-order count for 2..N")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_nstar)

    def common(p):
        p.add_argument("--output", choices=("json", "csv"), default="json")
        p.add_argument("--out", help="write the artifact to a file instead of stdout")

    def scoring(p):
        p.add_argument("--m-mode", choices=M_MODES, default=M_MODES[0],
                       help="fatal-block counting: exact minimum subset or the "
                            "two-terminal greedy path count")
        p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("exact", help="exhaustive batch-failure signature")
    p.add_argument("graph")
    common(p)
    scoring(p)
    p.set_defaults(func=cmd_signature)

    p = sub.add_parser("approx", help="Monte Carlo batch-failure signature")
    p.add_argument("graph")
    common(p)
    scoring(p)
    p.add_argument("--samples", type=_sample_count, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_signature)

    p = sub.add_parser("signature", help="classic single-failure signature")
    p.add_argument("graph")
    common(p)
    p.set_defaults(func=cmd_signature)

    p = sub.add_parser("reliability", help="survival curve from a signature mixture")
    p.add_argument("input", help="graph file or signature JSON artifact")
    p.add_argument("--process", choices=PROCESSES, default=PROCESSES[0])
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--tmax", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=100)
    common(p)
    p.set_defaults(func=cmd_reliability)
    return parser


def _drop_stdout() -> None:
    """Point stdout at devnull, so that the flush at interpreter exit writes
    nothing and does not raise again (recipe from the `signal` module docs)."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "nstar" and not 2 <= args.n <= MAX_NSTAR:
        parser.error(f"N must lie in [2, {MAX_NSTAR}]")
    if args.command == "reliability" and not 1 <= args.steps <= MAX_STEPS:
        parser.error(f"--steps must lie in [1, {MAX_STEPS}]")
    if args.command == "reliability" and -math.inf < args.tmax < 0:
        parser.error("--tmax must not be negative")
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        _drop_stdout()
        return EXIT_PIPE
    # ValueError covers GraphParseError and NetworkValidationError; OSError
    # an unreadable input or an unwritable output (a full disk, a name too
    # long).
    except (ValueError, UnsupportedModeError, OSError) as exc:
        if isinstance(exc, OSError) and exc.filename is None and not getattr(args, "out", None):
            _drop_stdout()  # the failed write was stdout's
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (EnumerationCapError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
