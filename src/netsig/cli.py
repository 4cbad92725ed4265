"""Command-line interface.

Subcommands: nstar (order-count table), exact (exhaustive batch-failure
signature), approx (Monte Carlo signature), signature (classic permutation
signature), reliability (mixture survival curve).  Signature artifacts are
JSON (or CSV) with an embedded run manifest; counts are string-encoded
because they exceed 64-bit JSON-safe integers.

Exit codes: 0 success, 1 output pipe closed by the reader (nothing is
written to stderr), 2 usage, 3 input validation (an unreadable path, a
malformed graph or artifact, a non-finite rate or time, a seed outside
[0, 2**64), an m-mode the network does not support, or a non-finite number
in a JSON artifact), 4 an exact program refused (memory budget, link limit).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

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
from .combinatorics import n_star
from .engine import (
    SampledTSignature,
    TSignature,
    classic_signature,
    exact_tsignature,
)
from .errors import EnumerationCapError, UnsupportedModeError
from .graph import parse_network
from .reliability import binomial_model, poisson_model, survival_mixture
from .sampling import SamplingPlan, approx_tsignature

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_CAP = 4


def _read_input(path: str) -> tuple[str, str, str]:
    """The text of a file, its SHA-256 and its name without the last suffix
    (as `pathlib.Path.stem` gives it)."""
    with open(path) as f:
        text = f.read()
    stem = os.path.splitext(os.path.basename(path))[0]
    return text, sha256(text.encode()).hexdigest(), stem


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


def _json_text(payload: dict) -> str:
    """`json.dumps(payload, indent=2, sort_keys=True)`, byte for byte, with
    each top-level list of numbers written by the C encoder (which `indent`
    would turn off) and laid out as `indent=2` lays it out.  Non-finite
    floats raise ValueError."""
    fields = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, list) and set(map(type, value)) <= {int, float}:
            text = json.dumps(value, allow_nan=False, separators=(",\n    ", ": "))
            if value:
                text = "[\n    " + text[1:-1] + "\n  ]"
        else:
            text = json.dumps(value, indent=2, sort_keys=True, allow_nan=False)
            text = text.replace("\n", "\n  ")
        fields.append(f"{json.dumps(key)}: {text}")
    return "{\n  " + ",\n  ".join(fields) + "\n}"


def _emit(payload: dict, args: argparse.Namespace, csv_rows=None, csv_header=None) -> None:
    if args.output == "json":
        text = _json_text(payload)
    else:
        lines = [",".join(csv_header)]
        lines += [",".join(str(x) for x in row) for row in csv_rows]
        text = "\n".join(lines)
    if getattr(args, "out", None):
        with open(args.out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def cmd_nstar(args) -> int:
    for n in range(2, args.n + 1):
        print(f"{n:>3} | {math.factorial(n):,} | {n_star(n):,}")
    return EXIT_OK


def cmd_signature(args) -> int:
    """exact, approx and signature: one network in, one signature artifact
    out."""
    started = time.time()
    text, digest, name = _read_input(args.graph)
    net = parse_network(text, name=name)
    m_mode = "paper-greedy" if args.m_mode == "greedy" else "exact-subset"
    if args.command == "exact":
        sig = exact_tsignature(net, m_mode=m_mode, workers=args.workers)
    elif args.command == "approx":
        plan = SamplingPlan(
            sample_count=args.samples, seed=args.seed, workers=args.workers, m_mode=m_mode
        )
        sig = approx_tsignature(net, plan)
    else:
        sig = classic_signature(net, m_mode=m_mode)
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
    if isinstance(sig, SampledTSignature):
        payload["std_error"] = list(sig.std_error)
        columns.append(sig.std_error)
        header.append("std_error")
    rows = zip(*columns) if args.output == "csv" else None
    _emit(payload, args, csv_rows=rows, csv_header=header)
    return EXIT_OK


def _artifact_int(value) -> int:
    """A JSON integer or an integer string; not a float (`1e400`, `2.7`) or `true`."""
    if type(value) is not int and not isinstance(value, str):
        raise TypeError(f"expected an integer or an integer string, got {value!r}")
    return int(value)


def _load_signature_input(path: str):
    """Accept either a graph file (exact signature is computed) or a
    previously emitted signature artifact."""
    text, digest, name = _read_input(path)
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
            counts = data["counts"]
            if type(counts) is not list:
                raise TypeError(f"counts must be a list, got {type(counts).__name__}")
            sig = TSignature(
                n=_artifact_int(data["n"]),
                counts=tuple(map(_artifact_int, counts)),
                total=_artifact_int(data["total"]),
                mode=data["mode"],
                m_mode=data["m_mode"],
            )
        except (KeyError, TypeError, RecursionError) as exc:
            raise ValueError(
                f"{path}: not a signature artifact ({type(exc).__name__}: {exc})"
            ) from None
        return sig, digest
    net = parse_network(text, name=name)
    return exact_tsignature(net), digest


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
    if args.process == "poisson":
        model = poisson_model(args.rate)
    else:
        model = binomial_model(sig.n, args.rate)
    curve = survival_mixture(sig, model, _time_grid(args.tmax, args.steps))
    payload = {
        "manifest": _manifest("reliability", digest, args, started),
        "n": sig.n,
        "process": args.process,
        "rate": args.rate,
        "times": list(curve.times),
        "survival": list(curve.survival),
    }
    rows = zip(curve.times, curve.survival) if args.output == "csv" else None
    _emit(payload, args, csv_rows=rows, csv_header=["t", "survival"])
    return EXIT_OK


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

    def common(p, workers=True):
        p.add_argument("--m-mode", choices=("exact", "greedy"), default="exact",
                       help="fatal-block counting: exact minimum subset or the "
                            "two-terminal greedy path count")
        if workers:
            p.add_argument("--workers", type=int, default=1)
        p.add_argument("--output", choices=("json", "csv"), default="json")
        p.add_argument("--out", help="write the artifact to a file instead of stdout")

    p = sub.add_parser("exact", help="exhaustive batch-failure signature")
    p.add_argument("graph")
    common(p)
    p.set_defaults(func=cmd_signature)

    p = sub.add_parser("approx", help="Monte Carlo batch-failure signature")
    p.add_argument("graph")
    common(p)
    p.add_argument("--samples", type=_sample_count, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_signature)

    p = sub.add_parser("signature", help="classic single-failure signature")
    p.add_argument("graph")
    common(p, workers=False)
    p.set_defaults(func=cmd_signature)

    p = sub.add_parser("reliability", help="survival curve from a signature mixture")
    p.add_argument("input", help="graph file or signature JSON artifact")
    p.add_argument("--process", choices=("poisson", "binomial"), default="poisson")
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--tmax", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--output", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_reliability)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "nstar" and args.n < 2:
        parser.error("N must be >= 2")
    if args.command == "reliability" and args.steps < 1:
        parser.error("--steps must be >= 1")
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout: point it at devnull so that the flush at
        # interpreter exit does not raise again (recipe from the `signal`
        # module docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    # ValueError covers GraphParseError and NetworkValidationError.
    except (ValueError, UnsupportedModeError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
