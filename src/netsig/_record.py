"""Immutable value records, without the import and the generated methods of
`dataclasses`, which would cost every CLI call milliseconds.

It holds the base `Record` and the signature record `TSignature`, with the
vocabularies it checks, `M_MODES` and `SIGNATURE_MODES`: a command that only
reads an artifact loads them without the engine.  The argument checks every
signature run shares, `_check_m_mode` and `_check_workers`, sit beside
`M_MODES`.  `PROCESSES`, the names of `reliability`'s counting processes,
sits there too, so the CLI builds its `--process` choices without loading
`reliability`; so does `_fubini`, the order counts F(0..n), which the exact
programs and `nstar` use without `combinatorics`.  `Network` is in `graph`.

A subclass of `Record` declares its fields as annotations, after those of
its bases, and a default as a class attribute of the same name.  A record
takes positional or keyword arguments, is checked by `__post_init__`,
refuses assignment, and compares and hashes by its fields.  The values
given live in the instance `__dict__`, so reads are plain and pickling
needs no hook.
"""

import math
from operator import add, mul

from .errors import UnsupportedModeError

M_MODES = ("exact-subset", "paper-greedy")
SIGNATURE_MODES = ("exact", "classic", "sampled")
# N(t) is Poisson(rate * t) for "poisson" and Binomial(n, 1 - exp(-rate * t))
# for "binomial".
PROCESSES = ("poisson", "binomial")
# Bounds `workers`, outside input: each worker id redoes its setup (a table build).
MAX_WORKERS = 1024


def _check_m_mode(net, m_mode: str) -> None:
    if m_mode not in M_MODES:
        raise ValueError(f"unknown m_mode {m_mode!r}; expected one of {M_MODES}")
    if m_mode == "paper-greedy" and len(net.terminals) != 2:
        raise UnsupportedModeError("paper-greedy M is two-terminal only; use exact-subset")


def _check_workers(workers: int) -> None:
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must be >= 1 and <= {MAX_WORKERS}, got {workers}")


def _fubini(n: int) -> list[int]:
    """[F(0), ..., F(n)]: F(m) orders of m links, F(0) = 1.  The orders of m
    links whose last block holds s given links are the F(m-s) orders of the
    rest, so F(m) is the sum of C(m, s) * F(m-s) over s = 1..m.  The
    binomials come row by row from Pascal's rule, which costs far less than
    `math.comb` for each term once m is in the hundreds."""
    fubini, row = [1], [1]  # row: C(m, s) for s = 0..m
    for m in range(1, n + 1):
        row = [1, *map(add, row, row[1:]), 1]
        fubini.append(sum(map(mul, row[1:], reversed(fubini))))
    return fubini


class Record:
    _fields = ()

    def __init_subclass__(cls):
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        fields, name = self._fields, type(self).__name__
        if len(args) > len(fields) or not kwargs.keys() <= set(fields[len(args):]):
            raise TypeError(f"{name}() got unexpected arguments")
        self.__dict__.update(zip(fields, args), **kwargs)
        missing = [field for field in fields if not hasattr(self, field)]
        if missing:
            raise TypeError(f"{name}() missing arguments {missing}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, field) for field in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({fields})"


class TSignature(Record):
    """Histogram of M normalized to a probability vector.

    counts[i-1] is the exact number of scored orders with M=i; total is the
    order count (exact mode), n! (classic mode) or the sample size (sampled
    mode); values is the floating projection counts/total.
    """

    n: int
    counts: tuple[int, ...]
    total: int
    mode: str
    m_mode: str

    def __post_init__(self):
        if len(self.counts) != self.n:
            raise ValueError("counts length must equal the link count")
        if sum(self.counts) != self.total:
            raise ValueError("counts must sum to total")
        if self.total < 1 or min(self.counts) < 0:
            raise ValueError("counts must be nonnegative with a positive total")
        if self.mode not in SIGNATURE_MODES:
            raise ValueError(
                f"unknown mode {self.mode!r}; expected one of {SIGNATURE_MODES}"
            )
        if self.m_mode not in M_MODES:
            raise ValueError(f"unknown m_mode {self.m_mode!r}; expected one of {M_MODES}")

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(c / self.total for c in self.counts)

    @property
    def std_error(self) -> tuple[float, ...]:
        """Per-component binomial standard errors, for sampled counts."""
        return tuple(math.sqrt(v * (1.0 - v) / self.total) for v in self.values)
