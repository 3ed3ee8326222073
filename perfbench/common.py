"""Shared helpers: locating the source tree, order statistics, digests."""

from __future__ import annotations

import hashlib
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence

BENCH_DIR = Path(__file__).resolve().parent
SOURCE_DIR = BENCH_DIR.parent / "src"

#: Samples the tail percentile must leave beyond it.
TAIL_BEYOND = 10


def use_source_tree() -> None:
    """Import ``repro`` from the checkout this benchmark sits in.

    Raises ``FileNotFoundError`` when the checkout has no source tree, so
    the command fails before measuring anything.
    """
    if not (SOURCE_DIR / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no repro package under {SOURCE_DIR}")
    if str(SOURCE_DIR) not in sys.path:
        sys.path.insert(0, str(SOURCE_DIR))


@dataclass(frozen=True)
class Tail:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond it."""

    value: float
    percentile: float
    samples: int

    def describe(self) -> str:
        if self.samples <= TAIL_BEYOND:
            return f"max of {self.samples} samples (too few for a tail percentile)"
        return (
            f"p{self.percentile:.1f} of {self.samples} samples "
            f"({TAIL_BEYOND} beyond it)"
        )


def tail(values: Sequence[float]) -> Tail:
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return Tail(ordered[-1], 100.0, n)
    return Tail(ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def ratio(hits: int, base: int) -> float:
    return hits / base if base else 0.0


def describe_ratio(hits: int, base: int) -> str:
    return f"{ratio(hits, base):.3f} ({hits}/{base})"


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Digest:
    """A blake2b digest over an ordered stream of text parts."""

    def __init__(self) -> None:
        self._hash = hashlib.blake2b(digest_size=16)

    def update(self, *parts: object) -> None:
        for part in parts:
            data = str(part).encode("utf-8")
            self._hash.update(len(data).to_bytes(8, "big"))
            self._hash.update(data)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def fold_digests(digests: Dict[str, str], order: List[str]) -> str:
    """One digest over named sub-digests, in ``order``."""
    digest = Digest()
    for key in order:
        digest.update(key, digests[key])
    return digest.hexdigest()
