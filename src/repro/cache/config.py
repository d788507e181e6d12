"""Instruction-cache geometry.

The paper evaluates an 8 KB direct-mapped cache with 32-byte lines
(Section 5.2) and sketches a set-associative extension (Section 6).
:class:`CacheConfig` captures exactly the parameters those experiments
need: total capacity, line size, associativity, and the instruction
size used to convert executed bytes into fetch counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

#: The largest cache, in lines, a geometry may have.  Simulation and
#: placement allocate per-line state, so an unbounded size (one HTTP
#: request can ask for 2**40 bytes) would exhaust memory before any
#: work is done.  2**16 lines is 32x the largest cache any experiment
#: uses (64 KB of 32-byte lines is 2048 lines).
MAX_CACHE_LINES = 2**16


@dataclass(frozen=True, slots=True)
class CacheConfig:
    """Geometry of an instruction cache.

    Parameters
    ----------
    size:
        Total capacity in bytes (e.g. ``8192`` for the paper's 8 KB cache).
    line_size:
        Cache line (block) size in bytes (``32`` in the paper).
    associativity:
        Number of ways per set. ``1`` models the direct-mapped cache used
        throughout Sections 2-5; ``2`` models the Section 6 extension.
    instruction_size:
        Bytes per instruction, used to translate executed byte extents
        into instruction-fetch counts when computing miss *rates*.
    """

    size: int = 8192
    line_size: int = 32
    associativity: int = 1
    instruction_size: int = 4

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ConfigError(f"cache size must be positive, got {self.size}")
        if self.line_size <= 0:
            raise ConfigError(
                f"line size must be positive, got {self.line_size}"
            )
        if self.associativity <= 0:
            raise ConfigError(
                f"associativity must be positive, got {self.associativity}"
            )
        if self.instruction_size <= 0:
            raise ConfigError(
                "instruction size must be positive, got "
                f"{self.instruction_size}"
            )
        if self.size % self.line_size != 0:
            raise ConfigError(
                f"cache size {self.size} is not a multiple of the line size "
                f"{self.line_size}"
            )
        if self.num_lines > MAX_CACHE_LINES:
            raise ConfigError(
                f"cache of {self.num_lines} lines exceeds the limit of "
                f"{MAX_CACHE_LINES} lines"
            )
        if self.num_lines % self.associativity != 0:
            raise ConfigError(
                f"{self.num_lines} lines cannot be divided into "
                f"{self.associativity}-way sets"
            )
        if self.line_size % self.instruction_size != 0:
            raise ConfigError(
                f"line size {self.line_size} is not a multiple of the "
                f"instruction size {self.instruction_size}"
            )

    @property
    def num_lines(self) -> int:
        """Total number of cache lines (``size / line_size``)."""
        return self.size // self.line_size

    @property
    def num_sets(self) -> int:
        """Number of sets (``num_lines / associativity``)."""
        return self.num_lines // self.associativity

    @property
    def instructions_per_line(self) -> int:
        """How many instruction fetches one resident line satisfies."""
        return self.line_size // self.instruction_size

    @property
    def is_direct_mapped(self) -> bool:
        """True when every set holds a single line."""
        return self.associativity == 1

    def line_of(self, address: int) -> int:
        """Memory-line index of a byte *address* (line-granular address)."""
        if address < 0:
            raise ConfigError(f"address must be non-negative, got {address}")
        return address // self.line_size

    def set_of(self, address: int) -> int:
        """Cache-set index that the byte *address* maps to."""
        return self.line_of(address) % self.num_sets

    def set_of_line(self, memory_line: int) -> int:
        """Cache-set index of a memory *line* index."""
        if memory_line < 0:
            raise ConfigError(
                f"memory line must be non-negative, got {memory_line}"
            )
        return memory_line % self.num_sets

    def lines_spanned(self, start_address: int, length: int) -> range:
        """Memory-line indices touched by ``length`` bytes at *start_address*.

        A zero-length extent touches no lines.
        """
        if length < 0:
            raise ConfigError(f"length must be non-negative, got {length}")
        if length == 0:
            return range(0)
        first = self.line_of(start_address)
        last = self.line_of(start_address + length - 1)
        return range(first, last + 1)


#: The configuration used for every headline experiment in the paper.
PAPER_CACHE = CacheConfig(size=8192, line_size=32, associativity=1)

#: The Section 6 two-way set-associative variant of the paper cache.
PAPER_CACHE_2WAY = CacheConfig(size=8192, line_size=32, associativity=2)
