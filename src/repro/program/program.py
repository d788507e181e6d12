"""The static program model: an ordered collection of procedures.

A :class:`Program` is what the linker sees — a list of procedures in
source/object-file order with known byte sizes.  The *default layout*
the paper compares against (Table 1) is exactly this order, placed
contiguously.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.errors import ProgramError
from repro.program.procedure import DEFAULT_CHUNK_SIZE, ChunkId, Procedure


class Program:
    """An immutable, ordered collection of uniquely named procedures."""

    def __init__(self, procedures: Iterable[Procedure]) -> None:
        self._procedures: tuple[Procedure, ...] = tuple(procedures)
        if not self._procedures:
            raise ProgramError("a program must contain at least one procedure")
        self._by_name: dict[str, Procedure] = {}
        for proc in self._procedures:
            if proc.name in self._by_name:
                raise ProgramError(f"duplicate procedure name {proc.name!r}")
            self._by_name[proc.name] = proc
        self._names = tuple(self._by_name)

    @classmethod
    def from_sizes(cls, sizes: Mapping[str, int]) -> "Program":
        """Build a program from a ``{name: size}`` mapping (in order)."""
        return cls(Procedure(name, size) for name, size in sizes.items())

    def __iter__(self) -> Iterator[Procedure]:
        return iter(self._procedures)

    def __len__(self) -> int:
        return len(self._procedures)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Procedure:
        try:
            return self._by_name[name]
        except KeyError:
            raise ProgramError(f"unknown procedure {name!r}") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        return self._procedures == other._procedures

    def __hash__(self) -> int:
        return hash(self._procedures)

    @property
    def names(self) -> tuple[str, ...]:
        """Procedure names in program (source) order."""
        return self._names

    @property
    def total_size(self) -> int:
        """Total code size in bytes."""
        return sum(proc.size for proc in self._procedures)

    def size_of(self, name: str) -> int:
        """Byte size of the named procedure."""
        try:
            return self._by_name[name].size
        except KeyError:
            raise ProgramError(f"unknown procedure {name!r}") from None

    def subset_size(self, names: Iterable[str]) -> int:
        """Total byte size of the named procedures."""
        return sum(self[name].size for name in names)

    def all_chunks(
        self, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> Iterator[ChunkId]:
        """All chunk identities in program order."""
        for proc in self._procedures:
            yield from proc.chunks(chunk_size)

    def num_chunks(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> int:
        """Total chunk count across the program."""
        return sum(proc.num_chunks(chunk_size) for proc in self._procedures)

    def __repr__(self) -> str:
        return (
            f"Program({len(self)} procedures, {self.total_size} bytes)"
        )
