"""The earlier work identity, a frozen ordered dataclass, kept verbatim.

``rpys.corpus.RefKey`` is a named tuple now; ``test_corpus.py`` holds its
ordering, equality and ``display()`` to this one.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True, slots=True)
class RefKey:
    """Normalized identity of a cited work.

    DOI is deliberately not part of the identity: DOIs are sparse in
    older CR strings, and mixing DOI-keyed and field-keyed identities
    would split counts for the same work.
    """

    author: str
    year: int
    source: str
    volume: str
    page: str

    def display(self) -> str:
        parts = [self.author, str(self.year)]
        if self.source:
            parts.append(self.source)
        if self.volume:
            parts.append("V" + self.volume)
        if self.page:
            parts.append("P" + self.page)
        return ", ".join(parts)
