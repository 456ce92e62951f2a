"""Earlier forms of the work identity and its normalizers, kept verbatim.

``RefKey`` is the frozen ordered dataclass that ``rpys.wos.RefKey``, a
named tuple now, replaced; ``test_corpus.py`` holds its ordering, equality
and ``display()`` to this one.  ``ParsedReference`` is the record the
cited-reference parser returned before it returned the work key: each
field as the string held it.  ``normalize_author`` and ``reference_key``
are the author normalizer that parser used and the keying that ran
``key_token`` on the parsed fields; ``test_wos_parser.py`` holds the
one-pass parser to them.  ``key_token`` here is the normalizer without
the memo the parser calls it through, so no cached form passes from the
code under test to its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from rpys import wos
from rpys.wos import UNKNOWN_AUTHOR

key_token = wos.key_token.__wrapped__


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


class ParsedReference(NamedTuple):
    """One cited-reference string with whatever fields could be recovered."""

    raw: str
    first_author: str | None = None
    year: int | None = None
    source: str | None = None
    volume: str | None = None
    page: str | None = None
    doi: str | None = None


def normalize_author(raw_author: str) -> str:
    """Normalize an author token: uppercase, drop periods/commas, collapse
    whitespace. An empty result maps to the ``UNKNOWN`` sentinel.

    >>> normalize_author("Einstein, A.")
    'EINSTEIN A'
    """
    cleaned = raw_author.replace(".", "").replace(",", "")
    return " ".join(cleaned.split()).upper() or UNKNOWN_AUTHOR


def key_fields(cr: ParsedReference) -> tuple:
    """The five fields ``reference_key`` keys ``cr`` by, also when it has no year."""
    author = key_token(cr.first_author) if cr.first_author else UNKNOWN_AUTHOR
    return (
        author or UNKNOWN_AUTHOR,
        cr.year,
        key_token(cr.source) if cr.source else "",
        key_token(cr.volume) if cr.volume else "",
        key_token(cr.page) if cr.page else "",
    )


def reference_key(cr: ParsedReference) -> RefKey | None:
    """Identity tuple of a cited reference; absent when the year is.

    Pure: byte-identical CR lines always map to equal keys.
    """
    if cr.year is None:
        return None
    return RefKey(*key_fields(cr))
