"""String normalization used for author and work identities.

Cited-reference strings come out of decades of export tooling with
inconsistent casing, punctuation and spacing; all grouping in this
package happens on the normalized forms produced here.  The forms are
memoized in a bounded least-recently-used table: a cited-reference
string's segments repeat far more than the strings do, so each distinct
segment is normalized about once.
"""

from __future__ import annotations

import string
from functools import lru_cache

UNKNOWN_AUTHOR = "UNKNOWN"

# ASCII punctuation minus the hyphen, which is meaningful in abbreviated
# source titles ("ANN PHYS-BERLIN").
_KEY_PUNCT = {ord(ch): None for ch in string.punctuation if ch != "-"}


# Bounded, so memory stays flat: full, the memo holds about 2.5 MB of
# 20-character forms besides their segments.
KEY_TOKEN_MEMO_SIZE = 1 << 14


@lru_cache(maxsize=KEY_TOKEN_MEMO_SIZE)
def key_token(value: str) -> str:
    """Normalize a field for identity comparison: uppercase, strip ASCII
    punctuation except hyphens, collapse whitespace.

    Memoized, at most ``KEY_TOKEN_MEMO_SIZE`` values; ``key_token.__wrapped__``
    is the same function without the memo."""
    cleaned = value.translate(_KEY_PUNCT).upper()
    return " ".join(cleaned.split())
