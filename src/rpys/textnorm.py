"""String normalization used for author and work identities.

Cited-reference strings come out of decades of export tooling with
inconsistent casing, punctuation and spacing; all grouping in this
package happens on the normalized forms produced here.
"""

from __future__ import annotations

import string

UNKNOWN_AUTHOR = "UNKNOWN"

# ASCII punctuation minus the hyphen, which is meaningful in abbreviated
# source titles ("ANN PHYS-BERLIN").
_KEY_PUNCT = {ord(ch): None for ch in string.punctuation if ch != "-"}


def key_token(value: str) -> str:
    """Normalize a field for identity comparison: uppercase, strip ASCII
    punctuation except hyphens, collapse whitespace."""
    cleaned = value.translate(_KEY_PUNCT).upper()
    return " ".join(cleaned.split())
