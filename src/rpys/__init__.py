"""Referenced publication year spectroscopy (RPYS).

Parse Web of Science exports, count cited references per referenced
publication year, smooth the counts with a five-year median, detect
peak years, and drill into each peak's most-cited authors and works.
Each module's ``__all__`` lists the names the package exports from it.
"""

from .wos import *
from .corpus import *
from .spectrum import *
from .svgplot import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *wos.__all__,
    *corpus.__all__,
    *spectrum.__all__,
    *svgplot.__all__,
]
