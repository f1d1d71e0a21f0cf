"""Repository-root pytest configuration.

Makes the ``tests`` package importable when running ``benchmarks/``
stand-alone (the benchmark harness reuses shared test programs such as
the Listing 1 dot product).
"""

import sys
from pathlib import Path

_ROOT = str(Path(__file__).parent)
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

