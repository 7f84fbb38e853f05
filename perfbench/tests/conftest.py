import pathlib
import sys

_HERE = pathlib.Path(__file__).resolve().parent
if str(_HERE.parent) not in sys.path:
    sys.path.insert(0, str(_HERE.parent))

import worker  # noqa: E402,F401  (pins BLAS to one thread before numpy loads)
